package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// svcGrid returns n distinct cells that validate but need no simulation.
func svcGrid(n int) []core.Spec {
	comps := core.Components()
	specs := make([]core.Spec, n)
	for i := range specs {
		specs[i] = core.Spec{
			Workload: "stringSearch", Component: comps[i%len(comps)],
			Faults: 1 + (i/len(comps))%3, Samples: 4, Seed: 7,
		}
	}
	return specs
}

func fastBackoff() Backoff {
	return Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}
}

// newTestService builds a Service over a fresh telemetry campaign with an
// in-memory event log, serving on an httptest server.
func newTestService(t *testing.T, dir string, opts ServiceOptions) (*Service, *telemetry.Campaign, *httptest.Server) {
	t.Helper()
	tel := telemetry.NewCampaign(nil)
	tel.Events = telemetry.NewEventLog(nil, 0)
	opts.Tel = tel
	svc, err := NewService(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(svc.Mux())
	t.Cleanup(srv.Close)
	t.Cleanup(func() { svc.Close() })
	return svc, tel, srv
}

// svcClock installs a manual clock on the service — and so on every
// coordinator it builds afterwards — and returns the advance function.
func svcClock(s *Service) func(d time.Duration) {
	now := time.Unix(1_700_000_000, 0)
	s.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

// serveOneShot stands up what a one-shot `gefin -serve` runs: a service on
// a fresh state directory with specs submitted in-process, its sweep loop,
// and Drain, whose result arrives on the returned channel.
func serveOneShot(t *testing.T, ctx context.Context, specs []core.Spec, opts ServiceOptions) (*Service, *svcCampaign, *telemetry.Campaign, *httptest.Server, <-chan error) {
	t.Helper()
	svc, tel, srv := newTestService(t, t.TempDir(), opts)
	info, _, err := svc.Submit(&SubmitCampaignRequest{Specs: specs}, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := svc.campaigns[info.ID]
	go svc.Run(ctx)
	drained := make(chan error, 1)
	go func() { drained <- svc.Drain(ctx) }()
	for draining := false; !draining; time.Sleep(time.Millisecond) {
		svc.mu.Lock()
		draining = svc.draining
		svc.mu.Unlock()
	}
	return svc, c, tel, srv, drained
}

// postJSON posts a JSON body and decodes the JSON reply, returning the
// HTTP status — admission tests need the raw status and headers, which the
// retrying Client deliberately hides.
func postJSON(t *testing.T, url string, req, rep any) (int, http.Header) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if rep != nil {
		if err := json.NewDecoder(resp.Body).Decode(rep); err != nil {
			t.Fatalf("decoding reply: %v", err)
		}
	}
	return resp.StatusCode, resp.Header
}

func submitRaw(t *testing.T, base string, req *SubmitCampaignRequest) (int, http.Header, CampaignInfo, APIError) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(base+PathCampaigns, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info CampaignInfo
	var apiErr APIError
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated {
		json.NewDecoder(resp.Body).Decode(&info)
	} else {
		json.NewDecoder(resp.Body).Decode(&apiErr)
	}
	return resp.StatusCode, resp.Header, info, apiErr
}

// waitState polls one campaign until it reaches state (or the deadline).
func waitState(t *testing.T, cl *Client, id, state string) CampaignInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	for {
		info, err := cl.Campaign(ctx, id)
		if err != nil {
			t.Fatalf("polling %s: %v", id, err)
		}
		if info.State == state {
			return *info
		}
		if terminalState(info.State) {
			t.Fatalf("campaign %s reached %s (%s) while waiting for %s",
				id, info.State, info.Detail, state)
		}
		select {
		case <-ctx.Done():
			t.Fatalf("campaign %s stuck in %s waiting for %s", id, info.State, state)
		case <-time.After(20 * time.Millisecond):
		}
	}
}

// TestServiceCrashRestartByteIdentity is the tentpole acceptance test: a
// campaign runs partway, the service is killed abruptly (no transitions,
// no drain — the in-memory state just vanishes), a new service replays the
// journal and results files from the same directory, a fresh worker
// finishes the campaign, and the final results are byte-identical to an
// uninterrupted single-process run. A third replay on the finished
// directory is also exercised: replay is idempotent and changes nothing.
func TestServiceCrashRestartByteIdentity(t *testing.T) {
	specs := e2eGrid()
	ref := core.NewResultSet()
	if err := core.RunGrid(context.Background(), specs, 1,
		func(_ int, r *core.Result) { ref.Add(r) }); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()

	// Life one: accept the campaign, complete exactly one cell, die.
	svc1, _, srv1 := newTestService(t, dir, ServiceOptions{LeaseTTL: time.Minute})
	cl1 := &Client{URL: srv1.URL, Backoff: fastBackoff()}
	info, err := cl1.SubmitCampaign(ctx, &SubmitCampaignRequest{
		Tenant: "acme", Name: "nightly", Specs: specs})
	if err != nil {
		t.Fatal(err)
	}
	if info.State != StateRunning {
		t.Fatalf("submitted campaign state = %s, want running", info.State)
	}

	wctx, wcancel := context.WithCancel(ctx)
	var once sync.Once
	firstCell := make(chan struct{})
	w1 := &Worker{ID: "w1", URL: srv1.URL, Backoff: fastBackoff(),
		OnCell: func(int, core.Spec, *core.Result) { once.Do(func() { close(firstCell) }) }}
	w1Done := make(chan error, 1)
	go func() { w1Done <- w1.Run(wctx) }()
	select {
	case <-firstCell:
	case <-ctx.Done():
		t.Fatal("worker never completed a cell")
	}
	wcancel()
	<-w1Done
	srv1.Close()
	svc1.Close() // release the journal fd; nothing graceful was recorded

	// Life two: replay. The campaign must come back running with the
	// completed cell already covered, and a new worker finishes it.
	svc2, tel2, srv2 := newTestService(t, dir, ServiceOptions{LeaseTTL: time.Minute})
	cl2 := &Client{URL: srv2.URL, Backoff: fastBackoff()}
	replayed, err := cl2.Campaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if replayed.State != StateRunning {
		t.Fatalf("replayed campaign state = %s, want running", replayed.State)
	}
	if replayed.Done < 1 {
		t.Fatalf("replay lost the completed cell: done = %d", replayed.Done)
	}
	if replayed.Tenant != "acme" || replayed.Name != "nightly" {
		t.Fatalf("replay lost identity: %+v", replayed)
	}

	w2ctx, w2cancel := context.WithCancel(ctx)
	defer w2cancel()
	w2 := &Worker{ID: "w2", URL: srv2.URL, Backoff: fastBackoff()}
	go w2.Run(w2ctx)
	waitState(t, cl2, info.ID, StateDone)
	w2cancel()

	got := readFile(t, filepath.Join(dir, "results", info.ID+".json"))
	if !bytes.Equal(got, want) {
		t.Fatalf("crash-restarted campaign results differ from single-process run:\n got: %s\nwant: %s", got, want)
	}
	served, err := cl2.Results(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(served, want) {
		t.Fatal("GET /campaigns/{id}/results differs from the durable file")
	}
	if n := counter(tel2, telemetry.MetricCampaigns+`{state="done"}`); n != 1 {
		t.Fatalf("campaigns_total{state=done} = %d, want 1", n)
	}
	srv2.Close()
	svc2.Close()

	// Life three: double replay of a finished directory is a no-op.
	svc3, _, srv3 := newTestService(t, dir, ServiceOptions{LeaseTTL: time.Minute})
	defer svc3.Close()
	cl3 := &Client{URL: srv3.URL, Backoff: fastBackoff()}
	final, err := cl3.Campaign(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone {
		t.Fatalf("third replay state = %s, want done", final.State)
	}
	if again := readFile(t, filepath.Join(dir, "results", info.ID+".json")); !bytes.Equal(again, want) {
		t.Fatal("replaying a finished directory changed the results bytes")
	}
}

// TestServiceTwoTenantsSharedFleet is the multiplexing acceptance test:
// two campaigns from different tenants run concurrently over one shared
// two-worker fleet, both complete byte-identically to local runs, and an
// admission rejection along the way is observable in the metrics.
func TestServiceTwoTenantsSharedFleet(t *testing.T) {
	gridA := []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 4, Seed: 3},
		{Workload: "stringSearch", Component: core.CompRF, Faults: 2, Samples: 4, Seed: 3},
	}
	gridB := []core.Spec{
		{Workload: "stringSearch", Component: core.CompDTLB, Faults: 2, Samples: 4, Seed: 3},
		{Workload: "stringSearch", Component: core.CompL1I, Faults: 1, Samples: 4, Seed: 3},
	}
	wantFor := func(grid []core.Spec) []byte {
		rs := core.NewResultSet()
		if err := core.RunGrid(context.Background(), grid, 1,
			func(_ int, r *core.Result) { rs.Add(r) }); err != nil {
			t.Fatal(err)
		}
		data, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	wantA, wantB := wantFor(gridA), wantFor(gridB)

	dir := t.TempDir()
	_, tel, srv := newTestService(t, dir, ServiceOptions{
		LeaseTTL: time.Minute, TenantCampaigns: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cl := &Client{URL: srv.URL, Backoff: fastBackoff()}

	infoA, err := cl.SubmitCampaign(ctx, &SubmitCampaignRequest{Tenant: "alpha", Specs: gridA})
	if err != nil {
		t.Fatal(err)
	}
	infoB, err := cl.SubmitCampaign(ctx, &SubmitCampaignRequest{Tenant: "beta", Specs: gridB})
	if err != nil {
		t.Fatal(err)
	}

	// Tenant alpha is at its live-campaign quota: the next submission
	// bounces with 429 + Retry-After, visible in the admission counters.
	code, hdr, _, apiErr := submitRaw(t, srv.URL, &SubmitCampaignRequest{Tenant: "alpha", Specs: gridB})
	if code != http.StatusTooManyRequests || apiErr.Code != ErrCodeTenantCampaigns {
		t.Fatalf("over-quota submit = %d %+v, want 429 tenant_campaigns", code, apiErr)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if n := counter(tel, telemetry.MetricAdmissionRejects+`{tenant="alpha",reason="tenant_campaigns"}`); n != 1 {
		t.Fatalf("admission reject counter = %d, want 1", n)
	}

	wctx, wcancel := context.WithCancel(ctx)
	defer wcancel()
	for _, id := range []string{"w1", "w2"} {
		w := &Worker{ID: id, URL: srv.URL, Backoff: fastBackoff()}
		go w.Run(wctx)
	}
	waitState(t, cl, infoA.ID, StateDone)
	waitState(t, cl, infoB.ID, StateDone)
	wcancel()

	gotA := readFile(t, filepath.Join(dir, "results", infoA.ID+".json"))
	gotB := readFile(t, filepath.Join(dir, "results", infoB.ID+".json"))
	if !bytes.Equal(gotA, wantA) {
		t.Fatal("tenant alpha's results differ from a local run of its grid")
	}
	if !bytes.Equal(gotB, wantB) {
		t.Fatal("tenant beta's results differ from a local run of its grid")
	}
	if n := counter(tel, telemetry.MetricCampaigns+`{state="done"}`); n != 2 {
		t.Fatalf("campaigns_total{state=done} = %d, want 2", n)
	}
	// The shared event log attributes cell completions per campaign.
	seen := map[string]bool{}
	for _, ev := range tel.Events.Since(0) {
		if ev.Type == telemetry.EventCellDone {
			seen[ev.Campaign] = true
		}
	}
	if !seen[infoA.ID] || !seen[infoB.ID] {
		t.Fatalf("cell_done events missing campaign labels: %v", seen)
	}
}

// TestServiceAdmissionQueueAndCells covers the other two admission axes:
// bounded queue depth and the per-tenant live-cell cap.
func TestServiceAdmissionQueueAndCells(t *testing.T) {
	_, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{
		LeaseTTL: time.Minute, MaxActive: 1, QueueDepth: 1, TenantCells: 8})

	// First campaign runs; the tenant's live cells now count against its cap,
	// so a follow-up submission that would push it past 8 bounces even with
	// room in the queue.
	if code, _, _, apiErr := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "t0", Specs: svcGrid(1)}); code != http.StatusCreated {
		t.Fatalf("first submit = %d (%+v), want 201", code, apiErr)
	}
	code, _, _, apiErr := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "t0", Specs: svcGrid(8)})
	if code != http.StatusTooManyRequests || apiErr.Code != ErrCodeTenantCells {
		t.Fatalf("over-quota submit = %d %+v, want 429 tenant_cells", code, apiErr)
	}
	// A submission over the cap on its own can never be admitted: a typed
	// 400, which the client returns at once instead of retrying the 429.
	code, _, _, apiErr = submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "t9", Specs: svcGrid(9)})
	if code != http.StatusBadRequest || apiErr.Code != ErrCodeTenantCells {
		t.Fatalf("oversized submit = %d %+v, want 400 tenant_cells", code, apiErr)
	}
	cl := &Client{URL: srv.URL, Backoff: fastBackoff(), MaxWait: 30 * time.Second}
	start := time.Now()
	_, err := cl.SubmitCampaign(context.Background(), &SubmitCampaignRequest{Tenant: "t9", Specs: svcGrid(9)})
	var term *TerminalError
	if !errors.As(err, &term) || term.Code != ErrCodeTenantCells {
		t.Fatalf("client oversized submit = %v, want a tenant_cells TerminalError", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("oversized submit took %v — the client retried it", elapsed)
	}

	// One campaign fits the queue; the next finds it full.
	if code, _, _, apiErr := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "t1", Specs: svcGrid(1)}); code != http.StatusCreated {
		t.Fatalf("queued submit = %d (%+v), want 201", code, apiErr)
	}
	code, _, _, apiErr = submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "t2", Specs: svcGrid(1)})
	if code != http.StatusTooManyRequests || apiErr.Code != ErrCodeQueueFull {
		t.Fatalf("over-queue submit = %d %+v, want 429 queue_full", code, apiErr)
	}
	if n := counter(tel, telemetry.MetricAdmissionRejects+`{tenant="t2",reason="queue_full"}`); n != 1 {
		t.Fatalf("queue_full reject counter = %d, want 1", n)
	}
	if n := counter(tel, telemetry.MetricAdmissionRejects+`{tenant="t0",reason="tenant_cells"}`); n != 1 {
		t.Fatalf("tenant_cells reject counter = %d, want 1", n)
	}
	if got := tel.Registry.Gauge(telemetry.MetricQueueDepth).Value(); got != 1 {
		t.Fatalf("queue depth gauge = %d, want 1", got)
	}
}

// TestServiceValidationRejects: malformed submissions get typed 400s, not
// queue slots.
func TestServiceValidationRejects(t *testing.T) {
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	cases := []struct {
		name string
		req  SubmitCampaignRequest
		code string
	}{
		{"no cells", SubmitCampaignRequest{}, ErrCodeInvalidSpec},
		{"bad spec", SubmitCampaignRequest{Specs: []core.Spec{{Workload: "nope", Component: "L1D", Faults: 1, Samples: 1}}}, ErrCodeInvalidSpec},
		{"duplicate cells", SubmitCampaignRequest{Specs: append(svcGrid(1), svcGrid(1)...)}, ErrCodeInvalidSpec},
		{"bad tenant", SubmitCampaignRequest{Tenant: `evil"t`, Specs: svcGrid(1)}, ErrCodeBadRequest},
		{"negative retries", SubmitCampaignRequest{Retries: -1, Specs: svcGrid(1)}, ErrCodeBadRequest},
	}
	for _, tc := range cases {
		code, _, _, apiErr := submitRaw(t, srv.URL, &tc.req)
		if code != http.StatusBadRequest || apiErr.Code != tc.code {
			t.Errorf("%s: got %d %+v, want 400 %s", tc.name, code, apiErr, tc.code)
		}
	}
}

// TestServiceNamedResubmitIdempotent: a named submission retried while the
// campaign is live returns the same campaign instead of queuing another.
func TestServiceNamedResubmitIdempotent(t *testing.T) {
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	first, _, info1, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "acme", Name: "nightly", Specs: svcGrid(1)})
	second, _, info2, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "acme", Name: "nightly", Specs: svcGrid(1)})
	if first != http.StatusCreated || second != http.StatusOK {
		t.Fatalf("statuses = %d, %d; want 201 then 200", first, second)
	}
	if info1.ID != info2.ID {
		t.Fatalf("named resubmit created a duplicate: %s vs %s", info1.ID, info2.ID)
	}
	// A different tenant's identical name is a different campaign.
	_, _, info3, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{
		Tenant: "other", Name: "nightly", Specs: svcGrid(1)})
	if info3.ID == info1.ID {
		t.Fatal("tenant namespaces leaked: same campaign for different tenants")
	}
}

// TestServicePauseResumeCancelDrain drives the lifecycle by hand with raw
// protocol calls: pause releases the lease without charging a retry, the
// holder discovers it on heartbeat, resume re-queues, and cancel is
// terminal for lease, submit and transition alike.
func TestServicePauseResumeCancelDrain(t *testing.T) {
	svc, _, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Minute})
	_, _, info, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: svcGrid(1)})
	id := info.ID

	var lease LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &lease)
	if lease.Status != StatusLease || lease.Campaign != id {
		t.Fatalf("lease = %+v, want a lease on %s", lease, id)
	}

	var paused CampaignInfo
	if code, _ := postJSON(t, srv.URL+PathCampaigns+"/"+id+"/pause", struct{}{}, &paused); code != http.StatusOK {
		t.Fatalf("pause returned %d", code)
	}
	if paused.State != StatePaused || paused.Leased != 0 {
		t.Fatalf("paused info = %+v, want paused with 0 leases", paused)
	}
	if paused.Retries != 0 {
		t.Fatalf("pause charged %d retries, want 0", paused.Retries)
	}
	var hb HeartbeatReply
	postJSON(t, srv.URL+PathHeartbeat, &HeartbeatRequest{Worker: "w1", LeaseID: lease.LeaseID, Campaign: id}, &hb)
	if hb.Status != StatusExpired {
		t.Fatalf("heartbeat on a paused campaign = %s, want expired", hb.Status)
	}
	var wait LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &wait)
	if wait.Status != StatusWait {
		t.Fatalf("lease with everything paused = %s, want wait (the fleet stays)", wait.Status)
	}

	// Pausing a paused campaign is a 409, not a silent no-op.
	var apiErr APIError
	if code, _ := postJSON(t, srv.URL+PathCampaigns+"/"+id+"/pause", struct{}{}, &apiErr); code != http.StatusConflict || apiErr.Code != ErrCodeBadTransition {
		t.Fatalf("double pause = %d %+v, want 409 bad_transition", code, apiErr)
	}

	var resumed CampaignInfo
	postJSON(t, srv.URL+PathCampaigns+"/"+id+"/resume", struct{}{}, &resumed)
	if resumed.State != StateRunning {
		t.Fatalf("resume left state %s, want running", resumed.State)
	}
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &lease)
	if lease.Status != StatusLease || lease.Campaign != id {
		t.Fatalf("lease after resume = %+v", lease)
	}
	if st := svc.campaigns[id].coord.Stats(); st.Retries != 0 {
		t.Fatalf("pause/resume burned %d retries, want 0", st.Retries)
	}

	var cancelled CampaignInfo
	postJSON(t, srv.URL+PathCampaigns+"/"+id+"/cancel", struct{}{}, &cancelled)
	if cancelled.State != StateCancelled {
		t.Fatalf("cancel left state %s", cancelled.State)
	}
	var sub SubmitReply
	postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "w1", LeaseID: lease.LeaseID,
		Campaign: id, Cell: lease.Cell, Result: fakeResult(lease.Spec)}, &sub)
	if sub.Status != StatusStale || sub.CampaignDone {
		t.Fatalf("submit into a cancelled campaign = %+v, want stale and no campaign-done", sub)
	}
	if code, _ := postJSON(t, srv.URL+PathCampaigns+"/"+id+"/resume", struct{}{}, &apiErr); code != http.StatusConflict {
		t.Fatalf("resume after cancel = %d, want 409", code)
	}
}

// TestServiceRoundRobinLeasing: with two campaigns running, consecutive
// leases alternate between them — one fleet, fair multiplexing.
func TestServiceRoundRobinLeasing(t *testing.T) {
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Minute})
	_, _, infoA, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{Tenant: "alpha", Specs: svcGrid(2)})
	_, _, infoB, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{Tenant: "beta", Specs: svcGrid(2)})

	var got []string
	for i := 0; i < 4; i++ {
		var lease LeaseReply
		postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: fmt.Sprintf("w%d", i)}, &lease)
		if lease.Status != StatusLease {
			t.Fatalf("lease %d = %s", i, lease.Status)
		}
		got = append(got, lease.Campaign)
	}
	want := []string{infoA.ID, infoB.ID, infoA.ID, infoB.ID}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lease order = %v, want alternating %v", got, want)
		}
	}
}

// TestServiceUnknownCampaignIsTerminal: a request naming a campaign the
// journal never admitted is a typed 404 the worker treats as permanent —
// it returns immediately instead of burning its downtime budget.
func TestServiceUnknownCampaignIsTerminal(t *testing.T) {
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	w := &Worker{ID: "lost", URL: srv.URL, Backoff: fastBackoff(),
		MaxDowntime: 30 * time.Second}
	start := time.Now()
	var rep HeartbeatReply
	err := w.post(context.Background(), PathHeartbeat,
		&HeartbeatRequest{Worker: "lost", LeaseID: 1, Campaign: "c999999"}, &rep)
	var term *TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("unknown campaign returned %v, want TerminalError", err)
	}
	if term.Code != ErrCodeUnknownCampaign || term.Status != http.StatusNotFound {
		t.Fatalf("terminal error = %+v", term)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("terminal rejection took %v — the worker retried it", elapsed)
	}
}

// TestServiceEventsFilteredPerCampaign: the per-campaign event endpoint
// returns only that campaign's slice of the shared log.
func TestServiceEventsFilteredPerCampaign(t *testing.T) {
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	_, _, infoA, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{Tenant: "alpha", Specs: svcGrid(1)})
	_, _, infoB, _ := submitRaw(t, srv.URL, &SubmitCampaignRequest{Tenant: "beta", Specs: svcGrid(1)})

	resp, err := http.Get(srv.URL + PathCampaigns + "/" + infoA.ID + "/events?wait=10ms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	n := 0
	for dec.More() {
		var ev telemetry.Event
		if err := dec.Decode(&ev); err != nil {
			t.Fatal(err)
		}
		if ev.Campaign != infoA.ID {
			t.Fatalf("campaign %s stream leaked event for %q", infoA.ID, ev.Campaign)
		}
		n++
	}
	if n == 0 {
		t.Fatal("per-campaign stream returned nothing")
	}
	if resp, err := http.Get(srv.URL + PathCampaigns + "/zzz/events?wait=10ms"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("events for unknown campaign = %d, want 404", resp.StatusCode)
		}
	}
	_ = infoB
}

// TestServiceHealthSnapshot: the /healthz digest counts campaigns by state.
func TestServiceHealthSnapshot(t *testing.T) {
	svc, _, srv := newTestService(t, t.TempDir(), ServiceOptions{MaxActive: 1})
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: svcGrid(1)})
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: svcGrid(1)})
	snap := svc.Snapshot()
	if snap["campaigns"] != 2 {
		t.Fatalf("snapshot campaigns = %v, want 2", snap["campaigns"])
	}
	states := snap["by_state"].(map[string]int)
	if states[StateRunning] != 1 || states[StateQueued] != 1 {
		t.Fatalf("snapshot by_state = %v, want 1 running + 1 queued", states)
	}
	if snap["queue_depth"] != 1 {
		t.Fatalf("snapshot queue_depth = %v, want 1", snap["queue_depth"])
	}
}

// TestServiceJournalUnwritableRefusesSubmission: when the journal cannot
// make a submission durable, the service refuses it rather than accepting
// work a crash would forget.
func TestServiceJournalUnwritableRefusesSubmission(t *testing.T) {
	dir := t.TempDir()
	svc, _, srv := newTestService(t, dir, ServiceOptions{})
	svc.journal.Close() // simulate a dead journal fd (disk gone, etc.)
	code, _, _, apiErr := submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: svcGrid(1)})
	if code != http.StatusInternalServerError {
		t.Fatalf("submit with a dead journal = %d (%+v), want 500", code, apiErr)
	}
	// And nothing was admitted: the queue is exactly as durable as it claims.
	if n := len(svc.Snapshot()) ; n == 0 {
		t.Fatal("snapshot unavailable")
	}
	if svc.Snapshot()["campaigns"] != 0 {
		t.Fatalf("refused submission still queued: %v", svc.Snapshot())
	}
	_ = os.Remove(filepath.Join(dir, "journal.jsonl"))
}

// TestServiceDrainSendsFleetHome: while draining, the submit that ends the
// last live campaign carries CampaignDone and a tail worker's next lease is
// StatusDone. Drain returns as soon as both are told, or one lease TTL
// after the campaign ended when a worker never comes back.
func TestServiceDrainSendsFleetHome(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	for _, ttl := range []time.Duration{time.Minute, time.Second} {
		specs := protoGrid(1)
		_, _, _, srv, drained := serveOneShot(t, ctx, specs, ServiceOptions{LeaseTTL: ttl})
		var last, tail LeaseReply
		postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "last"}, &last)
		postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "tail"}, &tail)
		if last.Status != StatusLease || tail.Status != StatusWait {
			t.Fatalf("leases = %+v, %+v; want a lease, then wait", last, tail)
		}
		var sub SubmitReply
		postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "last", LeaseID: last.LeaseID,
			Campaign: last.Campaign, Cell: last.Cell, Result: fakeResult(specs[0])}, &sub)
		if sub.Status != StatusAccepted || !sub.CampaignDone {
			t.Fatalf("final submit = %+v, want accepted with campaign done", sub)
		}
		if ttl == time.Minute {
			select {
			case err := <-drained:
				t.Fatalf("Drain returned (%v) before the tail worker was told", err)
			case <-time.After(100 * time.Millisecond):
			}
			postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "tail"}, &tail)
			if tail.Status != StatusDone {
				t.Fatalf("tail lease after the campaign = %+v, want done", tail)
			}
		}
		// With a minute's TTL only telling the tail worker can end Drain in
		// time; with a second's, the silent tail worker is waited out.
		select {
		case err := <-drained:
			if err != nil {
				t.Fatalf("Drain = %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("Drain (TTL %v) did not return", ttl)
		}
	}
}
