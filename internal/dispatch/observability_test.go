package dispatch

import (
	"bufio"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// eventTypes flattens a slice of events to their type strings.
func eventTypes(evs []telemetry.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = ev.Type
	}
	return out
}

func TestCoordinatorEmitsLifecycleEvents(t *testing.T) {
	specs := protoGrid(1)
	svc, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Second})
	advance := svcClock(svc)
	// As Drain does: once no campaign is live, workers are sent home.
	svc.draining = true
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: specs})

	// Victim leases the cell, heartbeats once, then goes silent past TTL.
	var rep LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "victim"}, &rep)
	if rep.Status != StatusLease {
		t.Fatalf("lease = %+v", rep)
	}
	postJSON(t, srv.URL+PathHeartbeat, &HeartbeatRequest{Worker: "victim",
		LeaseID: rep.LeaseID, Campaign: rep.Campaign}, &HeartbeatReply{})
	// Past the lease TTL and the 3-TTL live window: one sweep expires the
	// lease AND prunes the silent worker.
	advance(4 * time.Second)
	svc.Sweep()

	// Survivor takes over and completes it.
	var rep2 LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "survivor"}, &rep2)
	if rep2.Status != StatusLease || rep2.Cell != rep.Cell {
		t.Fatalf("release = %+v", rep2)
	}
	var got SubmitReply
	postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "survivor", LeaseID: rep2.LeaseID,
		Campaign: rep2.Campaign, Cell: rep2.Cell, Result: fakeResult(specs[0])}, &got)
	if got.Status != StatusAccepted || !got.CampaignDone {
		t.Fatalf("submit = %+v, want accepted and campaign done", got)
	}

	evs := tel.Events.Since(0)
	want := []string{
		telemetry.EventCampaignQueued, // admission
		telemetry.EventCampaignState,  // running
		telemetry.EventWorkerJoin,     // victim
		telemetry.EventCellLeased,     // victim takes cell 0
		telemetry.EventHeartbeat,      // victim's one beat
		telemetry.EventLeaseExpired,   // sweep kills the silent lease
		telemetry.EventCellRetried,    // cell back to pending
		telemetry.EventWorkerLeave,    // victim pruned from the live set
		telemetry.EventWorkerJoin,     // survivor
		telemetry.EventCellLeased,     // survivor takes cell 0
		telemetry.EventCellDone,       // survivor's submit accepted
		telemetry.EventCampaignDone,   // last cell: campaign over
		telemetry.EventCampaignState,  // done
		telemetry.EventWorkerLeave,    // survivor told to go home
	}
	if got := eventTypes(evs); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("event sequence:\n got %v\nwant %v", got, want)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d: %+v", i, ev.Seq, ev)
		}
	}

	// Cell-scoped events carry the spec identity; the retry carries blame.
	if lease := evs[3]; lease.Worker != "victim" || lease.Comp != specs[0].Component ||
		lease.Workload != specs[0].Workload || lease.Faults != specs[0].Faults ||
		lease.Campaign != rep.Campaign {
		t.Fatalf("cell_leased = %+v", lease)
	}
	if exp := evs[5]; exp.Worker != "victim" || exp.Cell != rep.Cell || exp.Lease != rep.LeaseID {
		t.Fatalf("lease_expired = %+v", exp)
	}
	if retry := evs[6]; retry.Retries != 1 {
		t.Fatalf("cell_retried = %+v", retry)
	}
	if done := evs[10]; done.Worker != "survivor" || done.Samples != specs[0].Samples ||
		done.Counts["masked"] != specs[0].Samples {
		t.Fatalf("cell_done = %+v", done)
	}
	if fin := evs[11]; fin.Cells != 1 || fin.Detail != "" {
		t.Fatalf("campaign_done = %+v", fin)
	}
	if n := counter(tel, telemetry.MetricWorkersSeen); n != 2 {
		t.Fatalf("%s = %d, want 2", telemetry.MetricWorkersSeen, n)
	}
}

func TestHeartbeatAndSubmitFederateMetrics(t *testing.T) {
	specs := protoGrid(1)
	_, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: specs})
	var rep LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &rep)

	postJSON(t, srv.URL+PathHeartbeat, &HeartbeatRequest{Worker: "w1", LeaseID: rep.LeaseID,
		Campaign: rep.Campaign, Metrics: []telemetry.WireMetric{
			{Name: `gefin_samples_total{outcome="masked"}`, Kind: telemetry.KindCounter, Value: 2},
		}}, &HeartbeatReply{})
	postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "w1", LeaseID: rep.LeaseID,
		Campaign: rep.Campaign, Cell: rep.Cell, Result: fakeResult(specs[0]),
		Metrics: []telemetry.WireMetric{
			{Name: `gefin_samples_total{outcome="masked"}`, Kind: telemetry.KindCounter, Value: 4},
		}}, &SubmitReply{})

	if got := counter(tel, `gefin_samples_total{outcome="masked",worker="w1"}`); got != 4 {
		t.Fatalf(`per-worker series = %d, want 4`, got)
	}
	if got := counter(tel, `gefin_samples_total{outcome="masked",worker="fleet"}`); got != 4 {
		t.Fatalf(`fleet series = %d, want 4`, got)
	}
	// The federated samples surface in the service's summary exactly once.
	if s := tel.Summarize(); s.Samples != 4 || s.ByOutcome["masked"] != 4 {
		t.Fatalf("federated summary = %+v", s)
	}
}

func TestEventsEndpointStreamsJSONL(t *testing.T) {
	specs := protoGrid(2)
	_, _, srv := newTestService(t, t.TempDir(), ServiceOptions{})
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: specs})
	var rep LeaseReply
	postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: "w1"}, &rep)
	if rep.Status != StatusLease {
		t.Fatalf("lease = %+v", rep)
	}

	fetch := func(query string) []telemetry.Event {
		t.Helper()
		resp, err := http.Get(srv.URL + PathEvents + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", query, resp.StatusCode)
		}
		var evs []telemetry.Event
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if len(sc.Bytes()) == 0 {
				continue
			}
			var ev telemetry.Event
			if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
				t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
			}
			evs = append(evs, ev)
		}
		return evs
	}

	// campaign_queued, campaign_state, then the worker's join and lease.
	evs := fetch("?since=0&wait=1s")
	if len(evs) != 4 || evs[2].Type != telemetry.EventWorkerJoin || evs[3].Type != telemetry.EventCellLeased {
		t.Fatalf("streamed events = %v", eventTypes(evs))
	}

	// The cursor resumes mid-stream.
	if evs := fetch("?since=3&wait=1s"); len(evs) != 1 || evs[0].Seq != 4 {
		t.Fatalf("since=3 events = %+v", evs)
	}

	// A long-poll parked on the tail wakes when the next event lands.
	type res struct{ evs []telemetry.Event }
	ch := make(chan res, 1)
	go func() { ch <- res{fetch("?since=4&wait=10s")} }()
	time.Sleep(50 * time.Millisecond)
	postJSON(t, srv.URL+PathSubmit, &SubmitRequest{Worker: "w1", LeaseID: rep.LeaseID,
		Campaign: rep.Campaign, Cell: rep.Cell, Result: fakeResult(specs[rep.Cell])}, &SubmitReply{})
	select {
	case r := <-ch:
		if len(r.evs) == 0 || r.evs[0].Type != telemetry.EventCellDone {
			t.Fatalf("long-poll woke with %v", eventTypes(r.evs))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll never woke")
	}

	// Bad cursor is a 400, POST a 405.
	if resp, _ := http.Get(srv.URL + PathEvents + "?since=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad since: status %d", resp.StatusCode)
	}
	if resp, _ := http.Post(srv.URL+PathEvents, "application/json", nil); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST events: status %d", resp.StatusCode)
	}
}

func TestEventsEndpointWithoutLogIs404(t *testing.T) {
	svc, err := NewService(t.TempDir(), ServiceOptions{Tel: telemetry.NewCampaign(nil)})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	srv := httptest.NewServer(svc.Mux())
	defer srv.Close()
	resp, err := http.Get(srv.URL + PathEvents)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404", resp.StatusCode)
	}
}

// TestWorkerFederatesThroughRealRun is the federation acceptance path: a
// real worker runs a real cell, and one scrape of the service's registry
// shows the worker's sample counters under its id and the fleet label.
func TestWorkerFederatesThroughRealRun(t *testing.T) {
	specs := []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 4, Seed: 3},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, _, tel, srv, drained := serveOneShot(t, ctx, specs, ServiceOptions{})
	w := &Worker{ID: "wrk", URL: srv.URL, Tel: telemetry.NewCampaign(nil)}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-drained; err != nil {
		t.Fatal(err)
	}

	var workerSeries, fleetSeries int64
	for _, m := range tel.Registry.Snapshot() {
		if !strings.HasPrefix(m.Name, telemetry.MetricSamples+"{") {
			continue
		}
		switch {
		case strings.Contains(m.Name, `worker="wrk"`):
			workerSeries += int64(m.Value)
		case strings.Contains(m.Name, `worker="fleet"`):
			fleetSeries += int64(m.Value)
		}
	}
	if workerSeries != int64(specs[0].Samples) || fleetSeries != int64(specs[0].Samples) {
		t.Fatalf("federated samples: worker=%d fleet=%d, want %d each",
			workerSeries, fleetSeries, specs[0].Samples)
	}
	// The summary folds the fleet view once: 4 samples, not 8.
	if s := tel.Summarize(); s.Samples != int64(specs[0].Samples) {
		t.Fatalf("summary samples = %d, want %d", s.Samples, specs[0].Samples)
	}
}
