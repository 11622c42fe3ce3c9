package dispatch

import (
	"strings"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// protoGrid returns a small real grid (validated by New) without needing
// to simulate anything: protocol tests fabricate matching Results by hand.
func protoGrid(n int) []core.Spec {
	specs := make([]core.Spec, n)
	for i := range specs {
		specs[i] = core.Spec{
			Workload: "stringSearch", Component: core.CompL1D,
			Faults: 1 + i%3, Samples: 4, Seed: 7,
		}
	}
	return specs
}

// fakeResult fabricates a Result that answers spec, the way protocol tests
// stand in for a real core.Run.
func fakeResult(spec core.Spec) *core.Result {
	r := &core.Result{Spec: spec, GoldenCycles: 1000, TargetBits: 4096}
	r.Counts[core.EffectMasked] = spec.Samples
	return r
}

// clockFor installs a manual clock on the coordinator and returns the
// advance function.
func clockFor(c *Coordinator) func(d time.Duration) {
	now := time.Unix(1_700_000_000, 0)
	c.now = func() time.Time { return now }
	return func(d time.Duration) { now = now.Add(d) }
}

func counter(tel *telemetry.Campaign, name string) int64 {
	return tel.Registry.Counter(name).Value()
}

func TestLeaseExpiryReassignsCell(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	specs := protoGrid(1)
	c, err := New(specs, nil, Options{LeaseTTL: time.Minute, Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	advance := clockFor(c)

	l1 := c.lease(&LeaseRequest{Worker: "w1"})
	if l1.Status != StatusLease || l1.Cell != 0 {
		t.Fatalf("w1 lease = %+v", l1)
	}
	if l1.TTL != time.Minute {
		t.Fatalf("lease TTL = %v, want 1m", l1.TTL)
	}
	// The only cell is leased: a second worker waits.
	if rep := c.lease(&LeaseRequest{Worker: "w2"}); rep.Status != StatusWait || rep.RetryAfter <= 0 {
		t.Fatalf("w2 lease while leased = %+v", rep)
	}

	// w1 dies silently. Past the TTL the sweep reclaims the cell.
	advance(61 * time.Second)
	c.Sweep()
	if got := counter(tel, telemetry.MetricDispatchExpired); got != 1 {
		t.Fatalf("expired counter = %d, want 1", got)
	}
	if got := counter(tel, telemetry.MetricDispatchRetried); got != 1 {
		t.Fatalf("retried counter = %d, want 1", got)
	}

	// w1's old lease is gone.
	if rep := c.heartbeat(&HeartbeatRequest{Worker: "w1", LeaseID: l1.LeaseID}); rep.Status != StatusExpired {
		t.Fatalf("heartbeat on expired lease = %+v", rep)
	}

	// w2 now gets the same cell.
	l2 := c.lease(&LeaseRequest{Worker: "w2"})
	if l2.Status != StatusLease || l2.Cell != 0 || l2.LeaseID == l1.LeaseID {
		t.Fatalf("reassigned lease = %+v", l2)
	}
	if rep := c.submit(&SubmitRequest{Worker: "w2", LeaseID: l2.LeaseID,
		Cell: 0, Result: fakeResult(specs[0])}); rep.Status != StatusAccepted {
		t.Fatalf("w2 submit = %+v", rep)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign not done after last cell")
	}
	if err := c.Err(); err != nil {
		t.Fatalf("terminal error = %v", err)
	}

	// The slow original worker re-delivers: idempotent no-op.
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: l1.LeaseID,
		Cell: 0, Result: fakeResult(specs[0])}); rep.Status != StatusDuplicate {
		t.Fatalf("late duplicate submit = %+v", rep)
	}
	if got := counter(tel, telemetry.MetricDispatchDeduped); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
	if got := c.rs.Cells[core.CellKey{Component: "L1D", Workload: "stringSearch", Faults: 1}]; got == nil {
		t.Fatal("result missing from canonical set")
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	c, err := New(protoGrid(1), nil, Options{LeaseTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	advance := clockFor(c)
	l := c.lease(&LeaseRequest{Worker: "w1"})
	advance(50 * time.Second)
	if rep := c.heartbeat(&HeartbeatRequest{Worker: "w1", LeaseID: l.LeaseID}); rep.Status != StatusOK {
		t.Fatalf("heartbeat = %+v", rep)
	}
	// 50s after the beat (100s after the lease): still live.
	advance(50 * time.Second)
	c.Sweep()
	if rep := c.lease(&LeaseRequest{Worker: "w2"}); rep.Status != StatusWait {
		t.Fatalf("cell reclaimed despite heartbeats: %+v", rep)
	}
	// A heartbeat from the wrong worker does not renew.
	if rep := c.heartbeat(&HeartbeatRequest{Worker: "w2", LeaseID: l.LeaseID}); rep.Status != StatusExpired {
		t.Fatalf("foreign heartbeat = %+v", rep)
	}
}

func TestDuplicateSubmitFiresOnCellOnce(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	specs := protoGrid(1)
	fired := 0
	c, err := New(specs, nil, Options{Tel: tel,
		OnCell: func(cell int, res *core.Result) { fired++ }})
	if err != nil {
		t.Fatal(err)
	}
	l := c.lease(&LeaseRequest{Worker: "w1"})
	req := &SubmitRequest{Worker: "w1", LeaseID: l.LeaseID, Cell: 0, Result: fakeResult(specs[0])}
	if rep := c.submit(req); rep.Status != StatusAccepted {
		t.Fatalf("first submit = %+v", rep)
	}
	if rep := c.submit(req); rep.Status != StatusDuplicate {
		t.Fatalf("second submit = %+v", rep)
	}
	if fired != 1 {
		t.Fatalf("OnCell fired %d times, want 1", fired)
	}
	if got := counter(tel, telemetry.MetricDispatchDeduped); got != 1 {
		t.Fatalf("dedup counter = %d, want 1", got)
	}
}

func TestRetryBudgetExhaustionFailsCampaign(t *testing.T) {
	specs := protoGrid(2)
	c, err := New(specs, nil, Options{MaxRetries: 2})
	if err != nil {
		t.Fatal(err)
	}
	// The same cell fails on a worker three times: two retries allowed,
	// the third failure kills the campaign naming the cell and the error.
	for i := 0; i < 3; i++ {
		l := c.lease(&LeaseRequest{Worker: "w1"})
		if l.Status != StatusLease || l.Cell != 0 {
			t.Fatalf("attempt %d lease = %+v", i, l)
		}
		c.submit(&SubmitRequest{Worker: "w1", LeaseID: l.LeaseID, Cell: l.Cell,
			Err: "sample 3 panicked: boom"})
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("campaign still running after budget exhaustion")
	}
	err = c.Err()
	if err == nil || !strings.Contains(err.Error(), "L1D/stringSearch/1-bit") ||
		!strings.Contains(err.Error(), "boom") {
		t.Fatalf("terminal error = %v, want cell name and last worker error", err)
	}
	// A failed campaign hands out no more work, not even its untouched cell.
	if rep := c.lease(&LeaseRequest{Worker: "w2"}); rep.Status != StatusWait {
		t.Fatalf("lease after failure = %+v", rep)
	}
}

func TestCoordinatorResumesFromResultSet(t *testing.T) {
	specs := protoGrid(2)
	rs := core.NewResultSet()
	rs.Add(fakeResult(specs[0]))
	c, err := New(specs, rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Cells-st.Done != 1 {
		t.Fatalf("Stats = %+v, want 1 cell remaining (one cell covered)", st)
	}
	l := c.lease(&LeaseRequest{Worker: "w1"})
	if l.Status != StatusLease || l.Cell != 1 {
		t.Fatalf("resumed lease = %+v, want cell 1", l)
	}
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: l.LeaseID,
		Cell: 1, Result: fakeResult(specs[1])}); rep.Status != StatusAccepted {
		t.Fatalf("submit = %+v", rep)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("resumed campaign not done")
	}

	// A coordinator restarted over the completed set has nothing to do.
	c2, err := New(specs, c.rs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("fully-covered coordinator should start done")
	}
	if rep := c2.lease(&LeaseRequest{Worker: "w1"}); rep.Status != StatusWait {
		t.Fatalf("lease on complete campaign = %+v", rep)
	}
}

func TestStaleSubmitDiscarded(t *testing.T) {
	specs := protoGrid(1)
	c, err := New(specs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// No lease, and the result's spec does not match the named cell.
	wrong := specs[0]
	wrong.Seed = 999
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: 42, Cell: 0,
		Result: fakeResult(wrong)}); rep.Status != StatusStale {
		t.Fatalf("mismatched submit = %+v", rep)
	}
	// Out-of-range cell index.
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: 42, Cell: 7,
		Result: fakeResult(specs[0])}); rep.Status != StatusStale {
		t.Fatalf("out-of-range submit = %+v", rep)
	}
	// But a lease-less submit whose spec matches the cell IS accepted:
	// that is the expired-lease redelivery path.
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: 42, Cell: 0,
		Result: fakeResult(specs[0])}); rep.Status != StatusAccepted {
		t.Fatalf("valid lease-less submit = %+v", rep)
	}
}

// TestInconsistentSubmitDiscarded: a result whose spec answers the cell but
// whose counts are negative or do not sum to the cell's sample count is
// answered StatusStale and kept out of the canonical result set.
func TestInconsistentSubmitDiscarded(t *testing.T) {
	specs := protoGrid(1)
	c, err := New(specs, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	short := fakeResult(specs[0])
	short.Counts[core.EffectMasked]--
	negative := fakeResult(specs[0])
	negative.Counts[core.EffectMasked]++
	negative.Counts[core.EffectSDC] = -1
	for name, r := range map[string]*core.Result{"short": short, "negative": negative} {
		rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: 42, Cell: 0, Result: r})
		if rep.Status != StatusStale {
			t.Fatalf("%s counts: submit = %+v, want %s", name, rep, StatusStale)
		}
		if len(c.rs.Cells) != 0 {
			t.Fatalf("%s counts landed in the result set", name)
		}
	}
	if rep := c.submit(&SubmitRequest{Worker: "w1", LeaseID: 42, Cell: 0,
		Result: fakeResult(specs[0])}); rep.Status != StatusAccepted {
		t.Fatalf("consistent submit after the rejected ones = %+v", rep)
	}
}

func TestAbandonRequeuesWithoutRetry(t *testing.T) {
	tel := telemetry.NewCampaign(nil)
	c, err := New(protoGrid(1), nil, Options{Tel: tel})
	if err != nil {
		t.Fatal(err)
	}
	l := c.lease(&LeaseRequest{Worker: "w1"})
	if rep := c.abandon(&AbandonRequest{Worker: "w1", LeaseID: l.LeaseID}); rep.Status != StatusOK {
		t.Fatalf("abandon = %+v", rep)
	}
	if got := counter(tel, telemetry.MetricDispatchRetried); got != 0 {
		t.Fatalf("graceful abandon burned a retry (counter=%d)", got)
	}
	// The cell is immediately leasable again.
	if rep := c.lease(&LeaseRequest{Worker: "w2"}); rep.Status != StatusLease || rep.Cell != 0 {
		t.Fatalf("lease after abandon = %+v", rep)
	}
	if c.retries[0] != 0 {
		t.Fatalf("retries[0] = %d, want 0", c.retries[0])
	}
}

func TestLiveWorkerGaugeTracksContact(t *testing.T) {
	svc, tel, srv := newTestService(t, t.TempDir(), ServiceOptions{LeaseTTL: time.Minute})
	advance := svcClock(svc)
	submitRaw(t, srv.URL, &SubmitCampaignRequest{Specs: protoGrid(3)})
	for _, w := range []string{"w1", "w2"} {
		var rep LeaseReply
		postJSON(t, srv.URL+PathLease, &LeaseRequest{Worker: w}, &rep)
	}
	if got := tel.Registry.Gauge(telemetry.MetricDispatchWorkers).Value(); got != 2 {
		t.Fatalf("live workers = %d, want 2", got)
	}
	if got := tel.Registry.Gauge(telemetry.MetricDispatchLeased).Value(); got != 2 {
		t.Fatalf("leased cells = %d, want 2", got)
	}
	// Both go silent: past the live window they drop off the gauge (and
	// their cells are reclaimed).
	advance(4 * time.Minute)
	svc.Sweep()
	if got := tel.Registry.Gauge(telemetry.MetricDispatchWorkers).Value(); got != 0 {
		t.Fatalf("live workers after silence = %d, want 0", got)
	}
	if got := tel.Registry.Gauge(telemetry.MetricDispatchLeased).Value(); got != 0 {
		t.Fatalf("leased cells after silence = %d, want 0", got)
	}
}
