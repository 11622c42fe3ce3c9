package dispatch

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"os"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// e2eGrid is a small but real grid: two cells that actually simulate.
func e2eGrid() []core.Spec {
	return []core.Spec{
		{Workload: "stringSearch", Component: core.CompL1D, Faults: 1, Samples: 4, Seed: 3},
		{Workload: "stringSearch", Component: core.CompDTLB, Faults: 2, Samples: 4, Seed: 3},
	}
}

// rawLease grabs a lease over HTTP without ever coming back — the analog
// of a worker SIGKILLed right after leasing.
func rawLease(t *testing.T, url, worker string) *LeaseReply {
	t.Helper()
	body, _ := json.Marshal(&LeaseRequest{Worker: worker})
	resp, err := http.Post(url+PathLease, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var rep LeaseReply
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	return &rep
}

// TestChaosEquivalence is the package's acceptance test: a worker dies
// holding a lease, a second worker completes the campaign after the lease
// expires, and the campaign's final results file is byte-identical
// (canonical Encode) to an uninterrupted single-process run of the same
// grid.
func TestChaosEquivalence(t *testing.T) {
	specs := e2eGrid()

	// Reference: uninterrupted single-process run.
	ref := core.NewResultSet()
	if err := core.RunGrid(context.Background(), specs, 1,
		func(_ int, r *core.Result) { ref.Add(r) }); err != nil {
		t.Fatal(err)
	}
	want, err := ref.Encode()
	if err != nil {
		t.Fatal(err)
	}

	// Distributed: short TTL so the dead worker's lease expires quickly.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	svc, c, tel, srv, drained := serveOneShot(t, ctx, specs, ServiceOptions{LeaseTTL: 300 * time.Millisecond})

	// The victim: leases cell 0 and is never heard from again.
	if rep := rawLease(t, srv.URL, "victim"); rep.Status != StatusLease {
		t.Fatalf("victim lease = %+v", rep)
	}

	// The survivor: a real worker that does everything else, including the
	// victim's cell once its lease expires.
	w := &Worker{ID: "survivor", Client: Client{URL: srv.URL,
		Backoff: Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}}}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("survivor worker: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("service: %v", err)
	}

	got, err := os.ReadFile(svc.resultsPath(c.id))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed ResultSet differs from single-process run:\n got: %s\nwant: %s", got, want)
	}
	if n := counter(tel, telemetry.MetricDispatchExpired); n < 1 {
		t.Fatalf("expected at least one expired lease, got %d", n)
	}
	if n := counter(tel, telemetry.MetricCells); n != int64(len(specs)) {
		t.Fatalf("cells completed counter = %d, want %d", n, len(specs))
	}
}

// TestWorkerDrainAbandonsLease: a cancelled worker hands its in-flight
// cell back to the coordinator instead of letting the TTL expire it, and
// the hand-back does not burn a retry.
func TestWorkerDrainAbandonsLease(t *testing.T) {
	// One big cell the worker cannot possibly finish before we cancel it.
	specs := []core.Spec{{Workload: "stringSearch", Component: core.CompL1D,
		Faults: 1, Samples: 100000, Seed: 3}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, c, _, srv, _ := serveOneShot(t, ctx, specs, ServiceOptions{LeaseTTL: time.Minute})
	coord := c.coord

	w := &Worker{ID: "drainer", Client: Client{URL: srv.URL}}
	done := make(chan error, 1)
	go func() { done <- w.Run(ctx) }()

	// Wait until the worker holds the lease, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for {
		coord.mu.Lock()
		leased := len(coord.leases) == 1
		coord.mu.Unlock()
		if leased {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never leased the cell")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("drained worker returned %v, want context.Canceled", err)
	}

	// The abandon hand-back is synchronous within Run's return, so the
	// cell is already pending again, with no retry charged.
	coord.mu.Lock()
	defer coord.mu.Unlock()
	if coord.state[0] != cellPending {
		t.Fatalf("cell state after drain = %d, want pending", coord.state[0])
	}
	if len(coord.leases) != 0 {
		t.Fatalf("%d leases outstanding after drain, want 0", len(coord.leases))
	}
	if coord.retries[0] != 0 {
		t.Fatalf("drain charged %d retries, want 0", coord.retries[0])
	}
}

// TestWorkerReportsCellFailure: a cell that fails on the worker (here: an
// invalid spec smuggled past Submit) is reported, charged against the
// retry budget, and eventually fails the campaign, which the worker
// observes as a normal done.
func TestWorkerReportsCellFailure(t *testing.T) {
	specs := e2eGrid()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, c, _, srv, drained := serveOneShot(t, ctx, specs,
		ServiceOptions{LeaseTTL: time.Minute, MaxRetries: 1})
	// Sabotage cell 0 after validation: ForceSpanning with 1-bit faults in
	// the default 3x3 cluster can never produce a spanning mask, so every
	// sample errors out — the deterministic poisoned-cell case.
	c.coord.mu.Lock()
	c.coord.specs[0].ForceSpanning = true
	c.coord.mu.Unlock()

	w := &Worker{ID: "w1", Client: Client{URL: srv.URL,
		Backoff: Backoff{Base: 20 * time.Millisecond, Max: 200 * time.Millisecond}}}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("worker should end cleanly on campaign failure, got %v", err)
	}
	if err := <-drained; err == nil || c.coord.Err() == nil {
		t.Fatal("campaign should have failed on the poisoned cell")
	}
}

// TestWorkerGivesUpWhenCoordinatorUnreachable bounds the reconnect loop:
// with nothing listening, Run fails after MaxWait, not forever.
func TestWorkerGivesUpWhenCoordinatorUnreachable(t *testing.T) {
	w := &Worker{ID: "w1", Client: Client{URL: "http://127.0.0.1:1",
		Backoff:    Backoff{Base: 10 * time.Millisecond, Max: 50 * time.Millisecond},
		MaxWait:    250 * time.Millisecond,
		HTTPClient: &http.Client{Timeout: 100 * time.Millisecond},
	}}
	start := time.Now()
	err := w.Run(context.Background())
	if err == nil {
		t.Fatal("worker should give up on an unreachable coordinator")
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("worker took %v to give up", elapsed)
	}
}
