package dispatch

import (
	"context"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// Worker leases cells from a coordinator and runs them through the normal
// core.Run path (checkpoints, telemetry, forensics all apply). It streams
// heartbeats while a cell runs, reconnects with exponential backoff and
// jitter when the coordinator is unreachable, and on cancellation drains
// gracefully: the in-flight cell is abandoned back to the coordinator.
type Worker struct {
	// ID is the worker's stable identity (e.g. host:pid); the coordinator
	// keys heartbeats and the live-worker gauge on it.
	ID string
	// Client reaches the service: its URL, transport and retry policy.
	// Lease and submit retry through it while the service is unreachable,
	// up to its MaxWait; heartbeat and abandon make one attempt each.
	Client Client
	// Tel, when non-nil, records the worker's sample/cell metrics exactly
	// as a local campaign would.
	Tel *telemetry.Campaign
	// OnCell, when non-nil, observes each cell this worker completed and
	// submitted (progress display).
	OnCell func(cell int, spec core.Spec, res *core.Result)
	// Artifacts, when non-nil, brings each leased cell's workload up from a
	// cached or coordinator-served checkpoint artifact before the cell
	// runs, instead of re-deriving the golden reference locally. Failures
	// inside it fall back to local derivation; nil skips the artifact path
	// entirely.
	Artifacts *ArtifactCache

	// delta watches Tel's registry so each heartbeat and submit piggybacks
	// only the series that changed since the last send. Run initializes it;
	// a nil tracker (Tel disabled) sends nothing.
	delta *telemetry.DeltaTracker
}

// errCampaignDone flows from runCell to Run when a submit reply reported
// the campaign over, turning into Run's normal nil return.
var errCampaignDone = fmt.Errorf("dispatch: campaign done")

// Run leases and executes cells until the coordinator reports the campaign
// done (returns nil), ctx is cancelled (returns ctx.Err() after abandoning
// any held lease), or the coordinator stays unreachable past Client.MaxWait.
func (w *Worker) Run(ctx context.Context) error {
	if w.Tel != nil && w.delta == nil {
		w.delta = telemetry.NewDeltaTracker(w.Tel.Registry)
	}
	for {
		var rep LeaseReply
		if err := w.Client.do(ctx, http.MethodPost, PathLease, &LeaseRequest{Worker: w.ID}, &rep); err != nil {
			return err
		}
		switch rep.Status {
		case StatusDone:
			return nil
		case StatusWait:
			pause := rep.RetryAfter
			if pause <= 0 {
				pause = 500 * time.Millisecond
			}
			if !sleepCtx(ctx, pause) {
				return ctx.Err()
			}
		case StatusLease:
			switch err := w.runCell(ctx, &rep); err {
			case nil:
			case errCampaignDone:
				return nil
			default:
				return err
			}
		default:
			return fmt.Errorf("dispatch: unexpected lease status %q", rep.Status)
		}
	}
}

// runCell executes one leased cell under a heartbeat, then submits the
// result (or the failure). Losing the lease mid-run cancels the cell: the
// coordinator has already reassigned it and dedup-on-submit makes any
// completed work safe to deliver anyway.
func (w *Worker) runCell(ctx context.Context, l *LeaseReply) error {
	cellCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var lost atomic.Bool
	hbDone := make(chan struct{})
	go func() {
		defer close(hbDone)
		interval := l.TTL / 3
		if interval <= 0 {
			interval = time.Second
		}
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-cellCtx.Done():
				return
			case <-t.C:
				var rep HeartbeatReply
				// One attempt per beat, no backoff: a missed beat is
				// absorbed by the lease TTL (3 beats per TTL), and a dead
				// coordinator is discovered by the next lease/submit.
				err := w.Client.doOnce(cellCtx, http.MethodPost, PathHeartbeat,
					&HeartbeatRequest{Worker: w.ID, LeaseID: l.LeaseID,
						Campaign: l.Campaign, Metrics: w.delta.Delta()}, &rep)
				if err == nil && rep.Status == StatusExpired {
					lost.Store(true)
					cancel()
					return
				}
			}
		}
	}()

	if w.Artifacts != nil {
		// Best-effort: a failed Ensure leaves the workload to derive its
		// golden state locally inside the run below.
		_ = w.Artifacts.Ensure(l.Spec.Workload)
	}

	var res *core.Result
	runErr := core.RunGridWithTelemetry(cellCtx, []core.Spec{l.Spec}, 0,
		func(_ int, r *core.Result) { res = r }, w.Tel)
	cancel()
	<-hbDone

	switch {
	case ctx.Err() != nil:
		// Draining (SIGINT/SIGTERM): hand the unfinished cell straight
		// back so the coordinator reassigns it without waiting for the
		// TTL or burning a retry. Best-effort on a fresh short context —
		// if it fails, lease expiry covers it.
		actx, acancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer acancel()
		var rep AbandonReply
		_ = w.Client.doOnce(actx, http.MethodPost, PathAbandon,
			&AbandonRequest{Worker: w.ID, LeaseID: l.LeaseID, Campaign: l.Campaign}, &rep)
		return ctx.Err()
	case res != nil:
		// Completed — submit even if the lease was lost along the way:
		// the result is deterministic for the spec, so the coordinator
		// accepts it if the cell is still open and dedups it if not.
		var rep SubmitReply
		if err := w.Client.do(ctx, http.MethodPost, PathSubmit, &SubmitRequest{Worker: w.ID,
			LeaseID: l.LeaseID, Campaign: l.Campaign, Cell: l.Cell, Result: res,
			Metrics: w.delta.Delta()}, &rep); err != nil {
			return err
		}
		if w.OnCell != nil {
			w.OnCell(l.Cell, l.Spec, res)
		}
		if rep.CampaignDone {
			// This was the campaign's last cell: exit now rather than race
			// the coordinator's shutdown with another lease request.
			return errCampaignDone
		}
		return nil
	case lost.Load():
		// Lease expired under us and the run was cancelled incomplete:
		// drop it and lease something else.
		return nil
	case runErr != nil:
		// The cell itself failed (panicking sample, simulator error).
		// Report it — the coordinator charges the cell's retry budget —
		// and keep working; if the campaign dies of it, the next lease
		// request returns done and Run exits.
		var rep SubmitReply
		if err := w.Client.do(ctx, http.MethodPost, PathSubmit, &SubmitRequest{Worker: w.ID,
			LeaseID: l.LeaseID, Campaign: l.Campaign, Cell: l.Cell, Err: runErr.Error(),
			Metrics: w.delta.Delta()}, &rep); err != nil {
			return err
		}
		if rep.CampaignDone {
			return errCampaignDone
		}
		return nil
	}
	// RunGrid returned no error and no result: impossible for a one-spec
	// grid, but fail loudly rather than spin.
	return fmt.Errorf("dispatch: cell %d produced neither result nor error", l.Cell)
}

// sleepCtx pauses for d, returning false if ctx was cancelled first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
