// Package dispatch shards campaign grids across processes and machines.
// The campaign Service is the one server: it admits campaigns (over POST
// /campaigns, or in-process for a one-shot `gefin -serve`), journals them,
// and owns the worker fleet. Each campaign's Coordinator is its cell
// ledger: it owns the campaign's canonical core.ResultSet and hands out
// leases on pending cells. Workers lease a cell, run it through the normal
// core.Run path, stream heartbeats and submit the result. Worker death is
// a normal event — a lease whose worker stops heartbeating expires and the
// cell is reassigned, with a bounded per-cell retry budget, and result
// acceptance is idempotent so a slow worker re-delivering a completed cell
// is a no-op. Seeded determinism makes the distributed grid byte-identical
// (canonical ResultSet encoding) to a single-process run of the same spec,
// and resumable/mergeable with one via the same Covers/Pending logic.
//
// The worker protocol is four JSON-over-HTTP POST endpoints, stdlib only.
package dispatch

import (
	"fmt"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// Endpoint paths served by Service.Mux.
const (
	PathLease     = "/dispatch/lease"
	PathHeartbeat = "/dispatch/heartbeat"
	PathSubmit    = "/dispatch/submit"
	PathAbandon   = "/dispatch/abandon"

	// PathArtifact is the checkpoint-artifact endpoint (ArtifactServer):
	// GET PathArtifact + key returns the encoded artifact with that content
	// address, 404 if the coordinator's build would not produce it. It is
	// the one non-JSON, non-POST route — artifacts are binary and the key
	// already says exactly what the bytes must hash to.
	PathArtifact = "/dispatch/artifact/"

	// PathEvents streams the campaign event log: GET PathEvents?since=<seq>
	// long-polls for events with a higher sequence number and returns them
	// as JSONL (one telemetry.Event per line), an empty body on timeout.
	// `gefin -watch` renders it as a live dashboard; any JSONL consumer can
	// tail it.
	PathEvents = "/dispatch/events"

	// PathCampaigns is the campaign-service API root (see Service): POST
	// submits a campaign, GET lists them, and PathCampaigns + "/{id}"
	// answers status, "/{id}/pause|resume|cancel" transitions, and
	// "/{id}/events" streams that campaign's slice of the event log.
	PathCampaigns = "/campaigns"
)

// Reply statuses.
const (
	// StatusLease: the LeaseReply carries a cell to run.
	StatusLease = "lease"
	// StatusWait: every pending cell is leased elsewhere; retry after
	// RetryAfter.
	StatusWait = "wait"
	// StatusDone: a draining (one-shot) service has no live campaign left;
	// the worker should exit.
	StatusDone = "done"
	// StatusOK: heartbeat extended / abandon recorded.
	StatusOK = "ok"
	// StatusExpired: the lease is no longer held by this worker (it
	// expired and may have been reassigned); the worker should stop its
	// cell — though a late submit is still safe, just possibly wasted.
	StatusExpired = "expired"
	// StatusAccepted: the submitted result completed its cell.
	StatusAccepted = "accepted"
	// StatusDuplicate: the cell was already complete; the submission was
	// dropped as a no-op.
	StatusDuplicate = "duplicate"
	// StatusStale: the submission matched no live lease and its spec did
	// not match the cell it named; it was discarded.
	StatusStale = "stale"
)

// LeaseRequest asks the coordinator for one pending cell.
type LeaseRequest struct {
	Worker string // stable worker identity, e.g. host:pid
}

// LeaseReply answers a lease request.
type LeaseReply struct {
	Status  string
	LeaseID uint64    // with StatusLease
	Cell    int       // coordinator's cell index, echoed back on submit
	Spec    core.Spec // the cell to run, verbatim
	// Campaign is the id of the campaign the lease belongs to; workers echo
	// it verbatim on heartbeat/submit/abandon so the service routes them to
	// the right campaign.
	Campaign string `json:",omitempty"`
	// TTL is the lease lifetime: a worker silent (no heartbeat, no
	// submit) for TTL loses the cell. Workers heartbeat at TTL/3.
	TTL time.Duration
	// RetryAfter, with StatusWait, is how long to pause before asking
	// again.
	RetryAfter time.Duration
}

// HeartbeatRequest renews a lease. Metrics piggybacks the worker's
// registry snapshot delta — the series that changed since its last send,
// as absolute values — which the coordinator federates into its own
// /metrics under per-worker and fleet labels (see telemetry.Federator).
type HeartbeatRequest struct {
	Worker   string
	LeaseID  uint64
	Campaign string                 `json:",omitempty"` // echoed from the LeaseReply
	Metrics  []telemetry.WireMetric `json:",omitempty"`
}

// HeartbeatReply is StatusOK or StatusExpired.
type HeartbeatReply struct {
	Status string
}

// SubmitRequest delivers a completed cell — or, with Err set, reports that
// the cell failed on the worker (a panicking sample, a simulator error),
// which counts against the cell's retry budget.
type SubmitRequest struct {
	Worker   string
	LeaseID  uint64
	Campaign string       `json:",omitempty"` // echoed from the LeaseReply
	Cell     int          // cell index from the LeaseReply
	Result   *core.Result // nil when Err is set
	Err      string       // worker-side cell failure, counts as a retry
	// Metrics carries the final registry delta for the cell, so the fleet
	// view is complete even for a worker that never heartbeats again.
	Metrics []telemetry.WireMetric `json:",omitempty"`
}

// SubmitReply is StatusAccepted, StatusDuplicate, StatusStale or (for a
// reported failure) StatusOK.
type SubmitReply struct {
	Status string
	// CampaignDone is set by a draining (one-shot) service once no
	// campaign is live: the worker exits without another lease round-trip.
	// Without it a worker submitting the final cell races the server's
	// shutdown and burns MaxDowntime discovering a closed port.
	CampaignDone bool
}

// AbandonRequest releases a lease without burning a retry: a draining
// worker (SIGINT/SIGTERM) hands its unfinished cell straight back.
type AbandonRequest struct {
	Worker   string
	LeaseID  uint64
	Campaign string `json:",omitempty"` // echoed from the LeaseReply
}

// AbandonReply is StatusOK or StatusExpired.
type AbandonReply struct {
	Status string
}

// APIError is the JSON body of every non-200 reply from the campaign
// service (and the typed 4xx replies of the dispatch endpoints): a stable
// machine-readable code plus a human-readable message. Workers and the
// submit client turn 4xx replies carrying one into a TerminalError instead
// of retrying into their downtime budget.
type APIError struct {
	Code  string `json:"code"`
	Error string `json:"error"`
}

// APIError codes.
const (
	ErrCodeUnknownCampaign  = "unknown_campaign"
	ErrCodeCampaignOver     = "campaign_over"
	ErrCodeBadRequest       = "bad_request"
	ErrCodeQueueFull        = "queue_full"
	ErrCodeTenantCampaigns  = "tenant_campaigns"
	ErrCodeTenantCells      = "tenant_cells"
	ErrCodeInvalidSpec      = "invalid_spec"
	ErrCodeBadTransition    = "bad_transition"
	ErrCodeMethodNotAllowed = "method_not_allowed"
)

// TerminalError is a permanent rejection from the campaign service — a 4xx
// with a reason, not a transient outage. Retrying cannot help (the request
// itself is wrong: unknown campaign, mismatched spec, malformed
// submission), so workers and clients fail fast with exit code 2 instead
// of burning their MaxDowntime budget against a healthy server.
// Service.Submit reports its refusals with this type too, including the
// 429s a client turns into a back-off instead.
type TerminalError struct {
	Path   string // endpoint that rejected the request
	Status int    // HTTP status
	Code   string // APIError code, when the body carried one
	Msg    string // human-readable reason
}

func (e *TerminalError) Error() string {
	if e.Code != "" {
		return fmt.Sprintf("dispatch: %s rejected (%s): %s", e.Path, e.Code, e.Msg)
	}
	return fmt.Sprintf("dispatch: %s rejected (HTTP %d): %s", e.Path, e.Status, e.Msg)
}
