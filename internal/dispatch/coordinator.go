package dispatch

import (
	"fmt"
	"sync"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// Options tunes a Coordinator. The zero value means the defaults below.
type Options struct {
	// LeaseTTL is how long a worker may go silent before its cell is
	// reassigned. Workers heartbeat at TTL/3. Default 15s.
	LeaseTTL time.Duration
	// MaxRetries bounds how many times one cell may be handed back to the
	// pending queue (lease expiry or worker-reported failure) before the
	// campaign fails naming that cell. Default 5.
	MaxRetries int
	// Tel, when non-nil, receives the dispatch counters, the
	// completed-cells counter and the cell events.
	Tel *telemetry.Campaign
	// OnCell, when non-nil, observes each newly completed cell.
	// Invocations are serialized (callers may flush shared state without
	// locking) and happen exactly once per cell — a deduplicated
	// resubmission does not re-fire it.
	OnCell func(cell int, res *core.Result)
	// Campaign labels every event this coordinator emits with its campaign
	// id, so the service's shared event log stays attributable per campaign.
	Campaign string
}

const (
	defaultLeaseTTL   = 15 * time.Second
	defaultMaxRetries = 5
	// workerLiveWindow, in lease TTLs, is how long a worker counts as live
	// after its last contact.
	workerLiveWindow = 3
)

type cellState int

const (
	cellPending cellState = iota
	cellLeased
	cellDone
)

type lease struct {
	id       uint64
	cell     int
	worker   string
	deadline time.Time
}

// Coordinator is one campaign's cell ledger: it owns the campaign's
// canonical ResultSet and hands out leases on its pending cells. The
// Service in front of it owns the HTTP surface and the worker fleet. All
// state transitions happen under one mutex.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	specs    []core.Spec
	rs       *core.ResultSet
	state    []cellState
	retries  []int
	lastErr  []string // last worker-reported failure per cell
	leases   map[uint64]*lease
	nextID   uint64
	pending  int // cells not yet done
	failErr  error
	finished sync.Once
	done     chan struct{}

	// now is the coordinator's clock, swappable so tests drive lease
	// expiry deterministically without sleeping.
	now func() time.Time
}

// New builds a coordinator for the grid. rs is the canonical result set —
// pre-load it from a results file to resume: every cell it already Covers
// is marked done and never handed out, exactly like single-process
// -resume. New validates every spec up front.
func New(specs []core.Spec, rs *core.ResultSet, opts Options) (*Coordinator, error) {
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = defaultLeaseTTL
	}
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = defaultMaxRetries
	}
	if rs == nil {
		rs = core.NewResultSet()
	}
	c := &Coordinator{
		opts:    opts,
		specs:   specs,
		rs:      rs,
		state:   make([]cellState, len(specs)),
		retries: make([]int, len(specs)),
		lastErr: make([]string, len(specs)),
		leases:  make(map[uint64]*lease),
		done:    make(chan struct{}),
		now:     time.Now,
	}
	for i, s := range specs {
		if rs.Covers(s) {
			c.state[i] = cellDone
		} else {
			c.pending++
		}
	}
	if c.pending == 0 {
		c.finish(nil)
	}
	return c, nil
}

// Done is closed when the campaign completes or fails; Err then reports
// the terminal error (nil on success).
func (c *Coordinator) Done() <-chan struct{} { return c.done }

// Err returns the terminal campaign error, if any.
func (c *Coordinator) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.failErr
}

// emit appends one event to the campaign event log, when one is attached.
func (c *Coordinator) emit(ev telemetry.Event) { c.opts.Tel.Emit(ev) }

// cellEvent builds an event pre-filled with a cell's identity.
func (c *Coordinator) cellEvent(typ string, cell int) telemetry.Event {
	s := c.specs[cell]
	return telemetry.Event{Type: typ, Cell: cell, Campaign: c.opts.Campaign,
		Comp: s.Component, Workload: s.Workload, Faults: s.Faults}
}

// finish closes done exactly once. Callers hold mu (or are in New).
func (c *Coordinator) finish(err error) {
	if err != nil && c.failErr == nil {
		c.failErr = err
	}
	c.finished.Do(func() {
		ev := telemetry.Event{Type: telemetry.EventCampaignDone, Cell: -1,
			Campaign: c.opts.Campaign, Cells: len(c.specs) - c.pending}
		if c.failErr != nil {
			ev.Detail = c.failErr.Error()
		}
		c.emit(ev)
		close(c.done)
	})
}

// Sweep expires every lease whose worker has gone silent past the TTL,
// returning expired cells to the pending queue (burning one retry each).
// The Service sweeps every TTL/4; lease requests sweep opportunistically
// so a single-threaded test can drive expiry by advancing the clock.
func (c *Coordinator) Sweep() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
}

func (c *Coordinator) sweepLocked() {
	now := c.now()
	for id, l := range c.leases {
		if now.After(l.deadline) {
			delete(c.leases, id)
			c.opts.Tel.DispatchLeaseExpired()
			ev := c.cellEvent(telemetry.EventLeaseExpired, l.cell)
			ev.Worker = l.worker
			ev.Lease = id
			ev.Detail = "worker went silent past TTL"
			c.emit(ev)
			c.requeueLocked(l.cell, fmt.Sprintf("lease %d on worker %s expired", id, l.worker))
		}
	}
}

// Release returns every leased cell to the pending queue WITHOUT charging
// a retry — the campaign-service pause/cancel drain: the work was
// interrupted by policy, not lost to a fault, so the retry budget stays
// intact. The released leases vanish, which the holding workers discover
// as StatusExpired on their next heartbeat and answer by cancelling the
// cell mid-run (the same path as a reassigned lease).
func (c *Coordinator) Release() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for id, l := range c.leases {
		delete(c.leases, id)
		if c.state[l.cell] == cellLeased {
			c.state[l.cell] = cellPending
		}
	}
}

// Stats is a point-in-time snapshot of one coordinator's progress for the
// campaign-service status API.
type Stats struct {
	Cells   int    // grid size
	Done    int    // cells complete
	Leased  int    // cells currently out on lease
	Retries int    // retry charges across all cells so far
	Err     string // terminal error, when failed
}

// Stats snapshots the coordinator's progress counters.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := Stats{Cells: len(c.specs), Done: len(c.specs) - c.pending, Leased: len(c.leases)}
	for _, r := range c.retries {
		s.Retries += r
	}
	if c.failErr != nil {
		s.Err = c.failErr.Error()
	}
	return s
}

// requeueLocked puts a leased cell back in the pending queue, charging one
// retry; a cell over budget fails the whole campaign (deterministic specs
// mean the next attempt would fail the same way — better to stop and name
// the cell than to churn forever).
func (c *Coordinator) requeueLocked(cell int, why string) {
	if c.state[cell] != cellLeased {
		return
	}
	c.state[cell] = cellPending
	c.retries[cell]++
	c.opts.Tel.DispatchCellRetried()
	ev := c.cellEvent(telemetry.EventCellRetried, cell)
	ev.Retries = c.retries[cell]
	ev.Detail = why
	c.emit(ev)
	if c.retries[cell] > c.opts.MaxRetries {
		s := c.specs[cell]
		err := fmt.Errorf("dispatch: cell %s/%s/%d-bit exceeded %d retries (last: %s)",
			s.Component, s.Workload, s.Faults, c.opts.MaxRetries, why)
		if c.lastErr[cell] != "" {
			err = fmt.Errorf("%w; last worker error: %s", err, c.lastErr[cell])
		}
		c.finish(err)
	}
}

// lease hands the worker the first pending cell, or StatusWait when none is
// free: every pending cell is leased elsewhere (the campaign tail), or the
// campaign is over.
func (c *Coordinator) lease(req *LeaseRequest) *LeaseReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.sweepLocked()
	// Retry at the sweep cadence so a freed cell is picked up promptly.
	wait := &LeaseReply{Status: StatusWait, RetryAfter: c.opts.LeaseTTL / 4}
	if c.failErr != nil {
		return wait
	}
	for i, st := range c.state {
		if st != cellPending {
			continue
		}
		c.nextID++
		l := &lease{id: c.nextID, cell: i, worker: req.Worker,
			deadline: c.now().Add(c.opts.LeaseTTL)}
		c.leases[l.id] = l
		c.state[i] = cellLeased
		ev := c.cellEvent(telemetry.EventCellLeased, i)
		ev.Worker = req.Worker
		ev.Lease = l.id
		if c.retries[i] > 0 {
			ev.Retries = c.retries[i]
		}
		c.emit(ev)
		return &LeaseReply{Status: StatusLease, LeaseID: l.id, Cell: i,
			Spec: c.specs[i], TTL: c.opts.LeaseTTL, Campaign: c.opts.Campaign}
	}
	return wait
}

func (c *Coordinator) heartbeat(req *HeartbeatRequest) *HeartbeatReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		return &HeartbeatReply{Status: StatusExpired}
	}
	l.deadline = c.now().Add(c.opts.LeaseTTL)
	ev := c.cellEvent(telemetry.EventHeartbeat, l.cell)
	ev.Worker = req.Worker
	ev.Lease = req.LeaseID
	c.emit(ev)
	return &HeartbeatReply{Status: StatusOK}
}

func (c *Coordinator) abandon(req *AbandonRequest) *AbandonReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	l, ok := c.leases[req.LeaseID]
	if !ok || l.worker != req.Worker {
		return &AbandonReply{Status: StatusExpired}
	}
	// A graceful abandon (draining worker) does not burn a retry: the cell
	// goes straight back to pending without blame.
	delete(c.leases, req.LeaseID)
	if c.state[l.cell] == cellLeased {
		c.state[l.cell] = cellPending
	}
	return &AbandonReply{Status: StatusOK}
}

func (c *Coordinator) submit(req *SubmitRequest) *SubmitReply {
	c.mu.Lock()
	defer c.mu.Unlock()
	// Resolve the cell: through the live lease when it still exists,
	// otherwise through the echoed cell index (the expired-lease case).
	cell := -1
	if l, ok := c.leases[req.LeaseID]; ok && l.worker == req.Worker {
		cell = l.cell
		delete(c.leases, req.LeaseID)
	} else if req.Cell >= 0 && req.Cell < len(c.specs) {
		cell = req.Cell
	}
	if cell < 0 {
		return &SubmitReply{Status: StatusStale}
	}

	if req.Err != "" {
		// Worker-side cell failure: requeue, charging a retry — a no-op when
		// the lease already expired and the sweep requeued it.
		c.lastErr[cell] = fmt.Sprintf("%s: %s", req.Worker, req.Err)
		c.requeueLocked(cell, "worker "+req.Worker+" reported failure")
		return &SubmitReply{Status: StatusOK}
	}

	if req.Result == nil {
		return &SubmitReply{Status: StatusStale}
	}
	if c.state[cell] == cellDone {
		// A slow worker re-delivering a cell that was reassigned and
		// completed elsewhere: idempotent no-op.
		c.opts.Tel.DispatchSubmitDeduped()
		return &SubmitReply{Status: StatusDuplicate}
	}
	// Verify the result actually answers this cell's spec, on the same
	// identity the resume logic uses (core.Spec.Equivalent): every
	// outcome-affecting field must match after normalization, so a worker
	// running a stale grid — same cell key but a different cluster
	// geometry, timeout, spanning mode or protection — is discarded
	// instead of poisoning the result set. A strict struct compare would
	// be wrong here: core.Run fills in zero Cluster/TimeoutFactor defaults
	// before recording the spec in the result.
	if !req.Result.Spec.Equivalent(c.specs[cell]) {
		// A confused or restarted-with-a-different-grid worker. Discard.
		return &SubmitReply{Status: StatusStale}
	}
	// Accept: even with no live lease the work is valid, because the spec
	// (and its seed) fully determines the result. Drop any newer lease
	// another worker holds on the same cell; its eventual submission will
	// dedup.
	for id, l := range c.leases {
		if l.cell == cell {
			delete(c.leases, id)
		}
	}
	c.rs.Add(req.Result)
	c.state[cell] = cellDone
	c.pending--
	c.opts.Tel.FlushCell(nil, nil) // completed-cells counter
	ev := c.cellEvent(telemetry.EventCellDone, cell)
	ev.Worker = req.Worker
	ev.Lease = req.LeaseID
	ev.Samples = req.Result.Samples()
	ev.Counts = make(map[string]int)
	for _, e := range core.Effects() {
		if n := req.Result.Counts[e]; n > 0 {
			ev.Counts[e.Label()] = n
		}
	}
	c.emit(ev)
	if c.opts.OnCell != nil {
		c.opts.OnCell(cell, req.Result)
	}
	if c.pending == 0 {
		c.finish(nil)
	}
	return &SubmitReply{Status: StatusAccepted}
}
