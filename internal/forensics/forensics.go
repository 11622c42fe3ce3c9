// Package forensics tracks the fate of every injected fault bit: the cycle
// a corrupted bit is first read into the datapath, overwritten before being
// read, discarded by a line refill, or escapes to the next memory level in
// a writeback — plus, optionally, the first cycle a lockstep shadow machine
// observes an architectural divergence. The campaign layer turns the
// resulting Report into the `forensics` records of the JSONL trace and the
// masking-mechanism counters of the telemetry registry.
//
// A Tracker is armed at injection time, inside the inject callback, after
// the fault mask has been applied: Attach classifies each flipped bit
// against the concrete target geometry and installs the tracker as the
// target's access probe. The probes model what the hardware actually
// consults per access — a set-associative lookup reads valid+tag of every
// way in the probed set in parallel, a TLB lookup CAM-compares valid+VPN of
// every entry — so a fault that influenced an access is never missed; the
// price is a conservative over-approximation (a metadata bit "read" by a
// compare that happened to produce the right answer still counts as read).
package forensics

import "fmt"

// Mode selects how much forensics a campaign records per sample.
type Mode int

const (
	// ModeOff disables forensics entirely (no tracker is built; component
	// hot paths pay one nil compare per access).
	ModeOff Mode = iota
	// ModeFast arms the component probes only.
	ModeFast
	// ModeFull additionally replays a lockstep shadow machine from the
	// same checkpoint and records the first architectural-divergence
	// cycle. Roughly doubles per-sample cost.
	ModeFull
)

// String returns the flag spelling of the mode.
func (m Mode) String() string {
	switch m {
	case ModeOff:
		return "off"
	case ModeFast:
		return "fast"
	case ModeFull:
		return "full"
	}
	return fmt.Sprintf("Mode(%d)", int(m))
}

// ParseMode parses a -forensics flag value. Accepted spellings: "off",
// "false", "" (off); "fast", "true", "on" (fast); "full".
func ParseMode(s string) (Mode, error) {
	switch s {
	case "off", "false", "":
		return ModeOff, nil
	case "fast", "true", "on":
		return ModeFast, nil
	case "full":
		return ModeFull, nil
	}
	return ModeOff, fmt.Errorf("forensics: unknown mode %q (want off, fast or full)", s)
}

// Fate is the resolved lifecycle of one injected fault mask.
type Fate int

const (
	// FateNeverTouched: no corrupted bit was ever consulted, overwritten
	// or refilled — the fault sat in dead state to the end of the run.
	FateNeverTouched Fate = iota
	// FateOverwritten: every corrupted bit was overwritten by new state
	// (store, TLB insert/invalidate, register write) before being read.
	FateOverwritten
	// FateRefilled: corrupted bits were discarded by a cache line refill
	// (at least one refill-clear, no read, no writeback) — the paper's
	// clean-line masking mechanism.
	FateRefilled
	// FateReadMasked: a corrupted bit entered the datapath but the run
	// still produced golden output (logical masking).
	FateReadMasked
	// FateReadSDC: a corrupted bit entered the datapath and the run left
	// the golden path (SDC, crash, timeout or assert).
	FateReadSDC
	// FateWrittenBack: no corrupted bit was read locally, but a corrupted
	// dirty line escaped to the next memory level — the paper's dirty-line
	// SDC mechanism (latent corruption).
	FateWrittenBack
	// FateDiverged: no component probe fired, yet the lockstep shadow
	// machine observed an architectural divergence (ModeFull only).
	FateDiverged
	// NumFates is the number of fate classes.
	NumFates
)

// Label returns the stable wire name used in trace records and metric
// labels.
func (f Fate) Label() string {
	switch f {
	case FateNeverTouched:
		return "never-touched"
	case FateOverwritten:
		return "overwritten"
	case FateRefilled:
		return "refilled"
	case FateReadMasked:
		return "read-then-masked"
	case FateReadSDC:
		return "read-then-sdc"
	case FateWrittenBack:
		return "written-back"
	case FateDiverged:
		return "diverged"
	}
	return fmt.Sprintf("Fate(%d)", int(f))
}

// Fates returns all fate classes in stable order.
func Fates() []Fate {
	fs := make([]Fate, NumFates)
	for i := range fs {
		fs[i] = Fate(i)
	}
	return fs
}

// BitCell names one flipped bit in the target's injectable geometry.
type BitCell struct {
	Row, Col int
}

// Report is the resolved fate of one injection sample.
type Report struct {
	Fate Fate
	// FirstTouchLat is the number of cycles between injection and the
	// first event involving a corrupted bit (read, overwrite, refill or
	// writeback); -1 if nothing ever touched one.
	FirstTouchLat int64
	// DivergeCycle is the absolute cycle of the first architectural
	// divergence seen by the shadow machine; 0 = none observed (or
	// ModeFast).
	DivergeCycle uint64
}

type trCell struct {
	idx    int // cell index in the target's Geometry
	read   uint64
	wb     uint64
	clear  uint64
	refill bool // clear came from a line refill
}

// Tracker follows the corrupted bits of a single injection. It is a Sink
// over the target's event stream; Attach installs it. Not safe for
// concurrent use — each sample owns its own tracker, like its own machine.
type Tracker struct {
	now        func() uint64
	armCycle   uint64
	cells      []trCell
	firstRead  uint64
	firstWB    uint64
	firstTouch uint64
	diverge    uint64
	detach     func() // removes the probe Attach installed
}

// NewTracker returns a tracker reading the current cycle from now
// (typically machine.Core.Cycles).
func NewTracker(now func() uint64) *Tracker {
	return &Tracker{now: now}
}

// Attach maps the flipped bits onto the target's cells and installs the
// tracker on the target's event stream. Call it inside the injection
// callback, after the mask has been applied. It returns an error for
// target types it does not know.
func (t *Tracker) Attach(target any, mask []BitCell) error {
	t.armCycle = t.now()
	g, detach, err := Listen(target, t)
	if err != nil {
		return err
	}
	for _, mc := range mask {
		t.cells = append(t.cells, trCell{idx: g.Cell(mc.Row, mc.Col)})
	}
	t.detach = detach
	return nil
}

// Detach removes the probe Attach installed, returning the target to its
// unprobed fast path. Campaigns that reuse one machine across samples must
// detach each sample's tracker before rewinding the machine for the next —
// probes are wiring, not snapshot state, so a restore does not remove them.
// Detach is idempotent and a no-op on a never-attached tracker.
func (t *Tracker) Detach() {
	if t.detach != nil {
		t.detach()
		t.detach = nil
	}
}

// OnCells implements Sink. It checks only the tracked cells against the
// range, so an event costs O(mask bits) however many cells it spans.
func (t *Tracker) OnCells(k EventKind, lo, hi int) {
	for i := range t.cells {
		c := &t.cells[i]
		if c.idx < lo || c.idx >= hi {
			continue
		}
		switch k {
		case Read:
			t.markRead(c)
		case Writeback:
			t.markWB(c)
		default:
			t.markClear(c, k == Refill)
		}
	}
}

// tick returns the current cycle, clamped to 1 so it can never alias the
// zero "never happened" sentinel.
func (t *Tracker) tick() uint64 {
	cyc := t.now()
	if cyc == 0 {
		cyc = 1
	}
	return cyc
}

func (t *Tracker) markRead(c *trCell) {
	if c.read != 0 || c.clear != 0 {
		return
	}
	cyc := t.tick()
	c.read = cyc
	if t.firstRead == 0 {
		t.firstRead = cyc
	}
	if t.firstTouch == 0 {
		t.firstTouch = cyc
	}
}

func (t *Tracker) markWB(c *trCell) {
	if c.wb != 0 || c.clear != 0 {
		return
	}
	cyc := t.tick()
	c.wb = cyc
	if t.firstWB == 0 {
		t.firstWB = cyc
	}
	if t.firstTouch == 0 {
		t.firstTouch = cyc
	}
}

func (t *Tracker) markClear(c *trCell, refill bool) {
	if c.clear != 0 {
		return
	}
	cyc := t.tick()
	c.clear = cyc
	c.refill = refill
	if t.firstTouch == 0 {
		t.firstTouch = cyc
	}
}

// --- shadow divergence ---

// Diverged reports whether a divergence has already been recorded (lets
// the run loop stop comparing digests once it has its answer).
func (t *Tracker) Diverged() bool { return t.diverge != 0 }

// MarkDiverged records the first architectural-divergence cycle.
func (t *Tracker) MarkDiverged() {
	if t.diverge == 0 {
		t.diverge = t.tick()
	}
}

// Resolve folds the recorded events and the run's classification into a
// fate. benign is true when the run was classified Masked. Priority: the
// earliest of read/writeback decides (tie goes to read); then an observed
// shadow divergence; then a refill or overwrite of at least one corrupted
// bit (cells that were never cleared sat as dead, naturally-masked state);
// never-touched is reserved for samples with no event at all, so
// FirstTouchLat is -1 exactly for never-touched reports.
func (t *Tracker) Resolve(benign bool) Report {
	r := Report{FirstTouchLat: -1, DivergeCycle: t.diverge}
	if t.firstTouch != 0 && t.firstTouch >= t.armCycle {
		r.FirstTouchLat = int64(t.firstTouch - t.armCycle)
	} else if t.firstTouch != 0 {
		r.FirstTouchLat = 0
	}
	switch {
	case t.firstRead != 0 && (t.firstWB == 0 || t.firstRead <= t.firstWB):
		if benign {
			r.Fate = FateReadMasked
		} else {
			r.Fate = FateReadSDC
		}
	case t.firstWB != 0:
		r.Fate = FateWrittenBack
	case t.diverge != 0:
		r.Fate = FateDiverged
	case t.anyRefill():
		r.Fate = FateRefilled
	case t.anyCleared():
		r.Fate = FateOverwritten
	default:
		r.Fate = FateNeverTouched
	}
	return r
}

func (t *Tracker) anyCleared() bool {
	for i := range t.cells {
		if t.cells[i].clear != 0 {
			return true
		}
	}
	return false
}

func (t *Tracker) anyRefill() bool {
	for i := range t.cells {
		if t.cells[i].refill {
			return true
		}
	}
	return false
}
