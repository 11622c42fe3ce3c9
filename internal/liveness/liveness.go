// Package liveness profiles the microarchitectural liveness of the six
// injectable structures over one fault-free golden run: which bits hold
// live (ACE) state when, how long written values sit before their first
// consume, and how occupancy evolves over the run.
//
// The profiler is a second reducer over the event stream of
// internal/forensics (forensics.Listen): where the fault tracker watches
// the cells of one injected mask, the profiler tracks *every* cell of the
// structure's forensics.Geometry, each carrying its current write ("def")
// cycle, first/last consume cycles and last-touch cycle. Reads and
// writebacks consume a cell; writes and refills define it. The analytical
// model and the measured fault fates therefore describe the same hardware
// events by construction. Two summaries fall out:
//
//   - ACE bit-cycles: for each generation of a cell (write..last read),
//     the interval during which a flipped bit would have been consumed.
//     AVF_analytical = ACE bit-cycles / (total bits x run cycles), the
//     classic Mukherjee-style ACE bound.
//   - Never-touched bit-cycles: for each cell, the tail of the run after
//     its last event of any kind. A fault injected uniformly in time lands
//     in dead state with probability never-bit-cycles / total bit-cycles,
//     which must agree with the forensics `never-touched` fate fraction.
//
// A golden run under the profiler is deterministic, so the resulting
// Profile artifact (see profile.go) is byte-identical across runs and
// hosts.
package liveness

import (
	"math/bits"

	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/forensics"
	"mbusim/internal/sim"
	"mbusim/internal/tlb"
)

// LifeBuckets is the number of log2 lifetime-histogram buckets per bit
// class: bucket 0 counts same-cycle consumes, bucket b counts first-consume
// latencies in [2^(b-1), 2^b). 40 buckets cover any run the simulator can
// count.
const LifeBuckets = 40

// lifeBucket maps a write-to-first-consume latency to its histogram bucket.
func lifeBucket(d uint64) int {
	b := bits.Len64(d)
	if b >= LifeBuckets {
		b = LifeBuckets - 1
	}
	return b
}

// cell is one tracked cell of the structure's forensics.Geometry: data is
// tracked per byte, metadata per field — the same cells the forensics
// tracker maps an injected mask onto.
type cell struct {
	class uint16 // index into the component's class table
	width uint16 // bits this cell stands for
	// Cycle marks, clamped to >= 1 so 0 means "never": the current
	// generation's write cycle, its first and last consume cycles, and the
	// last event of any kind (consume or overwrite).
	def       uint64
	firstUse  uint64
	lastUse   uint64
	lastTouch uint64
}

// compTracker is the per-structure profiler: the flat cell array, the
// per-class aggregates it folds into, and the occupancy window series.
type compTracker struct {
	g       *forensics.Geometry
	now     func() uint64
	cells   []cell
	classes []ClassProfile

	// Window sampling state, filled by Profiler.sample.
	target   any // the concrete structure, for StructState
	rowLive  func(row int) bool
	occBP    []uint32
	dirtyBP  []uint32
	rowValid []byte
	rowBytes int

	detach func()
}

// newCompTracker allocates a cell for every cell of target's
// forensics.Geometry and installs the tracker on target's event stream.
func newCompTracker(target any, now func() uint64) *compTracker {
	t := &compTracker{now: now, target: target}
	g, detach, err := forensics.Listen(target, t)
	if err != nil {
		panic(err) // every injectable structure has a geometry
	}
	t.g, t.detach = g, detach
	t.classes = make([]ClassProfile, len(g.Classes))
	t.cells = make([]cell, g.Cells)
	for k, cl := range g.Classes {
		n := g.Rows * cl.PerRow
		t.classes[k] = ClassProfile{Name: cl.Name, Bits: uint64(n) * uint64(cl.Width)}
		for i := cl.Base; i < cl.Base+n; i++ {
			t.cells[i] = cell{class: uint16(k), width: uint16(cl.Width)}
		}
	}
	switch tg := target.(type) {
	case *cache.Cache:
		t.rowLive = func(row int) bool {
			_, valid, _, _ := tg.LineState(row)
			return valid
		}
	case *tlb.TLB:
		t.rowLive = tg.ValidAt
	case *cpu.RegFile:
		t.rowLive = tg.ReadyAt
	}
	return t
}

// OnCells implements forensics.Sink: reads and writebacks consume every
// cell of the range, writes and refills define it.
func (t *compTracker) OnCells(k forensics.EventKind, lo, hi int) {
	consume := k == forensics.Read || k == forensics.Writeback
	for i := lo; i < hi; i++ {
		if consume {
			t.consume(i)
		} else {
			t.define(i)
		}
	}
}

// tick returns the current cycle clamped to 1, the same "never happened"
// sentinel convention the forensics tracker uses.
func (t *compTracker) tick() uint64 {
	cyc := t.now()
	if cyc == 0 {
		cyc = 1
	}
	return cyc
}

// consume records that cell i's bits entered the datapath (read, CAM
// compare, writeback): the first consume of a generation closes the
// write-to-read lifetime into the class histogram; every consume extends
// the generation's ACE interval.
func (t *compTracker) consume(i int) {
	c := &t.cells[i]
	cyc := t.tick()
	if c.firstUse == 0 {
		cl := &t.classes[c.class]
		cl.Reads++
		cl.Life[lifeBucket(cyc-c.def)]++
		c.firstUse = cyc
	}
	c.lastUse = cyc
	c.lastTouch = cyc
}

// define records that cell i was overwritten with new state: the previous
// generation's ACE interval (write..last consume) is banked, and a new
// generation opens at the current cycle.
func (t *compTracker) define(i int) {
	c := &t.cells[i]
	cyc := t.tick()
	cl := &t.classes[c.class]
	if c.lastUse != 0 {
		cl.AceBitCycles += (c.lastUse - c.def) * uint64(c.width)
	}
	cl.Defs++
	c.def = cyc
	c.firstUse = 0
	c.lastUse = 0
	c.lastTouch = cyc
}

// finish closes every open generation at the end of the run and banks each
// cell's dead tail (end - lastTouch) as never-touched bit-cycles. A cell
// with no event at all contributes its full end x width.
func (t *compTracker) finish(end uint64) {
	for i := range t.cells {
		c := &t.cells[i]
		cl := &t.classes[c.class]
		if c.lastUse != 0 {
			cl.AceBitCycles += (c.lastUse - c.def) * uint64(c.width)
		}
		lt := c.lastTouch
		if lt > end {
			lt = end
		}
		cl.NeverBitCycles += (end - lt) * uint64(c.width)
	}
}

// --- profiler ---

// Profiler observes one fault-free run of a machine and accumulates the
// liveness profile of all six injectable structures. Use it as:
//
//	p := liveness.NewProfiler(m, golden.Cycles, windows)
//	out := m.RunWatched(limit, 0, nil, p.OnCycle, time.Time{})
//	profile := p.Finish(out.Cycles)
//
// Not safe for concurrent use; the profiled machine must be single-use
// like any other. Finish detaches every probe it installed.
type Profiler struct {
	total   uint64
	windows int
	next    int
	comps   []*compTracker
}

// NewProfiler attaches whole-structure trackers to every injectable
// structure of m. totalCycles is the expected golden run length (it places
// the occupancy window boundaries); windows is clamped to [1, MaxWindows].
func NewProfiler(m *sim.Machine, totalCycles uint64, windows int) *Profiler {
	if windows < 1 {
		windows = 1
	}
	if windows > MaxWindows {
		windows = MaxWindows
	}
	now := m.Core.Cycles
	p := &Profiler{total: totalCycles, windows: windows}
	// The paper's presentation order (core.Components), without importing
	// core: the component names come from the structures themselves.
	for _, target := range []any{m.L1D, m.L1I, m.L2, m.Core.RegFile(), m.DTLB, m.ITLB} {
		ct := newCompTracker(target, now)
		ct.occBP = make([]uint32, windows)
		if StructState(target).HasDirty {
			ct.dirtyBP = make([]uint32, windows)
		}
		ct.rowBytes = (ct.g.Rows + 7) / 8
		ct.rowValid = make([]byte, windows*ct.rowBytes)
		p.comps = append(p.comps, ct)
	}
	return p
}

// boundary is the cycle at which window i closes: the run is split into
// `windows` equal spans of the expected total.
func (p *Profiler) boundary(i int) uint64 {
	return p.total * uint64(i+1) / uint64(p.windows)
}

// OnCycle is the sim.Machine.RunWatched per-cycle hook: one compare per
// cycle until the next window boundary, then a snapshot of every
// structure's occupancy and per-row valid bits. Snapshots use only
// probe-free accessors, so sampling never perturbs the access stream the
// trackers are recording.
func (p *Profiler) OnCycle(m *sim.Machine) {
	cyc := m.Core.Cycles()
	for p.next < p.windows && cyc >= p.boundary(p.next) {
		p.sample(p.next)
		p.next++
	}
}

func (p *Profiler) sample(win int) {
	for _, ct := range p.comps {
		st := StructState(ct.target)
		ct.occBP[win] = toBP(st.Occ)
		if ct.dirtyBP != nil {
			ct.dirtyBP[win] = toBP(st.Dirty)
		}
		base := win * ct.rowBytes
		for r := 0; r < ct.g.Rows; r++ {
			if ct.rowLive(r) {
				ct.rowValid[base+r/8] |= 1 << (r % 8)
			}
		}
	}
}

// toBP converts a fraction to basis points (1/10000), the registry's
// integral-gauge convention.
func toBP(f float64) uint32 { return uint32(f*1e4 + 0.5) }

// Finish closes the profile at the run's actual end cycle: any windows the
// run never reached are filled with the final state, every open generation
// is banked, and the probes are detached. The caller stamps Workload and
// ImageHash before encoding.
func (p *Profiler) Finish(end uint64) *Profile {
	for p.next < p.windows {
		p.sample(p.next)
		p.next++
	}
	prof := &Profile{Cycles: end, Windows: p.windows}
	for _, ct := range p.comps {
		ct.detach()
		ct.finish(end)
		prof.Components = append(prof.Components, ComponentProfile{
			Name: ct.g.Name, Rows: ct.g.Rows, Cols: ct.g.Cols,
			Classes: ct.classes, OccBP: ct.occBP, DirtyBP: ct.dirtyBP,
			RowValid: ct.rowValid,
		})
	}
	return prof
}
