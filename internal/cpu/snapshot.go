package cpu

import (
	"fmt"
	"slices"

	"mbusim/internal/isa"
)

// Snapshot support: a Core snapshot captures every piece of mutable
// pipeline state — the physical register file, both rename maps, the free
// list, the reorder buffer, the fetch/issue/writeback queues, the
// load/store queues, the predictor tables, the cycle counters and the stop
// state — so that a restored core continues execution bit-identically.
// The memory-system handles (caches, TLBs, walker, OS) are wiring, not
// state: a restored core keeps the handles of the core it is restored
// into. TraceCommit is a debugging hook and is deliberately not part of
// the snapshot.

// RegFileSnapshot is a deep copy of a physical register file.
type RegFileSnapshot struct {
	vals  []uint32
	ready []bool
}

// Snapshot captures the register-file state.
func (rf *RegFile) Snapshot() *RegFileSnapshot {
	return &RegFileSnapshot{
		vals:  append([]uint32(nil), rf.vals...),
		ready: append([]bool(nil), rf.ready...),
	}
}

// Restore overwrites the register-file state with the snapshot's. The
// register counts must match (a programming error otherwise).
func (rf *RegFile) Restore(s *RegFileSnapshot) {
	if len(s.vals) != len(rf.vals) {
		panic("regfile: restore into mismatched size")
	}
	copy(rf.vals, s.vals)
	copy(rf.ready, s.ready)
}

// EqualsSnapshot reports whether the register-file state bit-equals the
// snapshot (convergence-exit support). The wake generation is a scheduling
// hint, not architectural state, and is deliberately not compared.
func (rf *RegFile) EqualsSnapshot(s *RegFileSnapshot) bool {
	return slices.Equal(rf.vals, s.vals) && slices.Equal(rf.ready, s.ready)
}

// Snapshot is a deep copy of a core's mutable state.
type Snapshot struct {
	rf        *RegFileSnapshot
	renameMap [isa.NumArch]uint8
	archMap   [isa.NumArch]uint8
	freeList  []uint8

	rob      []robEntry
	robHead  int
	robCount int
	seqNext  uint64

	fetchPC      uint32
	fetchQ       []fetchedInst
	fqHead       int
	fetchReadyAt uint64
	fetchFaulted bool

	// The predecoded text is immutable after InstallText, so snapshots
	// share it by reference rather than deep-copying it.
	pretext  []preInst
	textBase uint32

	iq       []iqEntry
	inflight []wbEntry
	pending  []pendingLoad
	sq       []int32
	sqHead   int
	lqCount  int
	sqCount  int

	pred predictor

	cycle      uint64
	lastCommit uint64

	stopped  StopKind
	stopPC   uint32
	stopAddr uint32

	committed   uint64
	mispredicts uint64
	squashes    uint64
}

// Snapshot captures the full core state.
func (c *Core) Snapshot() *Snapshot {
	return &Snapshot{
		rf:        c.rf.Snapshot(),
		renameMap: c.renameMap,
		archMap:   c.archMap,
		freeList:  append([]uint8(nil), c.freeList...),

		rob:      append([]robEntry(nil), c.rob...),
		robHead:  c.robHead,
		robCount: c.robCount,
		seqNext:  c.seqNext,

		fetchPC:      c.fetchPC,
		fetchQ:       append([]fetchedInst(nil), c.fetchQ...),
		fqHead:       c.fqHead,
		fetchReadyAt: c.fetchReadyAt,
		fetchFaulted: c.fetchFaulted,
		pretext:      c.pretext,
		textBase:     c.textBase,

		iq:       append([]iqEntry(nil), c.iq...),
		inflight: append([]wbEntry(nil), c.inflight...),
		pending:  append([]pendingLoad(nil), c.pending...),
		sq:       append([]int32(nil), c.sq...),
		sqHead:   c.sqHead,
		lqCount:  c.lqCount,
		sqCount:  c.sqCount,

		pred: *c.pred,

		cycle:      c.cycle,
		lastCommit: c.lastCommit,

		stopped:  c.stopped,
		stopPC:   c.stopPC,
		stopAddr: c.stopAddr,

		committed:   c.Committed,
		mispredicts: c.Mispredicts,
		squashes:    c.Squashes,
	}
}

// CheckShape reports an error unless s was taken from a core with this
// register-file and ROB size, so a decoded snapshot can be rejected before
// Restore would panic on it.
func (c *Core) CheckShape(s *Snapshot) error {
	if n := len(c.rf.vals); len(s.rf.vals) != n || len(s.rf.ready) != n {
		return fmt.Errorf("RegFile: snapshot has %d registers, core has %d", len(s.rf.vals), n)
	}
	if len(s.rob) != len(c.rob) {
		return fmt.Errorf("ROB: snapshot has %d entries, core has %d", len(s.rob), len(c.rob))
	}
	return nil
}

// Restore overwrites the core state with the snapshot's, deep-copying every
// slice so later core activity never reaches back into the snapshot. The
// core must share the configuration of the snapshotted one (same ROB and
// register-file sizes); a mismatch is a programming error and panics.
func (c *Core) Restore(s *Snapshot) {
	if len(s.rob) != len(c.rob) {
		panic("cpu: restore into mismatched ROB size")
	}
	c.rf.Restore(s.rf)
	c.renameMap = s.renameMap
	c.archMap = s.archMap
	c.freeList = append(c.freeList[:0], s.freeList...)

	copy(c.rob, s.rob)
	c.robHead = s.robHead
	c.robCount = s.robCount
	c.seqNext = s.seqNext

	c.fetchPC = s.fetchPC
	c.fetchQ = append(c.fetchQ[:0], s.fetchQ...)
	c.fqHead = s.fqHead
	c.fetchReadyAt = s.fetchReadyAt
	c.fetchFaulted = s.fetchFaulted
	c.pretext = s.pretext
	c.textBase = s.textBase

	c.iq = append(c.iq[:0], s.iq...)
	c.inflight = append(c.inflight[:0], s.inflight...)
	c.pending = append(c.pending[:0], s.pending...)
	c.sq = append(c.sq[:0], s.sq...)
	c.sqHead = s.sqHead
	c.lqCount = s.lqCount
	c.sqCount = s.sqCount

	*c.pred = s.pred

	c.cycle = s.cycle
	c.lastCommit = s.lastCommit

	// Scheduling hints are derived state: reset them so the first cycle
	// after a restore rescans everything.
	c.wbNextDone = 0
	c.issueIdle = false
	c.loadsIdle = false

	c.stopped = s.stopped
	c.stopPC = s.stopPC
	c.stopAddr = s.stopAddr

	c.Committed = s.committed
	c.Mispredicts = s.mispredicts
	c.Squashes = s.squashes
}

// EqualsSnapshot reports whether the core's complete snapshotted state
// bit-equals the snapshot (convergence-exit support). Scheduling hints are
// excluded for the same reason Restore resets them: they are conservative
// derived accelerators whose value never changes an outcome. The cheap
// progress scalars are compared first — any timing perturbation shows up in
// the commit count or sequence counter long before the queue contents need
// walking.
func (c *Core) EqualsSnapshot(s *Snapshot) bool {
	if c.cycle != s.cycle || c.Committed != s.committed || c.seqNext != s.seqNext ||
		c.lastCommit != s.lastCommit || c.fetchPC != s.fetchPC ||
		c.robHead != s.robHead || c.robCount != s.robCount ||
		c.fqHead != s.fqHead || c.fetchReadyAt != s.fetchReadyAt ||
		c.fetchFaulted != s.fetchFaulted || c.textBase != s.textBase ||
		c.sqHead != s.sqHead || c.lqCount != s.lqCount || c.sqCount != s.sqCount ||
		c.stopped != s.stopped || c.stopPC != s.stopPC || c.stopAddr != s.stopAddr ||
		c.Mispredicts != s.mispredicts || c.Squashes != s.squashes {
		return false
	}
	if c.renameMap != s.renameMap || c.archMap != s.archMap || *c.pred != s.pred {
		return false
	}
	return c.rf.EqualsSnapshot(s.rf) &&
		slices.Equal(c.freeList, s.freeList) &&
		slices.Equal(c.rob, s.rob) &&
		slices.Equal(c.fetchQ, s.fetchQ) &&
		slices.Equal(c.iq, s.iq) &&
		slices.Equal(c.inflight, s.inflight) &&
		slices.Equal(c.pending, s.pending) &&
		slices.Equal(c.sq, s.sq)
}

// RestoreDirty is the core's delta restore. Virtually every pipeline field
// — the ROB, queues, rename maps, predictor counters, cycle counts —
// mutates every cycle, so there is nothing for dirty tracking to skip: a
// delta restore of the core is the full restore (a few KB of copies into
// preallocated slices, no allocation).
func (c *Core) RestoreDirty(s *Snapshot) { c.Restore(s) }
