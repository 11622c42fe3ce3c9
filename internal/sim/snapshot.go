package sim

import (
	"mbusim/internal/cache"
	"mbusim/internal/cpu"
	"mbusim/internal/kernel"
	"mbusim/internal/mem"
	"mbusim/internal/tlb"
	"mbusim/internal/vm"
)

// Snapshot is a deep copy of a whole machine's state, taken mid-run (or
// before the first cycle). A machine restored from a snapshot continues
// execution bit-identically to the machine the snapshot was taken from:
// same cycle counts, same memory traffic, same outcome. Snapshots are
// immutable once taken and can be restored any number of times, including
// concurrently — the injection campaign uses them as per-workload golden
// checkpoints to fast-forward each run to its injection cycle.
type Snapshot struct {
	Cfg Config

	ram        *mem.Snapshot
	l1i, l1d   *cache.Snapshot
	l2         *cache.Snapshot
	itlb, dtlb *tlb.Snapshot
	walker     *vm.WalkerSnapshot
	kern       *kernel.Snapshot
	core       *cpu.Snapshot
}

// Snapshot captures the full machine state.
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		Cfg:    m.Cfg,
		ram:    m.RAM.Snapshot(),
		l1i:    m.L1I.Snapshot(),
		l1d:    m.L1D.Snapshot(),
		l2:     m.L2.Snapshot(),
		itlb:   m.ITLB.Snapshot(),
		dtlb:   m.DTLB.Snapshot(),
		walker: m.Walker.Snapshot(),
		kern:   m.Kern.Snapshot(),
		core:   m.Core.Snapshot(),
	}
}

// RestoreFrom overwrites every component's state with the snapshot's. The
// machine must have been built with the snapshot's Config (same
// geometries); a mismatch is a programming error and panics inside the
// component restores.
func (m *Machine) RestoreFrom(s *Snapshot) {
	m.RAM.Restore(s.ram)
	m.L1I.Restore(s.l1i)
	m.L1D.Restore(s.l1d)
	m.L2.Restore(s.l2)
	m.ITLB.Restore(s.itlb)
	m.DTLB.Restore(s.dtlb)
	m.Walker.Restore(s.walker)
	m.Kern.Restore(s.kern)
	m.Core.Restore(s.core)
}

// EqualsSnapshot reports whether the machine's complete mutable state —
// every field a Snapshot captures, including performance counters and
// replacement metadata — bit-equals the snapshot. Determinism then
// guarantees that the machine's future execution is identical to that of
// the machine the snapshot was taken from; the campaign's convergence exit
// uses this to cut a faulty run short once every trace of its fault has
// been scrubbed. Components are ordered so that a perturbed machine fails
// on cheap scalar compares (core progress counters) before the byte arrays
// are walked.
func (m *Machine) EqualsSnapshot(s *Snapshot) bool {
	return m.Core.EqualsSnapshot(s.core) &&
		m.Kern.EqualsSnapshot(s.kern) &&
		m.Walker.EqualsSnapshot(s.walker) &&
		m.ITLB.EqualsSnapshot(s.itlb) &&
		m.DTLB.EqualsSnapshot(s.dtlb) &&
		m.L1I.EqualsSnapshot(s.l1i) &&
		m.L1D.EqualsSnapshot(s.l1d) &&
		m.L2.EqualsSnapshot(s.l2) &&
		m.RAM.EqualsSnapshot(s.ram)
}
