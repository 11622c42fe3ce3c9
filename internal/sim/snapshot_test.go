package sim

import (
	"reflect"
	"testing"

	"mbusim/internal/asm"
)

// snapshotProg exercises memory, the heap and stdout so a mid-run snapshot
// carries non-trivial state in every component.
const snapshotProg = `
_start:
    li r4, #0
    la r5, buf
sloop:
    add r6, r4, r4
    str r6, [r5, #0]
    ldr r6, [r5, #0]
    addi r4, r4, #1
    cmp r4, #400
    b.lt sloop
    li r0, #1
    la r1, msg
    li r2, #5
    li r7, #4
    syscall
    li r0, #7
    li r7, #1
    syscall
.data
msg: .ascii "done\n"
.align 4
buf: .space 4
`

func loadSnapshotProg(t *testing.T) *Machine {
	t.Helper()
	prog, err := asm.Assemble(snapshotProg)
	if err != nil {
		t.Fatal(err)
	}
	m := New(DefaultConfig())
	if err := m.Load(prog); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSnapshotContinuesBitIdentically is the machine-level contract: a
// machine restored from a mid-run snapshot finishes with the exact outcome
// of the machine it was forked from.
func TestSnapshotContinuesBitIdentically(t *testing.T) {
	m := loadSnapshotProg(t)
	mid := m.Run(1000, 0, nil)
	if !mid.TimedOut {
		t.Fatalf("program finished before the snapshot point: %+v", mid)
	}
	snap := m.Snapshot()

	want := m.Run(0, 0, nil)
	if want.Stop.String() != "exit" || want.ExitCode != 7 {
		t.Fatalf("original run failed: %+v", want)
	}

	for i := 0; i < 2; i++ { // restore twice: snapshots are reusable
		r := restored(snap)
		if r.Core.Cycles() != 1000 {
			t.Fatalf("restored machine at cycle %d, want 1000", r.Core.Cycles())
		}
		got := r.Run(0, 0, nil)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restored run diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestSnapshotMidRunMatchesScratch checks the fast-forward identity used
// by the campaign: restoring a cycle-N snapshot and running with an
// injection callback at cycle >= N is bit-identical to a from-scratch run
// with the same callback.
func TestSnapshotMidRunMatchesScratch(t *testing.T) {
	m := loadSnapshotProg(t)
	m.Run(750, 0, nil)
	snap := m.Snapshot()

	inject := func(mm *Machine) {
		// A visible fault: flip data bits in an L1D line and corrupt a TLB
		// entry so the continuation genuinely depends on restored state.
		mm.L1D.FlipBit(3, 40)
		mm.DTLB.FlipBit(1, 31)
		mm.Core.RegFile().FlipBit(9, 5)
	}

	scratch := loadSnapshotProg(t)
	want := scratch.Run(200_000, 900, inject)

	r := restored(snap)
	got := r.Run(200_000, 900, inject)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fast-forwarded faulted run diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestSnapshotIsolation: machines restored from one snapshot are fully
// independent of each other and of the snapshot.
func TestSnapshotIsolation(t *testing.T) {
	m := loadSnapshotProg(t)
	m.Run(500, 0, nil)
	snap := m.Snapshot()

	a := restored(snap)
	b := restored(snap)
	// Corrupt a heavily, then run b to completion untouched.
	for row := 0; row < 8; row++ {
		a.L1D.FlipBit(row, 0)
		a.L2.FlipBit(row, 0)
		a.ITLB.FlipBit(row%a.ITLB.Rows(), 31)
	}
	a.Run(5000, 0, nil)

	got := b.Run(0, 0, nil)
	m2 := loadSnapshotProg(t)
	want := m2.Run(0, 0, nil)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sibling restore was corrupted:\n got %+v\nwant %+v", got, want)
	}
}

// TestDeltaRestoreContinuesBitIdentically is the machine-level contract of
// the delta-restore fast path: one machine, rewound by RestoreDelta
// between faulted runs, reproduces the exact outcome of a fresh machine
// fully restored from the same snapshot — including after runs that
// dirtied caches, TLBs, RAM, the kernel and the core.
func TestDeltaRestoreContinuesBitIdentically(t *testing.T) {
	m := loadSnapshotProg(t)
	m.Run(750, 0, nil)
	snap := m.Snapshot()

	inject := func(mm *Machine) {
		mm.L1D.FlipBit(3, 40)
		mm.DTLB.FlipBit(1, 31)
		mm.Core.RegFile().FlipBit(9, 5)
	}
	want := restored(snap).Run(200_000, 900, inject)

	dirty := m.TrackDirty(snap)
	for round := 0; round < 3; round++ {
		if round > 0 {
			dirty = m.RestoreDelta(snap, dirty)
			if !m.EqualsSnapshot(snap) {
				t.Fatalf("round %d: machine differs from snapshot after RestoreDelta", round)
			}
		}
		got := m.Run(200_000, 900, inject)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: delta-restored run diverged:\n got %+v\nwant %+v", round, got, want)
		}
	}
}

// TestRestoreDeltaFallsBack: RestoreDelta silently falls back to a full
// restore when the dirty handle is nil, armed against a different
// snapshot, or owned by another machine — the caller never has to care.
func TestRestoreDeltaFallsBack(t *testing.T) {
	m := loadSnapshotProg(t)
	m.Run(500, 0, nil)
	s1 := m.Snapshot()
	m.Run(900, 0, nil)
	s2 := m.Snapshot()

	// Handle armed on s2, restore requested against s1: must fall back.
	dirty := m.TrackDirty(s2)
	m.Run(1200, 0, nil)
	dirty = m.RestoreDelta(s1, dirty)
	if !m.EqualsSnapshot(s1) {
		t.Fatal("cross-snapshot RestoreDelta did not restore s1 exactly")
	}

	// Nil handle: full restore plus arming.
	m.Run(1200, 0, nil)
	dirty = m.RestoreDelta(s2, nil)
	if !m.EqualsSnapshot(s2) {
		t.Fatal("nil-handle RestoreDelta did not restore s2 exactly")
	}

	// Handle owned by another machine: must fall back, not corrupt.
	other := restored(s2)
	otherDirty := other.TrackDirty(s2)
	m.Run(1500, 0, nil)
	_ = m.RestoreDelta(s2, otherDirty)
	if !m.EqualsSnapshot(s2) {
		t.Fatal("foreign-handle RestoreDelta did not restore s2 exactly")
	}
	_ = dirty
}

// TestEqualsSnapshotDetectsEveryComponent: EqualsSnapshot must notice a
// single perturbed bit or counter in each machine component — soundness of
// the campaign's convergence exit depends on it — and accept the state
// again once the perturbation is undone.
func TestEqualsSnapshotDetectsEveryComponent(t *testing.T) {
	m := loadSnapshotProg(t)
	m.Run(800, 0, nil)
	s := m.Snapshot()
	if !m.EqualsSnapshot(s) {
		t.Fatal("machine does not equal its own snapshot")
	}

	perturb := []struct {
		name     string
		do, undo func()
	}{
		{"L1I", func() { m.L1I.FlipBit(0, 0) }, func() { m.L1I.FlipBit(0, 0) }},
		{"L1D", func() { m.L1D.FlipBit(2, 7) }, func() { m.L1D.FlipBit(2, 7) }},
		{"L2", func() { m.L2.FlipBit(5, 3) }, func() { m.L2.FlipBit(5, 3) }},
		{"ITLB", func() { m.ITLB.FlipBit(1, 31) }, func() { m.ITLB.FlipBit(1, 31) }},
		{"DTLB", func() { m.DTLB.FlipBit(2, 15) }, func() { m.DTLB.FlipBit(2, 15) }},
		{"RF", func() { m.Core.RegFile().FlipBit(4, 9) }, func() { m.Core.RegFile().FlipBit(4, 9) }},
		{"Walker", func() { m.Walker.Walks++ }, func() { m.Walker.Walks-- }},
		{"Kernel", func() { m.Kern.Stdout = append(m.Kern.Stdout, 'z') },
			func() { m.Kern.Stdout = m.Kern.Stdout[:len(m.Kern.Stdout)-1] }},
	}
	old := m.RAM.ReadWord(0)
	perturb = append(perturb, struct {
		name     string
		do, undo func()
	}{"RAM", func() { m.RAM.WriteWord(0, old^1) }, func() { m.RAM.WriteWord(0, old) }})

	for _, p := range perturb {
		p.do()
		if m.EqualsSnapshot(s) {
			t.Fatalf("%s: EqualsSnapshot missed the perturbation", p.name)
		}
		p.undo()
		if !m.EqualsSnapshot(s) {
			t.Fatalf("%s: EqualsSnapshot false after undoing the perturbation", p.name)
		}
	}
}

// restored builds a fresh machine in the snapshot's configuration and
// restores the snapshot into it.
func restored(s *Snapshot) *Machine {
	m := New(s.Cfg)
	m.RestoreFrom(s)
	return m
}
