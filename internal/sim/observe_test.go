package sim

import (
	"testing"
	"time"

	"mbusim/internal/asm"
)

// sumSrc runs long enough (hundreds of cycles) for a mid-run injection.
const sumSrc = `
_start:
    li r1, #0      ; sum
    li r2, #1      ; i
loop:
    add r1, r1, r2
    addi r2, r2, #1
    cmp r2, #101
    b.lt loop
    li r3, #251
    urem r0, r1, r3
    li r7, #1
    syscall
`

func newSumMachine(t *testing.T) *Machine {
	t.Helper()
	prog, err := asm.Assemble(sumSrc)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(DefaultConfig())
	if err := m.Load(prog); err != nil {
		t.Fatalf("load: %v", err)
	}
	return m
}

// TestRunWatchedMatchesRun: an observer and a watchdog that never fires
// must not perturb execution.
func TestRunWatchedMatchesRun(t *testing.T) {
	a := newSumMachine(t).Run(1_000_000, 0, nil)
	calls := uint64(0)
	b := newSumMachine(t).RunWatched(1_000_000, 0, nil, func(*Machine) { calls++ }, time.Now().Add(time.Hour))
	if a.Cycles != b.Cycles || a.ExitCode != b.ExitCode || a.Committed != b.Committed {
		t.Fatalf("RunWatched diverged from Run: %+v vs %+v", b, a)
	}
	if calls != b.Cycles {
		t.Fatalf("observer ran %d times over %d cycles", calls, b.Cycles)
	}
}

// TestLockstepDigestsStayEqual: two identical machines stepped in lockstep
// keep equal architectural digests for the whole fault-free run.
func TestLockstepDigestsStayEqual(t *testing.T) {
	m := newSumMachine(t)
	shadow := newSumMachine(t)
	cycles := 0
	m.RunWatched(1_000_000, 0, nil, func(mm *Machine) {
		shadow.Core.Cycle()
		cycles++
		if mm.ArchDigest() != shadow.ArchDigest() {
			t.Fatalf("digests diverged at cycle %d without a fault", mm.Core.Cycles())
		}
	}, time.Time{})
	if cycles == 0 {
		t.Fatal("observer never ran")
	}
}

// TestLockstepDetectsInjectedDivergence: corrupting an architectural
// register mid-run makes the shadow comparison fire at (or after) the
// injection cycle, and stepping the shadow past its own stop stays a no-op.
func TestLockstepDetectsInjectedDivergence(t *testing.T) {
	m := newSumMachine(t)
	shadow := newSumMachine(t)
	const injectAt = 200
	var divergeAt uint64
	inject := func(mm *Machine) {
		mm.Core.SetArchReg(1, 0xDEADBEEF) // clobber the running sum
	}
	out := m.RunWatched(1_000_000, injectAt, inject, func(mm *Machine) {
		shadow.Core.Cycle()
		if divergeAt == 0 && mm.ArchDigest() != shadow.ArchDigest() {
			divergeAt = mm.Core.Cycles()
		}
	}, time.Time{})
	if out.TimedOut {
		t.Fatalf("timed out: %+v", out)
	}
	if divergeAt == 0 {
		t.Fatal("no divergence observed after clobbering the architectural sum")
	}
	if divergeAt < injectAt {
		t.Fatalf("divergence at cycle %d precedes injection at %d", divergeAt, injectAt)
	}
	golden := newSumMachine(t).Run(1_000_000, 0, nil)
	if out.ExitCode == golden.ExitCode {
		t.Fatalf("clobbered run still exited with the golden code %d", golden.ExitCode)
	}
}
