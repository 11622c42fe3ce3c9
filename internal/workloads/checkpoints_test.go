package workloads

import (
	"bytes"
	"testing"
)

// TestCheckpointCyclesSpacing: the golden run records K to 2K-1
// checkpoints, the first at cycle 0 and the rest one common stride apart,
// all before the run ends.
func TestCheckpointCyclesSpacing(t *testing.T) {
	w, err := ByName("sha")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.CheckpointCycles()
	if err != nil {
		t.Fatal(err)
	}
	if k := CheckpointCount; len(cycles) < k || len(cycles) > 2*k-1 {
		t.Fatalf("%d checkpoints, want %d to %d: %v", len(cycles), k, 2*k-1, cycles)
	}
	if cycles[0] != 0 {
		t.Fatalf("checkpoint set must start at cycle 0: %v", cycles)
	}
	stride := cycles[1]
	for i, c := range cycles {
		if c != uint64(i)*stride {
			t.Fatalf("checkpoint %d at cycle %d, want %d (stride %d): %v", i, c, uint64(i)*stride, stride, cycles)
		}
	}
	if last := cycles[len(cycles)-1]; last >= g.Cycles {
		t.Fatalf("last checkpoint at cycle %d, golden run ends at %d", last, g.Cycles)
	}
}

// TestCheckpointsMatchReplay: each snapshot the golden run records is the
// state a fresh machine reaches by replaying the workload to the same
// cycle, so the checkpoint set needs no second run to be trusted.
func TestCheckpointsMatchReplay(t *testing.T) {
	for _, name := range []string{"stringSearch", "qsort"} {
		w, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cycles, snaps, err := w.GoldenCheckpoints()
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		for i, c := range cycles {
			if c > 0 {
				if out := m.Run(c, 0, nil); !out.TimedOut || out.Cycles != c {
					t.Fatalf("%s: replay to checkpoint %d stopped at cycle %d (%v)", name, i, out.Cycles, out.Stop)
				}
			}
			if !m.EqualsSnapshot(snaps[i]) {
				t.Fatalf("%s: replay differs from checkpoint %d at cycle %d", name, i, c)
			}
		}
	}
}

func TestMachineAtPicksNearestCheckpoint(t *testing.T) {
	w, err := ByName("stringSearch")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.CheckpointCycles()
	if err != nil {
		t.Fatal(err)
	}
	rst := w.NewRestorer()

	// Exactly at a checkpoint, just after one, and just before the next.
	for _, tc := range []struct {
		ask, want uint64
		wantIndex int
	}{
		{0, 0, 0},
		{cycles[1], cycles[1], 1},
		{cycles[1] + 1, cycles[1], 1},
		{cycles[2] - 1, cycles[1], 1},
		{g.Cycles - 1, cycles[len(cycles)-1], len(cycles) - 1},
	} {
		m, ck, err := rst.MachineAt(tc.ask)
		if err != nil {
			t.Fatal(err)
		}
		if ck.Cycle != tc.want {
			t.Errorf("MachineAt(%d) fast-forwarded to %d, want %d", tc.ask, ck.Cycle, tc.want)
		}
		if ck.Index != tc.wantIndex {
			t.Errorf("MachineAt(%d) restored checkpoint %d, want %d", tc.ask, ck.Index, tc.wantIndex)
		}
		if m.Core.Cycles() != ck.Cycle {
			t.Errorf("MachineAt(%d): machine at cycle %d, reported %d", tc.ask, m.Core.Cycles(), ck.Cycle)
		}
	}
}

// TestMachineAtReproducesGolden: a machine fast-forwarded to any
// checkpoint and run to completion reproduces the golden outcome exactly,
// also when the Restorer rewinds the previous run's machine by delta
// restore.
func TestMachineAtReproducesGolden(t *testing.T) {
	w, err := ByName("susan_c")
	if err != nil {
		t.Fatal(err)
	}
	g, err := w.Reference()
	if err != nil {
		t.Fatal(err)
	}
	cycles, err := w.CheckpointCycles()
	if err != nil {
		t.Fatal(err)
	}
	rst := w.NewRestorer()
	for _, c := range cycles {
		m, _, err := rst.MachineAt(c)
		if err != nil {
			t.Fatal(err)
		}
		out := m.Run(0, 0, nil)
		if out.Cycles != g.Cycles || out.ExitCode != g.ExitCode || !bytes.Equal(out.Stdout, g.Stdout) {
			t.Fatalf("fast-forward from cycle %d diverged: cycles=%d want %d stdout=%q want %q",
				c, out.Cycles, g.Cycles, out.Stdout, g.Stdout)
		}
	}
}
