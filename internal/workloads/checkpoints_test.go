package workloads

import (
	"bytes"
	"testing"
)

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
	if len(cycles) == 0 || cycles[0] != 0 {
		t.Fatalf("checkpoint set must start at cycle 0: %v", cycles)
	}
	for i := 1; i < len(cycles); i++ {
		if cycles[i] <= cycles[i-1] {
			t.Fatalf("checkpoint cycles not strictly increasing: %v", cycles)
		}
		if cycles[i] >= g.Cycles {
			t.Fatalf("checkpoint %d at cycle %d beyond golden end %d", i, cycles[i], g.Cycles)
		}
	}
	// Evenly spaced: the i-th target is i*G/K.
	k := len(cycles)
	for i, c := range cycles {
		want := g.Cycles * uint64(i) / uint64(CheckpointCount)
		if c != want {
			t.Fatalf("checkpoint %d at cycle %d, want %d (K=%d, G=%d)", i, c, want, k, g.Cycles)
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
