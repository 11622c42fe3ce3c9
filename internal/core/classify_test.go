package core

import (
	"context"
	"encoding/json"
	"testing"

	"mbusim/internal/cpu"
	"mbusim/internal/sim"
	"mbusim/internal/workloads"
)

func golden() *workloads.Golden {
	return &workloads.Golden{Cycles: 1000, Stdout: []byte("ok\n"), ExitCode: 0}
}

func TestClassify(t *testing.T) {
	g := golden()
	cases := []struct {
		name string
		out  sim.Outcome
		want Effect
	}{
		{"masked", sim.Outcome{Stop: cpu.StopExit, Stdout: []byte("ok\n")}, EffectMasked},
		{"sdc output", sim.Outcome{Stop: cpu.StopExit, Stdout: []byte("KO\n")}, EffectSDC},
		{"sdc exit code", sim.Outcome{Stop: cpu.StopExit, Stdout: []byte("ok\n"), ExitCode: 3}, EffectSDC},
		{"sdc truncated", sim.Outcome{Stop: cpu.StopExit, Stdout: []byte("ok\n"), Truncated: true}, EffectSDC},
		{"crash undef", sim.Outcome{Stop: cpu.StopUndef}, EffectCrash},
		{"crash segv", sim.Outcome{Stop: cpu.StopSegv}, EffectCrash},
		{"crash align", sim.Outcome{Stop: cpu.StopAlign}, EffectCrash},
		{"crash killed", sim.Outcome{Stop: cpu.StopKilled}, EffectCrash},
		{"crash kernel panic", sim.Outcome{Stop: cpu.StopKernelPanic}, EffectCrash},
		{"timeout limit", sim.Outcome{TimedOut: true}, EffectTimeout},
		{"timeout deadlock", sim.Outcome{Stop: cpu.StopDeadlock}, EffectTimeout},
		{"assert", sim.Outcome{Assert: true, Stop: cpu.StopNone}, EffectAssert},
		{"assert wins over exit", sim.Outcome{Assert: true, Stop: cpu.StopExit, Stdout: []byte("ok\n")}, EffectAssert},
	}
	for _, tc := range cases {
		if got := Classify(tc.out, g); got != tc.want {
			t.Errorf("%s: classified %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestEffectStrings(t *testing.T) {
	for _, e := range Effects() {
		if e.String() == "Unknown" {
			t.Fatalf("effect %d has no name", e)
		}
	}
	if len(Effects()) != int(NumEffects) {
		t.Fatal("Effects() incomplete")
	}
}

func TestResultAccounting(t *testing.T) {
	r := &Result{GoldenCycles: 1000}
	r.Counts[EffectMasked] = 60
	r.Counts[EffectSDC] = 25
	r.Counts[EffectCrash] = 10
	r.Counts[EffectTimeout] = 4
	r.Counts[EffectAssert] = 1
	if r.Samples() != 100 {
		t.Fatalf("samples = %d", r.Samples())
	}
	if r.AVF() != 0.40 {
		t.Fatalf("AVF = %f", r.AVF())
	}
	if r.Fraction(EffectSDC) != 0.25 {
		t.Fatalf("SDC fraction = %f", r.Fraction(EffectSDC))
	}
	if m := r.Margin(0.99); m <= 0 || m >= 0.2 {
		t.Fatalf("margin = %f", m)
	}
	if r.AdjustedMargin(0.99) > r.Margin(0.99) {
		t.Fatal("adjusted margin must not exceed the worst-case margin")
	}
	var empty Result
	if empty.AVF() != 0 || empty.Fraction(EffectSDC) != 0 {
		t.Fatal("empty result must report zero")
	}
}

func TestResultSetRoundTrip(t *testing.T) {
	rs := NewResultSet()
	r1 := &Result{Spec: Spec{Workload: "sha", Component: CompL1D, Faults: 2, Samples: 10}, GoldenCycles: 5}
	r1.Counts[EffectMasked] = 7
	r1.Counts[EffectSDC] = 3
	rs.Add(r1)
	r2 := &Result{Spec: Spec{Workload: "sha", Component: CompITLB, Faults: 1, Samples: 10}}
	r2.Counts[EffectMasked] = 10
	rs.Add(r2)

	data, err := json.Marshal(rs)
	if err != nil {
		t.Fatal(err)
	}
	back := NewResultSet()
	if err := json.Unmarshal(data, back); err != nil {
		t.Fatal(err)
	}
	got, err := back.Get(CompL1D, "sha", 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counts != r1.Counts || got.GoldenCycles != 5 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, err := back.Get(CompL2, "sha", 1); err == nil {
		t.Fatal("expected missing-cell error")
	}
}

func TestTargetFor(t *testing.T) {
	m := sim.New(sim.DefaultConfig())
	for _, comp := range Components() {
		tgt, err := TargetFor(m, comp)
		if err != nil {
			t.Fatalf("%s: %v", comp, err)
		}
		if tgt.Rows() <= 0 || tgt.Cols() <= 0 {
			t.Fatalf("%s: degenerate geometry", comp)
		}
	}
	if _, err := TargetFor(m, "BTB"); err == nil {
		t.Fatal("expected error for unknown component")
	}
	// The TLB and register-file geometries match the modeled structures.
	dtlb, _ := TargetFor(m, CompDTLB)
	if dtlb.Rows()*dtlb.Cols() != 1024 {
		t.Fatalf("DTLB bits = %d, want 1024", dtlb.Rows()*dtlb.Cols())
	}
	rf, _ := TargetFor(m, CompRF)
	if rf.Rows() != 56 {
		t.Fatalf("RegFile rows = %d, want 56", rf.Rows())
	}
}

func TestCampaignSmallDeterministic(t *testing.T) {
	spec := Spec{Workload: "stringSearch", Component: CompDTLB, Faults: 3, Samples: 12, Seed: 7}
	r1, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(context.Background(), spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Counts != r2.Counts {
		t.Fatalf("campaign not deterministic: %v vs %v", r1.Counts, r2.Counts)
	}
	if r1.Samples() != 12 {
		t.Fatalf("samples = %d", r1.Samples())
	}
	if r1.GoldenCycles == 0 {
		t.Fatal("golden cycles missing")
	}
}

func TestCampaignSeedChangesDraws(t *testing.T) {
	a, err := Run(context.Background(), Spec{Workload: "stringSearch", Component: CompL1D, Faults: 1, Samples: 30, Seed: 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), Spec{Workload: "stringSearch", Component: CompL1D, Faults: 1, Samples: 30, Seed: 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	_ = a
	_ = b
	// Different seeds usually give different counts; the real invariant is
	// that both campaigns completed all samples.
	if a.Samples() != 30 || b.Samples() != 30 {
		t.Fatal("campaign lost samples")
	}
}

func TestCampaignProgress(t *testing.T) {
	var last int
	_, err := Run(context.Background(), Spec{Workload: "stringSearch", Component: CompITLB, Faults: 1, Samples: 5, Seed: 3},
		func(done, total int) {
			if total != 5 {
				t.Errorf("total = %d", total)
			}
			last = done
		})
	if err != nil {
		t.Fatal(err)
	}
	if last != 5 {
		t.Fatalf("progress ended at %d", last)
	}
}

func TestCampaignUnknownInputs(t *testing.T) {
	if _, err := Run(context.Background(), Spec{Workload: "nope", Component: CompL1D, Faults: 1, Samples: 1}, nil); err == nil {
		t.Fatal("unknown workload must error")
	}
	if _, err := Run(context.Background(), Spec{Workload: "sha", Component: "nope", Faults: 1, Samples: 1}, nil); err == nil {
		t.Fatal("unknown component must error")
	}
}
