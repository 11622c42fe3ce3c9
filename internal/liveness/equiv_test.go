package liveness_test

import (
	"bytes"
	"context"
	"testing"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// TestNeverTouchedMatchesForensics is the closing-the-loop check: the
// analytical never-touched fraction from one fault-free profiled run must
// agree with the forensics-measured `never-touched` fate fraction of a
// real injection campaign on the same workload. Both are reducers over the
// one forensics event stream — the profiler integrates dead bit-cycles
// over the whole structure, forensics watches each injected mask for
// events — so what separates them is sampling noise and the mask
// generator's spatial weighting, which this tolerance covers.
//
// Cache components are used because their column count (~500+) makes the
// mask generator's slight under-weighting of edge rows/cols negligible;
// the tolerance of 5 percentage points covers binomial noise at the
// sample counts used (the campaign is seeded, so the measured fractions
// are deterministic and this test cannot flake).
func TestNeverTouchedMatchesForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 400-sample forensics campaign per component")
	}
	const (
		workload = "stringSearch"
		samples  = 400
		seed     = 7
	)
	w, err := workloads.ByName(workload)
	if err != nil {
		t.Fatal(err)
	}
	p, err := w.Profile(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"L1D", "L1I", "L2"} {
		t.Run(comp, func(t *testing.T) {
			analytic := p.NeverTouched(comp)
			tel := telemetry.NewCampaign(nil)
			spec := core.Spec{
				Workload: workload, Component: comp, Faults: 1,
				Samples: samples, Seed: seed, Forensics: forensics.ModeFast,
			}
			err := core.RunGridWithTelemetry(context.Background(), []core.Spec{spec}, 1,
				func(int, *core.Result) {}, tel)
			if err != nil {
				t.Fatal(err)
			}
			s := tel.Summarize()
			var total int64
			for _, n := range s.ByFate {
				total += n
			}
			if total == 0 {
				t.Fatal("campaign recorded no fates")
			}
			measured := float64(s.ByFate["never-touched"]) / float64(total)
			t.Logf("%s: analytical %.4f, measured %.4f (n=%d)", comp, analytic, measured, total)
			if diff := analytic - measured; diff > 0.05 || diff < -0.05 {
				t.Errorf("%s never-touched: analytical %.4f vs measured %.4f differ by %.2f pp (tolerance 5 pp)",
					comp, analytic, measured, 100*diff)
			}
		})
	}
}

// lastEvent is a recording reducer over the forensics event stream: it
// stamps every cell with the cycle of its last event of any kind.
type lastEvent struct {
	g    *forensics.Geometry
	now  func() uint64
	last []uint64
}

func (r *lastEvent) OnCells(_ forensics.EventKind, lo, hi int) {
	for i := lo; i < hi; i++ {
		r.last[i] = r.now()
	}
}

// TestNeverTouchedExact checks the forensics never-touched fate exactly
// against one golden run per workload: a sample is never-touched if and
// only if no flipped cell sees a golden event after the inject cycle.
// Until a flipped cell is touched the faulty run is the golden run, so
// the golden event stream decides it. Cycle convention: Core.Cycle
// increments the counter before stepping and RunWatched injects before
// the step, so events stamped <= inject_cycle precede the flip.
func TestNeverTouchedExact(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 960-sample forensics campaign")
	}
	names := []string{"sha", "stringSearch"}
	recs := map[[2]string]*lastEvent{}
	var specs []core.Spec
	for _, name := range names {
		w, err := workloads.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		golden, err := w.Reference()
		if err != nil {
			t.Fatal(err)
		}
		m, err := w.NewMachine()
		if err != nil {
			t.Fatal(err)
		}
		for _, comp := range core.Components() {
			target, err := core.TargetFor(m, comp)
			if err != nil {
				t.Fatal(err)
			}
			r := &lastEvent{now: m.Core.Cycles}
			if r.g, _, err = forensics.Listen(target, r); err != nil {
				t.Fatal(err)
			}
			r.last = make([]uint64, r.g.Cells)
			recs[[2]string{name, comp}] = r
			for faults := 1; faults <= 2; faults++ {
				specs = append(specs, core.Spec{
					Workload: name, Component: comp, Faults: faults,
					Samples: 40, Seed: 11, Forensics: forensics.ModeFast,
				})
			}
		}
		if out := m.Run(golden.Cycles+1, 0, nil); out.Cycles != golden.Cycles {
			t.Fatalf("%s: probed golden run took %d cycles, want %d", name, out.Cycles, golden.Cycles)
		}
	}

	var buf bytes.Buffer
	tel := telemetry.NewCampaign(telemetry.NewTracer(&buf))
	if err := core.RunGridWithTelemetry(context.Background(), specs, 2, func(int, *core.Result) {}, tel); err != nil {
		t.Fatal(err)
	}
	trace, err := telemetry.ReadTraceTyped(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := 40 * len(specs); len(trace.Fates) != want {
		t.Fatalf("%d forensics records, want %d", len(trace.Fates), want)
	}
	never := 0
	for _, f := range trace.Fates {
		r := recs[[2]string{f.Workload, f.Component}]
		dead := true
		for _, rc := range f.Mask {
			dead = dead && r.last[r.g.Cell(rc[0], rc[1])] <= f.InjectCycle
		}
		got := f.Fate == forensics.FateNeverTouched.Label()
		if got != dead {
			t.Errorf("%s/%s sample %d (mask %v, inject %d): fate %s, golden stream says never-touched=%v",
				f.Workload, f.Component, f.Sample, f.Mask, f.InjectCycle, f.Fate, dead)
		}
		if got {
			never++
		}
	}
	t.Logf("%d of %d samples never-touched", never, len(trace.Fates))
	if never == 0 || never == len(trace.Fates) {
		t.Error("campaign has only one side of the predicate; the check proves nothing")
	}
}
