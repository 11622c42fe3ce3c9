package main

import (
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/cpu"
	"mbusim/internal/forensics"
	"mbusim/internal/sim"
	"mbusim/internal/workloads"
)

// The phase replay re-runs whole campaign cells one sample at a time
// through the public functions core's sample path calls, in its order, and
// times each phase under the ROADMAP's names: restore, replay-to-inject,
// mask, faulty run, convergence compares and classify. It re-derives every
// inject cycle and mask seed with core.run's PCG protocol and must
// reproduce the campaign's outcome counts on every replayed cell; a
// disagreement fails the traced run, because phase numbers measured on a
// different computation than the campaign's must never be published.
//
// This replay is a stand-in: it is deleted once core itself emits the
// same-named phase spans (ROADMAP "Layered benchmark ledger", part (b)).

// phaseAcc sums phase times and cycle counts over replayed samples.
type phaseAcc struct {
	samples                        int
	restore, replay, faulty, other time.Duration // other: mask + classify
	compare, attach, resolve       time.Duration
	replayCycles, faultyCycles     uint64
	compares, converged            int
	fates                          [forensics.NumFates]int
}

// replayCell replays every sample of one cell and returns its outcome
// counts. With mode forensics.ModeFast it follows the forensics path: a
// fate tracker is attached at injection and the faulty run goes to
// completion; otherwise it follows the convergence-exit path.
func replayCell(spec core.Spec, mode forensics.Mode, acc *phaseAcc) ([core.NumEffects]int, error) {
	var counts [core.NumEffects]int
	spec = spec.Normalize()
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return counts, err
	}
	golden, err := w.Reference()
	if err != nil {
		return counts, err
	}
	ckCycles, ckSnaps, err := w.GoldenCheckpoints()
	if err != nil {
		return counts, err
	}
	limit := uint64(spec.TimeoutFactor * float64(golden.Cycles))

	// core.run's protocol: one PCG stream per cell draws each sample's
	// inject cycle and mask seed, and samples run in inject-cycle order.
	type job struct{ injectAt, maskSeed uint64 }
	seedRNG := rand.New(rand.NewPCG(spec.Seed, 0x9E3779B97F4A7C15))
	jobs := make([]job, spec.Samples)
	for i := range jobs {
		jobs[i] = job{injectAt: seedRNG.Uint64N(golden.Cycles), maskSeed: seedRNG.Uint64()}
	}
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].injectAt < jobs[j].injectAt })

	rst := w.NewRestorer()
	for _, j := range jobs {
		t := time.Now()
		m, ck, err := rst.MachineAt(j.injectAt)
		if err != nil {
			return counts, err
		}
		acc.restore += time.Since(t)

		t = time.Now()
		if m.Core.Cycles() < j.injectAt {
			m.Run(j.injectAt, 0, nil)
		}
		acc.replay += time.Since(t)
		acc.replayCycles += m.Core.Cycles() - ck.Cycle

		t = time.Now()
		target, err := core.TargetFor(m, spec.Component)
		if err != nil {
			return counts, err
		}
		maskRNG := rand.New(rand.NewPCG(j.maskSeed, 0xDEADBEEFCAFEF00D))
		mask := core.GenerateMask(maskRNG, target.Rows(), target.Cols(), spec.Faults, spec.Cluster)
		mask.Apply(target)
		acc.other += time.Since(t)

		var tr *forensics.Tracker
		if mode != forensics.ModeOff {
			t = time.Now()
			tr = forensics.NewTracker(m.Core.Cycles)
			cells := make([]forensics.BitCell, len(mask.Cells))
			for i, c := range mask.Cells {
				cells[i] = forensics.BitCell{Row: c.Row, Col: c.Col}
			}
			if err := tr.Attach(target, cells); err != nil {
				return counts, err
			}
			acc.attach += time.Since(t)
		}

		start := m.Core.Cycles()
		var out sim.Outcome
		if mode == forensics.ModeOff {
			out = faultyToConvergence(m, golden, limit, j.injectAt, ckCycles, ckSnaps, acc)
		} else {
			t = time.Now()
			out = m.RunWatched(limit, j.injectAt, nil, nil, time.Time{})
			acc.faulty += time.Since(t)
			tr.Detach()
		}
		acc.faultyCycles += m.Core.Cycles() - start

		t = time.Now()
		eff := core.Classify(out, golden)
		acc.other += time.Since(t)
		if tr != nil {
			t = time.Now()
			rep := tr.Resolve(eff == core.EffectMasked)
			acc.resolve += time.Since(t)
			acc.fates[rep.Fate]++
		}
		counts[eff]++
		acc.samples++
	}
	return counts, nil
}

// faultyToConvergence runs the injected machine in segments that end at
// each golden checkpoint after the inject cycle, comparing the machine
// against the checkpoint's snapshot at every crossing; equality ends the
// sample with the golden outcome.
func faultyToConvergence(m *sim.Machine, golden *workloads.Golden, limit, injectAt uint64,
	ckCycles []uint64, ckSnaps []*sim.Snapshot, acc *phaseAcc) sim.Outcome {
	idx := sort.Search(len(ckCycles), func(i int) bool { return ckCycles[i] > injectAt })
	for ; idx < len(ckCycles) && ckCycles[idx] < limit; idx++ {
		t := time.Now()
		out := m.RunWatched(ckCycles[idx], injectAt, nil, nil, time.Time{})
		acc.faulty += time.Since(t)
		if !out.TimedOut {
			return out
		}
		t = time.Now()
		eq := m.EqualsSnapshot(ckSnaps[idx])
		acc.compare += time.Since(t)
		acc.compares++
		if eq {
			acc.converged++
			return sim.Outcome{Stop: cpu.StopExit, ExitCode: golden.ExitCode, Stdout: golden.Stdout,
				Cycles: golden.Cycles, Committed: golden.Committed}
		}
	}
	t := time.Now()
	out := m.RunWatched(limit, injectAt, nil, nil, time.Time{})
	acc.faulty += time.Since(t)
	return out
}

// replayCells replays cells and checks each against the campaign's counts.
func replayCells(specs []core.Spec, rs *core.ResultSet, mode forensics.Mode) (*phaseAcc, error) {
	acc := &phaseAcc{}
	for _, s := range specs {
		counts, err := replayCell(s, mode, acc)
		if err != nil {
			return nil, err
		}
		got, ok := rs.Cells[s.Key()]
		if !ok || got.Counts != counts {
			return nil, fmt.Errorf("phase replay of %s/%s/%d-bit gives %v, campaign %v: phase numbers withheld",
				s.Workload, s.Component, s.Faults, counts, countsOf(got))
		}
	}
	if acc.samples == 0 {
		return nil, fmt.Errorf("phase replay ran no samples")
	}
	return acc, nil
}

// tracePhases adds the traced run's phase, forensics and fate metrics: a
// timed replay in the workload's own mode, then (for workloads that run
// without forensics) a separate forensics-fast replay of the same cells, so
// probe cost never inflates the timed phases. fates, when non-nil, are the
// campaign's own fate records and take precedence for fate.*.
func (oc *outcome) tracePhases(w *benchWorkload, specs []core.Spec, rs *core.ResultSet, fates map[string]int) error {
	cells := pick(specs, w.replay)
	t := time.Now()
	timed, err := replayCells(cells, rs, w.mode)
	sp := &spanLog{}
	sp.since("run", "phase_replay", w.mode.String(), t)
	if err != nil {
		return err
	}
	fast := timed
	if w.mode == forensics.ModeOff {
		t = time.Now()
		fast, err = replayCells(cells, rs, forensics.ModeFast)
		sp.since("run", "fate_pass", "fast", t)
		if err != nil {
			return err
		}
	}
	oc.spans = append(oc.spans, sp.spans...)
	n := float64(timed.samples)
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	total := timed.restore + timed.replay + timed.faulty + timed.other + timed.compare + timed.attach + timed.resolve
	l := oc.layer
	l["phase.restore_us"] = us(timed.restore) / n
	l["phase.replay_ms"] = us(timed.replay) / 1e3 / n
	l["phase.replay_kcycles"] = float64(timed.replayCycles) / 1e3 / n
	l["phase.faulty_ms"] = us(timed.faulty) / 1e3 / n
	l["phase.faulty_kcycles"] = float64(timed.faultyCycles) / 1e3 / n
	l["phase.replay_share"] = 100 * float64(timed.replay) / float64(total)
	l["phase.faulty_share"] = 100 * float64(timed.faulty) / float64(total)
	l["sim.mcycles_per_s"] = float64(timed.replayCycles+timed.faultyCycles) / (timed.replay + timed.faulty).Seconds() / 1e6
	l["phase.compare_us"], l["phase.converged_frac"] = 0, 0
	if timed.compares > 0 {
		l["phase.compare_us"] = us(timed.compare) / float64(timed.compares)
		l["phase.converged_frac"] = 100 * float64(timed.converged) / float64(timed.compares)
	}
	l["phase.compares_per_sample"] = float64(timed.compares) / n
	l["phase.other_us"] = us(timed.other) / n

	nf := float64(fast.samples)
	l["forensics.attach_us"] = us(fast.attach) / nf
	l["forensics.resolve_us"] = us(fast.resolve) / nf
	counts := map[string]int{}
	for f, c := range fast.fates {
		counts[forensics.Fate(f).Label()] = c
	}
	if fates != nil {
		counts = fates
	}
	all := 0
	for _, c := range counts {
		all += c
	}
	never := counts[forensics.FateNeverTouched.Label()]
	dead := never + counts[forensics.FateOverwritten.Label()] + counts[forensics.FateRefilled.Label()]
	l["fate.never_touched_frac"] = 100 * float64(never) / float64(max(all, 1))
	l["fate.dead_frac"] = 100 * float64(dead) / float64(max(all, 1))
	return nil
}
