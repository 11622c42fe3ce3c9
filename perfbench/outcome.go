package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
)

// setupReps is how many cold set-ups one run makes; setup_s is their
// median.
const setupReps = 3

// outcome accumulates one run's measurements and correctness verdict.
type outcome struct {
	o         *options
	attempted int
	failed    int
	problems  []string

	setupS      float64
	samplesPerS float64
	peakRSS     float64
	digest      string

	// layer holds the per-layer metrics of a traced run.
	layer  map[string]float64
	spans  []span
	cellMS []float64
}

func newOutcome(o *options) *outcome {
	return &outcome{o: o, layer: map[string]float64{}}
}

// fail counts cells as failed and records why.
func (oc *outcome) fail(cells int, format string, args ...any) {
	oc.failed += cells
	oc.problems = append(oc.problems, fmt.Sprintf(format, args...))
}

func (oc *outcome) correct() bool { return len(oc.problems) == 0 }

// setSetup reports the median of each set-up component over the cold
// set-ups a run made.
func (oc *outcome) setSetup(setups []setupTimes) {
	var tot, comp, gold, ck, mc []float64
	for _, s := range setups {
		tot = append(tot, s.total())
		comp = append(comp, s.CompileS)
		gold = append(gold, s.GoldenS)
		ck = append(ck, s.CheckpointsS)
		mc = append(mc, s.GoldenMcycles)
	}
	oc.setupS = median(tot)
	oc.layer["setup.compile_s"] = median(comp)
	oc.layer["setup.golden_s"] = median(gold)
	oc.layer["setup.checkpoints_s"] = median(ck)
	oc.layer["setup.golden_mcycles"] = median(mc)
}

// checkCells verifies that every cell of the list completed with its full
// sample count and the spec it was given, then digests the result set and
// checks the digest against earlier runs of the same seed in this checkout.
func (oc *outcome) checkCells(specs []core.Spec, rs *core.ResultSet) {
	oc.attempted += len(specs)
	for _, s := range specs {
		r, ok := rs.Cells[s.Key()]
		switch {
		case !ok:
			oc.fail(1, "cell %s/%s/%d-bit missing", s.Workload, s.Component, s.Faults)
		case !r.Spec.Equivalent(s) || r.Samples() != s.Samples:
			oc.fail(1, "cell %s/%s/%d-bit has %d samples of spec %+v", s.Workload, s.Component, s.Faults, r.Samples(), r.Spec)
		}
	}
	if len(rs.Cells) != len(specs) {
		oc.fail(0, "result set holds %d cells, want %d", len(rs.Cells), len(specs))
	}
	enc, err := rs.Encode()
	if err != nil {
		oc.fail(0, "encode results: %v", err)
		return
	}
	sum := sha256.Sum256(enc)
	oc.digest = hex.EncodeToString(sum[:])
	oc.checkDigest()
}

// checkDigest compares the digest with the one an earlier run of the same
// workload, seed and size recorded in this checkout, recording it if none
// did: runs of one seed must agree, traced or not.
func (oc *outcome) checkDigest() {
	o := oc.o
	path := filepath.Join(o.workdir, "digests", fmt.Sprintf("%s-seed%d-%ds", o.workload, o.seed, o.seconds))
	if prev, err := os.ReadFile(path); err == nil {
		if p := strings.TrimSpace(string(prev)); p != oc.digest {
			oc.fail(0, "results digest %s differs from an earlier run of this seed (%s)", oc.digest, p)
		}
		return
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		os.WriteFile(path, []byte(oc.digest+"\n"), 0o644)
	}
}

// oracle re-runs cells on the reference path (no checkpoints, no delta
// restore, no forensics) and requires outcome counts identical to the
// measured run's.
func (oc *outcome) oracle(specs []core.Spec, rs *core.ResultSet) {
	for _, s := range specs {
		s.NoCheckpoints = true
		s.Forensics = forensics.ModeOff
		want, err := core.Run(context.Background(), s, nil)
		if err != nil {
			oc.fail(1, "oracle %s/%s/%d-bit: %v", s.Workload, s.Component, s.Faults, err)
			continue
		}
		got, ok := rs.Cells[s.Key()]
		if !ok || got.Counts != want.Counts || got.GoldenCycles != want.GoldenCycles || got.TargetBits != want.TargetBits {
			oc.fail(1, "oracle %s/%s/%d-bit: counts %v, reference path gives %v", s.Workload, s.Component, s.Faults, countsOf(got), want.Counts)
		}
	}
}

func countsOf(r *core.Result) any {
	if r == nil {
		return "missing"
	}
	return r.Counts
}
