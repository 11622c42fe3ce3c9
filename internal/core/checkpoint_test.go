package core

import (
	"bytes"
	"context"
	"math/rand/v2"
	"reflect"
	"testing"

	"mbusim/internal/forensics"
	"mbusim/internal/sim"
	"mbusim/internal/workloads"
)

// TestCheckpointEquivalence is the acceptance test for checkpoint-based
// fast-forwarding: for every registered workload and several injection
// cycles, the checkpointed path and the from-scratch path must produce
// byte-identical Outcomes — cycles, stdout, stop kind, exit code, all of
// it — both fault-free and under a fixed injected mask. Execution is
// deterministic (TestDeterminism, TestGoldenDeterminism), so equivalence
// is checkable exactly.
func TestCheckpointEquivalence(t *testing.T) {
	fractions := []float64{0.15, 0.55, 0.95}
	for _, w := range workloads.All() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			golden, err := w.Reference()
			if err != nil {
				t.Fatal(err)
			}
			limit := 4 * golden.Cycles
			// The fault-free outcome of a scratch machine is the same for
			// every fraction, so it is run once.
			scratch, err := w.NewMachine()
			if err != nil {
				t.Fatal(err)
			}
			want := scratch.Run(limit, 0, nil)
			// One Restorer serves every restore below, so the later ones
			// rewind its machine by delta restore, as a campaign worker's do.
			rst := w.NewRestorer()
			for fi, frac := range fractions {
				injectAt := uint64(frac * float64(golden.Cycles))

				// Fault-free: fast-forward and run out; must reproduce the
				// golden outcome a scratch machine produces.
				ff, ck, err := rst.MachineAt(injectAt)
				if err != nil {
					t.Fatal(err)
				}
				if ck.Cycle > injectAt {
					t.Fatalf("MachineAt(%d) overshot to cycle %d", injectAt, ck.Cycle)
				}
				got := ff.Run(limit, 0, nil)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("fault-free outcome diverged at injectAt=%d:\n got %+v\nwant %+v", injectAt, got, want)
				}

				// Faulted: the same fixed mask applied at the same cycle on
				// both paths. L1D with a 3-bit cluster reaches data, tag and
				// state bits across the fractions.
				maskSeed := uint64(1000*fi) + 17
				inject := func(m *sim.Machine) {
					target, err := TargetFor(m, CompL1D)
					if err != nil {
						panic(err)
					}
					rng := rand.New(rand.NewPCG(maskSeed, 99))
					GenerateMask(rng, target.Rows(), target.Cols(), 3, DefaultCluster).Apply(target)
				}
				scratch2, err := w.NewMachine()
				if err != nil {
					t.Fatal(err)
				}
				wantF := scratch2.Run(limit, injectAt, inject)
				ff2, _, err := rst.MachineAt(injectAt)
				if err != nil {
					t.Fatal(err)
				}
				gotF := ff2.Run(limit, injectAt, inject)
				if !reflect.DeepEqual(gotF, wantF) {
					t.Fatalf("faulted outcome diverged at injectAt=%d:\n got %+v\nwant %+v", injectAt, gotF, wantF)
				}
			}
		})
	}
}

// TestRunCheckpointedMatchesScratch runs the full campaign cell machinery
// both ways on one cell and demands identical classified counts.
func TestRunCheckpointedMatchesScratch(t *testing.T) {
	base := Spec{
		Workload: "stringSearch", Component: CompL1D, Faults: 2,
		Samples: 24, Seed: 11,
	}
	ck, err := Run(context.Background(), base, nil)
	if err != nil {
		t.Fatal(err)
	}
	scratchSpec := base
	scratchSpec.NoCheckpoints = true
	sc, err := Run(context.Background(), scratchSpec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Counts != sc.Counts {
		t.Fatalf("classified counts diverge: checkpointed=%v scratch=%v", ck.Counts, sc.Counts)
	}
	if ck.GoldenCycles != sc.GoldenCycles || ck.TargetBits != sc.TargetBits {
		t.Fatalf("cell metadata diverges: %+v vs %+v", ck, sc)
	}
}

// TestForceSpanningImpossibleErrors: a 1-bit fault cannot span a 3x3
// cluster; the campaign must fail loudly instead of silently running
// non-spanning masks.
func TestForceSpanningImpossibleErrors(t *testing.T) {
	_, err := Run(context.Background(), Spec{
		Workload: "stringSearch", Component: CompL1D, Faults: 1,
		Samples: 2, Seed: 1, ForceSpanning: true,
	}, nil)
	if err == nil {
		t.Fatal("expected an error for an unsatisfiable spanning constraint")
	}
}

// TestTargetBitsPopulation: the Leveugle margin must use the target
// structure's real bit count, not a hardcoded approximation.
func TestTargetBitsPopulation(t *testing.T) {
	res, err := Run(context.Background(), Spec{
		Workload: "stringSearch", Component: CompDTLB, Faults: 1,
		Samples: 4, Seed: 2,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TargetBits != 32*32 { // 32 entries x 32 bits (Table VIII)
		t.Fatalf("DTLB TargetBits = %d, want 1024", res.TargetBits)
	}
	if got, want := res.population(), float64(res.GoldenCycles)*1024; got != want {
		t.Fatalf("population = %g, want %g", got, want)
	}
	// Legacy results without TargetBits keep the old approximation.
	legacy := &Result{GoldenCycles: 100}
	if got := legacy.population(); got != 100*1e6 {
		t.Fatalf("legacy population = %g, want %g", got, 100*1e6)
	}
}

// TestCampaignPathEquivalence pins the two machine sources of the sample
// loop against each other at full campaign granularity: the default path
// (checkpoint fast-forward by the worker's delta-restored machine +
// convergence exit) and the NoCheckpoints path (a fresh machine replaying
// from cycle 0, no convergence exit) must classify every sample
// identically and, once the NoCheckpoints knob is cleared, encode
// byte-identically. L1I cells exercise the predecode-invalidation rule
// across both paths: I-side corruption must force the slow decode path
// identically whether the machine was built fresh or rewound by delta
// restore.
func TestCampaignPathEquivalence(t *testing.T) {
	ctx := context.Background()
	encode := func(r *Result) []byte {
		rs := NewResultSet()
		rs.Add(r)
		enc, err := rs.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	for _, comp := range []string{CompL1I, CompL1D} {
		base := Spec{Workload: "stringSearch", Component: comp, Faults: 2, Samples: 24, Seed: 11}

		def, err := Run(ctx, base, nil)
		if err != nil {
			t.Fatal(err)
		}
		noCkpt := base
		noCkpt.NoCheckpoints = true
		nc, err := Run(ctx, noCkpt, nil)
		if err != nil {
			t.Fatal(err)
		}
		if def.Counts != nc.Counts {
			t.Fatalf("%s: delta %v != no-checkpoints %v", comp, def.Counts, nc.Counts)
		}
		nc.Spec.NoCheckpoints = false
		if encA, encB := encode(def), encode(nc); !bytes.Equal(encA, encB) {
			t.Fatalf("%s: checkpointed and no-checkpoints campaigns encode differently:\n%s\n---\n%s", comp, encA, encB)
		}

		// Forensics rides the same machine sources (plus probes); classified
		// outcomes must not change on either.
		fast := base
		fast.Forensics = forensics.ModeFast
		ff, err := Run(ctx, fast, nil)
		if err != nil {
			t.Fatal(err)
		}
		fastNC := noCkpt
		fastNC.Forensics = forensics.ModeFast
		fn, err := Run(ctx, fastNC, nil)
		if err != nil {
			t.Fatal(err)
		}
		if ff.Counts != def.Counts || fn.Counts != def.Counts {
			t.Fatalf("%s: forensics changed classifications: off %v fast %v fast-nockpt %v",
				comp, def.Counts, ff.Counts, fn.Counts)
		}
	}
}
