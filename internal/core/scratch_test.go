package core

import "testing"

// TestSamplePathAllocs pins the scratch-reuse contract of the hot sample
// path, in the style of telemetry's TestDisabledSamplePathZeroAllocs: with
// checkpoints, delta restore and the sampler's mask scratch all active, a
// steady-state fault-injection sample performs only a handful of
// unavoidable allocations (whatever the faulty run itself forces),
// independent of the workload's length. Machine construction, mask drawing
// and RNG setup must all hit reused memory.
func TestSamplePathAllocs(t *testing.T) {
	spec := Spec{Workload: "stringSearch", Component: CompL1D, Faults: 2, Samples: 1, Seed: 9}.withDefaults()
	c, err := newCell(spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := newSampler(c)
	j := job{injectAt: c.golden.Cycles / 2, maskSeed: 12345}

	sample := func() {
		if err := s.runJob(j); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up: build the restorer's machine and grow every amortized
	// buffer to its steady-state capacity.
	for i := 0; i < 3; i++ {
		sample()
	}
	allocs := testing.AllocsPerRun(10, sample)

	// The budget is deliberately tight. Growing past it means a per-sample
	// allocation crept back into the hot path.
	const budget = 8
	if allocs > budget {
		t.Fatalf("steady-state sample path allocates %.1f objects per run, want <= %d", allocs, budget)
	}
	t.Logf("steady-state sample path: %.1f allocs per sample", allocs)
}
