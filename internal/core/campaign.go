package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"mbusim/internal/cpu"
	"mbusim/internal/forensics"
	"mbusim/internal/liveness"
	"mbusim/internal/sim"
	"mbusim/internal/stats"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// Spec describes one fault-injection campaign cell: N injections of
// k-bit spatial faults into one component while one workload runs.
type Spec struct {
	Workload  string
	Component string
	Faults    int // cardinality: 1, 2 or 3 bits per upset
	Samples   int
	Seed      uint64
	Cluster   ClusterSpec // zero value means DefaultCluster

	// TimeoutFactor multiplies the golden cycle count to form the Timeout
	// limit; the paper uses 4x. Zero means 4.
	TimeoutFactor float64

	// WallTimeout bounds each sample's wall-clock simulation time (0 means
	// no bound). TimeoutFactor catches livelocks the simulator can count;
	// WallTimeout additionally catches samples whose host-side run time
	// explodes even within the cycle limit. An expired sample is classified
	// EffectTimeout and recorded in the trace like any other sample.
	WallTimeout time.Duration

	// ForceSpanning restricts masks to patterns that span the full cluster
	// in some dimension (ablation of the paper's sub-cluster inclusion).
	ForceSpanning bool

	// NoCheckpoints forces every run to rebuild its machine and replay the
	// golden prefix from cycle 0 instead of fast-forwarding from the
	// workload's golden checkpoint set. The two paths produce identical
	// outcomes; this knob exists for cross-checking and for bounding
	// memory on very large configurations.
	NoCheckpoints bool

	// NoDelta is ignored: it once selected a fresh, fully restored machine
	// per sample instead of the worker's delta-restored one, and every
	// checkpointed sample now takes its machine from the worker's
	// Restorer. The field stays because it is part of the results-file
	// JSON, whose encoding is pinned (TestEncodingPins) and read by other
	// tools, and Equivalent keeps ignoring it so results written with it
	// set still cover their cells on resume.
	NoDelta bool

	// Protect evaluates an error-protection scheme on the target structure
	// (extension; see Protection). The zero value is no protection, the
	// paper's configuration.
	Protect Protection

	// Forensics selects per-sample fault-lifecycle tracking (see
	// internal/forensics): ModeOff (zero value) records nothing, ModeFast
	// arms the component access probes, ModeFull additionally replays a
	// lockstep shadow machine from the same checkpoint and records the
	// first architectural-divergence cycle (~2x per-sample cost). The
	// probes only observe, so classified outcomes are identical in every
	// mode.
	Forensics forensics.Mode
}

func (s Spec) withDefaults() Spec {
	if s.Cluster == (ClusterSpec{}) {
		s.Cluster = DefaultCluster
	}
	if s.TimeoutFactor == 0 {
		s.TimeoutFactor = 4
	}
	return s
}

// Normalize returns the spec in canonical form: defaults filled in
// (Cluster, TimeoutFactor) and the protection reduced to its effective
// identity — ProtectNone discards the interleave degree (Filter never
// consults it) and an interleave below 1 becomes 1, which it already
// means. Two specs that normalize equal run byte-identical campaigns.
func (s Spec) Normalize() Spec {
	s = s.withDefaults()
	if s.Protect.Kind == ProtectNone {
		s.Protect = Protection{}
	} else if s.Protect.Interleave < 1 {
		s.Protect.Interleave = 1
	}
	return s
}

// Equivalent reports whether two specs describe the same campaign cell with
// the same outcome distribution: every field that can change a classified
// result must match after normalization. NoCheckpoints and Forensics are
// excluded — they select execution strategy and observation only, and the
// simulator guarantees identical outcomes across them — and so is the
// ignored NoDelta, so a result produced under one may stand in for the
// others. This is the identity that resume (ResultSet.Covers) and
// distributed submit verification trust.
func (s Spec) Equivalent(o Spec) bool {
	a, b := s.Normalize(), o.Normalize()
	a.NoCheckpoints, b.NoCheckpoints = false, false
	a.NoDelta, b.NoDelta = false, false
	a.Forensics, b.Forensics = 0, 0
	return a == b
}

// Result aggregates one campaign cell.
type Result struct {
	Spec         Spec
	Counts       [NumEffects]int
	GoldenCycles uint64

	// TargetBits is the bit count (rows x cols) of the injected structure,
	// the spatial extent of the Leveugle fault population.
	TargetBits int
}

// Samples returns the number of classified runs.
func (r *Result) Samples() int {
	n := 0
	for _, c := range r.Counts {
		n += c
	}
	return n
}

// AVF is the architectural vulnerability factor of the cell: the fraction
// of injections that were not masked.
func (r *Result) AVF() float64 {
	n := r.Samples()
	if n == 0 {
		return 0
	}
	return 1 - float64(r.Counts[EffectMasked])/float64(n)
}

// Fraction returns the fraction of runs in one effect class.
func (r *Result) Fraction(e Effect) float64 {
	n := r.Samples()
	if n == 0 {
		return 0
	}
	return float64(r.Counts[e]) / float64(n)
}

// Margin returns the worst-case (p=0.5) error margin of the cell's AVF at
// the given confidence, per the Leveugle formulation.
func (r *Result) Margin(confidence float64) float64 {
	return stats.Margin(r.Samples(), r.population(), 0.5, confidence)
}

// AdjustedMargin re-adjusts the margin using the measured AVF, as the paper
// does after each campaign.
func (r *Result) AdjustedMargin(confidence float64) float64 {
	return stats.Readjust(r.Samples(), r.population(), r.AVF(), r.Margin(confidence), confidence)
}

func (r *Result) population() float64 {
	// Fault population = bits x cycles of exposure, using the target
	// structure's real bit count. Results deserialized from files written
	// before TargetBits existed fall back to the old 1e6 approximation.
	bits := float64(r.TargetBits)
	if bits == 0 {
		bits = 1e6
	}
	return float64(r.GoldenCycles) * bits
}

// Progress receives completed-run counts during a campaign (optional). It
// may be invoked concurrently from multiple workers; done values are each
// reported exactly once but not necessarily in ascending order.
type Progress func(done, total int)

// Run executes a campaign cell: Samples independent machine runs, each with
// a fresh mask at a fresh random injection cycle, classified against the
// workload's golden run. The spec is validated before any worker starts, so
// configuration errors surface as clean errors rather than worker panics.
//
// Cancelling ctx stops the workers promptly (between samples); Run then
// returns ctx.Err() and the partial counts are discarded — a cancelled cell
// is simply re-run on resume, keeping every persisted Result complete.
func Run(ctx context.Context, spec Spec, progress Progress) (*Result, error) {
	return run(ctx, spec, progress, 0, nil)
}

// job is one pre-drawn sample: its injection cycle, its mask seed and its
// index, the sample's identity in traces and progress accounting.
type job struct {
	injectAt uint64
	maskSeed uint64
	idx      int
}

// run is Run with an explicit sample-worker bound and an optional
// telemetry sink; workers <= 0 means GOMAXPROCS. RunGrid uses the bound to
// share cores fairly across cells running in parallel. tel may be nil
// (the no-op campaign): the sample path then skips all timing and
// recording and allocates nothing extra.
func run(ctx context.Context, spec Spec, progress Progress, workers int, tel *telemetry.Campaign) (*Result, error) {
	spec = spec.withDefaults()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c, err := newCell(spec, tel)
	if err != nil {
		return nil, err
	}

	// Pre-draw per-run randomness deterministically so results do not
	// depend on worker scheduling; a job's idx is fixed before any
	// reordering below.
	seedRNG := rand.New(rand.NewPCG(spec.Seed, 0x9E3779B97F4A7C15))
	jobs := make([]job, spec.Samples)
	for i := range jobs {
		jobs[i] = job{injectAt: seedRNG.Uint64N(c.golden.Cycles), maskSeed: seedRNG.Uint64(), idx: i}
	}
	// Dispatch jobs in injection-cycle order: samples that restore from the
	// same golden checkpoint become adjacent, so a worker's delta-restored
	// machine stays on one baseline for long stretches instead of paying a
	// full restore at every checkpoint switch. Sample identity travels with
	// the job, and both the counts and the flushed traces are
	// order-independent (traces are re-sorted by sample index), so results
	// are bit-identical to index-order dispatch.
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].injectAt < jobs[j].injectAt })

	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > spec.Samples {
		workers = spec.Samples
	}
	// Lock-free job dispatch: workers claim jobs off an atomic counter and
	// accumulate into their own sampler, merged after the pool drains, so
	// neither dispatch, counting nor the progress callback serializes the
	// workers on a shared mutex. Cancellation is checked between samples:
	// individual runs are short (milliseconds at the scaled geometry), so a
	// cancelled campaign stops promptly without instrumenting the simulator.
	var (
		wg        sync.WaitGroup
		next      atomic.Int64
		completed atomic.Int64
		failed    atomic.Bool
	)
	samplers := make([]*sampler, workers)
	for wk := range samplers {
		s := newSampler(c)
		samplers[wk] = s
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !failed.Load() && ctx.Err() == nil {
				j := int(next.Add(1)) - 1
				if j >= len(jobs) {
					return
				}
				if s.err = s.runJob(jobs[j]); s.err != nil {
					failed.Store(true)
					return
				}
				if progress != nil {
					progress(int(completed.Add(1)), len(jobs))
				}
			}
		}()
	}
	wg.Wait()
	for _, s := range samplers {
		if s.err != nil {
			return nil, s.err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.merge(samplers), nil
}

// cell is what every sample of one campaign cell shares, derived once
// before the workers start: the workload, its golden run, the spec with
// defaults filled in, the cycle limit, the telemetry sink and, unless the
// spec runs without checkpoints, the golden checkpoint set that samples
// restore from and the convergence exit compares against.
type cell struct {
	w          *workloads.Workload
	golden     *workloads.Golden
	spec       Spec
	limit      uint64
	targetBits int
	tel        *telemetry.Campaign

	ckCycles []uint64 // nil under NoCheckpoints
	ckSnaps  []*sim.Snapshot
}

// newCell resolves spec (already defaulted and validated) into its cell.
// The component and geometry are checked once, on a probe machine, and the
// golden run, which records the checkpoint set, is derived here so its
// one-time cost is not paid under the first worker's sample.
func newCell(spec Spec, tel *telemetry.Campaign) (*cell, error) {
	w, err := workloads.ByName(spec.Workload)
	if err != nil {
		return nil, err
	}
	golden, err := w.Reference()
	if err != nil {
		return nil, err
	}
	probe, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	probeTarget, err := TargetFor(probe, spec.Component)
	if err != nil {
		return nil, err
	}
	c := &cell{
		w: w, golden: golden, spec: spec, tel: tel,
		limit:      uint64(spec.TimeoutFactor * float64(golden.Cycles)),
		targetBits: probeTarget.Rows() * probeTarget.Cols(),
	}
	if !spec.NoCheckpoints {
		if c.ckCycles, c.ckSnaps, err = w.GoldenCheckpoints(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// merge sums the samplers' counts into the cell's Result and publishes
// its telemetry: the trace records in sample order (like the results file,
// the trace only ever holds complete cells) and the at-inject occupancy
// averaged over the cell's samples as one gauge pair.
func (c *cell) merge(samplers []*sampler) *Result {
	res := &Result{Spec: c.spec, GoldenCycles: c.golden.Cycles, TargetBits: c.targetBits}
	var recs []telemetry.SampleRecord
	var fates []telemetry.FateRecord
	var occ occAcc
	for _, s := range samplers {
		for e, n := range s.counts {
			res.Counts[e] += n
		}
		recs = append(recs, s.recs...)
		fates = append(fates, s.fates...)
		occ.occSum += s.occ.occSum
		occ.occN += s.occ.occN
		occ.dirtySum += s.occ.dirtySum
		occ.dirtyN += s.occ.dirtyN
	}
	if !c.tel.Enabled() {
		return res
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Sample < recs[j].Sample })
	sort.Slice(fates, func(i, j int) bool { return fates[i].Sample < fates[j].Sample })
	c.tel.FlushCell(recs, fates)
	if occ.occN > 0 {
		meanDirty := 0.0
		if occ.dirtyN > 0 {
			meanDirty = occ.dirtySum / float64(occ.dirtyN)
		}
		c.tel.SetCellOccupancy(c.spec.Component, c.spec.Workload, c.spec.Faults,
			occ.occSum/float64(occ.occN), meanDirty, occ.dirtyN > 0)
	}
	return res
}

// occAcc sums the at-inject structure occupancy over a worker's samples.
type occAcc struct {
	occSum, dirtySum float64
	occN, dirtyN     int
}

// maxSpanningTries bounds the rejection sampling of ForceSpanning masks.
const maxSpanningTries = 1000

// maskPairs encodes a mask as the [row, col] pairs of the trace schema.
func maskPairs(m Mask) [][2]int {
	out := make([][2]int, len(m.Cells))
	for i, c := range m.Cells {
		out[i] = [2]int{c.Row, c.Col}
	}
	return out
}

// testSampleHook, when non-nil, runs at the top of every sample inside the
// recovery guard. It exists only for tests, which use it to inject panics
// and wall-clock stalls into the sample path.
var testSampleHook func(spec Spec, sample int)

// sampler is one sample worker of a cell and the single owner of its
// state: the worker's Restorers (one machine each, rewound by delta
// restore between samples), the mask RNG and scratch buffers, the sample
// in flight, and the worker's counts, error, trace records and occupancy
// sums, which run merges once the pool drains. A sampler belongs to one
// goroutine.
type sampler struct {
	*cell

	// rst supplies the faulty machine, shadowRst the full-forensics
	// shadow; both are nil under NoCheckpoints, where every sample builds
	// a fresh machine and replays from cycle 0.
	rst, shadowRst *workloads.Restorer

	pcg   *rand.PCG // reseeded for every sample, so one PCG serves them all
	rng   *rand.Rand
	masks maskScratch

	// The sample in flight: what the inject and stepShadow hooks read, and
	// the facts record reports beyond the classified effect — which golden
	// checkpoint the run restored (-1 without checkpoints), how many mask
	// bits were live after protection filtering, and under forensics the
	// resolved fault lifecycle of mask.
	target        Target
	mask          Mask
	shadow        *sim.Machine
	tr            *forensics.Tracker
	attachErr     error
	checkpoint    int
	cyclesSkipped uint64
	maskBits      int
	fate          forensics.Report
	hasFate       bool

	counts [NumEffects]int
	err    error
	recs   []telemetry.SampleRecord // only when tracing
	fates  []telemetry.FateRecord
	occ    occAcc
}

func newSampler(c *cell) *sampler {
	pcg := rand.NewPCG(0, 0)
	s := &sampler{cell: c, pcg: pcg, rng: rand.New(pcg)}
	if !c.spec.NoCheckpoints {
		s.rst = c.w.NewRestorer()
		if c.spec.Forensics == forensics.ModeFull {
			s.shadowRst = c.w.NewRestorer()
		}
	}
	return s
}

// runJob runs one sample behind a panic guard and records it. A panicking
// sample (a simulator bug, a pathological machine state) becomes that
// cell's error — counted under gefin_worker_panics_total and surfaced once
// through the Run/RunGrid error path — instead of aborting the whole
// process. With cells dispatched across machines, a process abort would
// kill every cell the process holds; a clean per-cell error lets the
// campaign retry or fail just the one cell.
func (s *sampler) runJob(j job) (err error) {
	defer func() {
		if r := recover(); r != nil {
			s.tel.RecordWorkerPanic()
			err = fmt.Errorf("core: %s/%s/%d-bit sample %d panicked: %v\n%s",
				s.spec.Component, s.spec.Workload, s.spec.Faults, j.idx, r, debug.Stack())
		}
	}()
	var start time.Time
	if s.tel.Enabled() {
		start = time.Now()
	}
	if testSampleHook != nil {
		testSampleHook(s.spec, j.idx)
	}
	effect, err := s.sample(j.injectAt, j.maskSeed)
	if err != nil {
		return err
	}
	s.counts[effect]++
	if s.tel.Enabled() {
		s.record(j, effect, time.Since(start))
	}
	return nil
}

// record hands the finished sample to telemetry and keeps its trace
// records for the cell's merge.
func (s *sampler) record(j job, effect Effect, d time.Duration) {
	spec := &s.spec
	rec := telemetry.SampleRecord{
		Component: spec.Component, Workload: spec.Workload,
		Faults: spec.Faults, Sample: j.idx, Seed: spec.Seed,
		InjectCycle: j.injectAt, MaskBits: s.maskBits,
		Checkpoint: s.checkpoint, CyclesSkipped: s.cyclesSkipped,
		Outcome:    effect.Label(),
		DurationNS: d.Nanoseconds(),
	}
	s.tel.RecordSample(&rec)
	if s.tel.Tracing() {
		s.recs = append(s.recs, rec)
	}
	if s.hasFate {
		fr := telemetry.FateRecord{
			Component: spec.Component, Workload: spec.Workload,
			Faults: spec.Faults, Sample: j.idx, Seed: spec.Seed,
			InjectCycle:   j.injectAt,
			Mask:          maskPairs(s.mask),
			Fate:          s.fate.Fate.Label(),
			FirstTouchLat: s.fate.FirstTouchLat,
			DivergeCycle:  s.fate.DivergeCycle,
			Outcome:       effect.Label(),
		}
		s.tel.RecordFate(&fr)
		if s.tel.Tracing() {
			s.fates = append(s.fates, fr)
		}
	}
}

// machineAt returns a machine ready to run a sample injected at injectAt:
// rst's machine rewound to the latest golden checkpoint at or before it,
// or, when rst is nil (NoCheckpoints), a fresh machine at cycle 0 that
// replays the whole golden prefix — the oracle that cross-checks the
// checkpointed path end to end.
func (s *sampler) machineAt(rst *workloads.Restorer, injectAt uint64) (*sim.Machine, workloads.Checkpoint, error) {
	if rst == nil {
		m, err := s.w.NewMachine()
		return m, workloads.Checkpoint{Index: -1}, err
	}
	return rst.MachineAt(injectAt)
}

// sample performs a single fault-injection simulation and leaves its facts
// in the sampler. The checkpointed and NoCheckpoints paths are bit-identical
// because checkpoints capture the complete machine state and execution is
// deterministic.
func (s *sampler) sample(injectAt, maskSeed uint64) (Effect, error) {
	spec := &s.spec
	s.shadow, s.tr, s.attachErr, s.hasFate = nil, nil, nil, false
	m, ck, err := s.machineAt(s.rst, injectAt)
	s.checkpoint, s.cyclesSkipped = ck.Index, ck.Cycle
	if err != nil {
		return 0, err
	}
	if s.target, err = TargetFor(m, spec.Component); err != nil {
		return 0, err
	}
	// The mask lives in the sampler's scratch buffers until the next draw;
	// record copies what the trace keeps.
	s.pcg.Seed(maskSeed, 0xDEADBEEFCAFEF00D)
	rows, cols := s.target.Rows(), s.target.Cols()
	mask := generateMask(s.rng, rows, cols, spec.Faults, spec.Cluster, &s.masks)
	if spec.ForceSpanning {
		for tries := 0; !mask.Spanning(spec.Cluster) && tries < maxSpanningTries; tries++ {
			mask = generateMask(s.rng, rows, cols, spec.Faults, spec.Cluster, &s.masks)
		}
		if !mask.Spanning(spec.Cluster) {
			// Silently running a non-spanning mask would violate the
			// ablation's contract; fail loudly instead (e.g. a single-bit
			// fault can never span a multi-row, multi-column cluster).
			return 0, fmt.Errorf("core: no spanning %d-bit mask in a %dx%d cluster after %d draws",
				spec.Faults, spec.Cluster.Rows, spec.Cluster.Cols, maxSpanningTries)
		}
	}
	if spec.Protect.Kind != ProtectNone {
		fr := spec.Protect.Filter(mask)
		s.maskBits = len(fr.Surviving.Cells)
		switch {
		case fr.Detected:
			// Uncorrectable error signalled: machine-check abort
			// (pessimistic: modeled at injection time, see protect.go).
			// Forensically, the abort fires before any corrupted bit can
			// reach the datapath.
			s.reportFate(mask, forensics.Report{Fate: forensics.FateNeverTouched, FirstTouchLat: -1})
			return EffectCrash, nil
		case len(fr.Surviving.Cells) == 0:
			// Everything corrected: by construction the run is the golden
			// run; skip the simulation. The scrub overwrote every flip.
			s.reportFate(mask, forensics.Report{Fate: forensics.FateOverwritten, FirstTouchLat: 0})
			return EffectMasked, nil
		}
		mask = fr.Surviving
	}
	s.mask = mask
	s.maskBits = len(mask.Cells)

	// A full-forensics run replays a second, fault-free machine from the
	// same checkpoint in lockstep with the faulty one and records the first
	// cycle their architectural digests differ (stepShadow).
	var onCycle func(*sim.Machine)
	if spec.Forensics == forensics.ModeFull {
		if s.shadow, _, err = s.machineAt(s.shadowRst, injectAt); err != nil {
			return 0, err
		}
		onCycle = s.stepShadow
	}
	// The wall-clock watchdog bounds the simulation loop itself; machine
	// construction and checkpoint restore are excluded (they are bounded by
	// the workload, not by the injected fault).
	var deadline time.Time
	if spec.WallTimeout > 0 {
		deadline = time.Now().Add(spec.WallTimeout)
	}
	// Convergence exit: once every trace of the injected fault has been
	// scrubbed from the machine — overwritten cells, evicted lines, no
	// timing perturbation left — the rest of the run is, by determinism,
	// bit-identical to the golden run, so simulating it only re-derives the
	// golden outcome. Forensics modes run to completion regardless: they
	// observe the fault's lifecycle, which the exit would truncate.
	var out sim.Outcome
	if !spec.NoCheckpoints && spec.Forensics == forensics.ModeOff {
		out = s.runToConvergence(m, injectAt, s.inject, deadline)
	} else {
		out = m.RunWatched(s.limit, injectAt, s.inject, onCycle, deadline)
	}
	// Probes are wiring, not snapshot state: detach this sample's tracker
	// so the worker's reused machine runs the next sample unprobed.
	if s.tr != nil {
		s.tr.Detach()
	}
	if s.attachErr != nil {
		return 0, s.attachErr
	}
	eff := Classify(out, s.golden)
	if s.tr != nil {
		s.reportFate(mask, s.tr.Resolve(eff == EffectMasked))
	}
	return eff, nil
}

// reportFate records the resolved fault lifecycle of mask when forensics
// is on.
func (s *sampler) reportFate(mask Mask, fate forensics.Report) {
	if s.spec.Forensics != forensics.ModeOff {
		s.mask, s.fate, s.hasFate = mask, fate, true
	}
}

// inject is the faulty run's injection hook: it adds the target's
// occupancy to the telemetry sums, flips the mask and, under forensics,
// attaches a fate tracker to the flipped bits.
func (s *sampler) inject(m *sim.Machine) {
	if s.tel.Enabled() {
		if st := liveness.StructState(s.target); st.HasOcc {
			s.occ.occSum += st.Occ
			s.occ.occN++
			if st.HasDirty {
				s.occ.dirtySum += st.Dirty
				s.occ.dirtyN++
			}
		}
	}
	s.mask.Apply(s.target)
	if s.spec.Forensics != forensics.ModeOff {
		t := forensics.NewTracker(m.Core.Cycles)
		cells := make([]forensics.BitCell, len(s.mask.Cells))
		for i, c := range s.mask.Cells {
			cells[i] = forensics.BitCell{Row: c.Row, Col: c.Col}
		}
		if s.attachErr = t.Attach(s.target, cells); s.attachErr == nil {
			s.tr = t
		}
	}
}

// stepShadow is the full-forensics per-cycle hook: it steps the fault-free
// shadow in lockstep with the faulty machine and marks the first cycle
// their architectural digests differ. A timing-only divergence (same
// eventual output, different stall pattern) counts: the digest compares
// per-cycle progress, so the recorded cycle is a conservative earliest
// bound on architectural visibility.
func (s *sampler) stepShadow(m *sim.Machine) {
	s.shadow.Core.Cycle()
	if s.tr != nil && !s.tr.Diverged() && m.ArchDigest() != s.shadow.ArchDigest() {
		s.tr.MarkDiverged()
	}
}

// runToConvergence runs the faulty machine like RunWatched, but pauses at
// every golden checkpoint cycle the run crosses and compares the machine's
// complete state against that checkpoint's snapshot. On bit-equality the
// remainder of the run is deterministically the golden run, so the golden
// outcome is returned without simulating it (Classify maps it to
// EffectMasked, exactly as the full run would). The compare is exact —
// every counter and replacement stamp must match — so a fault that leaves
// any trace, architectural or timing, runs to completion as before, and the
// returned outcome is bit-identical to RunWatched's in every case.
func (c *cell) runToConvergence(m *sim.Machine, injectAt uint64, inject func(*sim.Machine), deadline time.Time) sim.Outcome {
	// First checkpoint strictly after the injection cycle: earlier ones
	// cannot witness the fault, later ones are visited in order below.
	for idx := sort.Search(len(c.ckCycles), func(i int) bool { return c.ckCycles[i] > injectAt }); idx < len(c.ckCycles); idx++ {
		seg := c.ckCycles[idx]
		if c.limit > 0 && seg >= c.limit {
			break
		}
		out := m.RunWatched(seg, injectAt, inject, nil, deadline)
		inject = nil
		if !out.TimedOut || out.WallTimedOut {
			return out // stopped (or was wall-killed) before the crossing
		}
		if m.EqualsSnapshot(c.ckSnaps[idx]) {
			return sim.Outcome{
				Stop:      cpu.StopExit,
				ExitCode:  c.golden.ExitCode,
				Stdout:    c.golden.Stdout,
				Cycles:    c.golden.Cycles,
				Committed: c.golden.Committed,
			}
		}
	}
	return m.RunWatched(c.limit, injectAt, inject, nil, deadline)
}

// CellKey identifies one campaign cell inside a ResultSet.
type CellKey struct {
	Component string
	Workload  string
	Faults    int
}

// Key returns the spec's cell identity — the coordinate the ResultSet,
// resume logic and campaign service all address cells by. Two specs with
// the same Key may still not be Equivalent (different seed, samples,
// protection, ...): Key locates a cell, Equivalent decides whether a
// stored result answers it.
func (s Spec) Key() CellKey {
	return CellKey{Component: s.Component, Workload: s.Workload, Faults: s.Faults}
}

// ResultSet collects the full campaign grid (components x workloads x
// cardinalities) for the analysis and reporting layers.
type ResultSet struct {
	Cells map[CellKey]*Result
}

// NewResultSet returns an empty result set.
func NewResultSet() *ResultSet {
	return &ResultSet{Cells: make(map[CellKey]*Result)}
}

// Add stores a result under its cell key.
func (rs *ResultSet) Add(r *Result) {
	rs.Cells[r.Spec.Key()] = r
}

// Get returns the result for a cell, or an error naming the missing cell.
func (rs *ResultSet) Get(component, workload string, faults int) (*Result, error) {
	r, ok := rs.Cells[CellKey{component, workload, faults}]
	if !ok {
		return nil, fmt.Errorf("core: no result for %s/%s/%d-bit", component, workload, faults)
	}
	return r, nil
}
