package workloads

import (
	"sort"

	"mbusim/internal/sim"
)

// Golden checkpoints: every fault-injection run replays the deterministic
// fault-free prefix of its workload up to the injection cycle, so on
// average half of each run is redundant work. The golden run records a
// checkpoint set of K to 2K-1 evenly spaced machine snapshots as it goes;
// a Restorer then fast-forwards its machine to the nearest checkpoint at
// or before the injection cycle, cutting the average replayed prefix from
// G/2 to about half a stride, below G/(2K-2) cycles. Because snapshots
// capture the complete machine state, the fast-forwarded run is
// bit-identical to a from-scratch run (enforced by
// TestCheckpointEquivalence in internal/core).

// CheckpointCount is K: the golden run ends with K to 2K-1 evenly spaced
// checkpoints (including one at cycle 0), fewer only for a run of at most
// (K-1)*checkpointStride cycles. It is read when a workload's golden run
// is first derived — once per workload per process — so set it before any
// campaign runs. Values below 1 behave like 1.
var CheckpointCount = 8

// checkpointCount returns CheckpointCount clamped to at least 1.
func checkpointCount() int { return max(CheckpointCount, 1) }

// checkpointStride is the initial spacing of the checkpoint set in cycles.
// A power of two, so every later spacing is one as well.
const checkpointStride = 1 << 10

// goldenLimit bounds the golden run in simulated cycles.
const goldenLimit = 500_000_000

// runRecording runs m to completion (or goldenLimit), snapshotting it at
// its current cycle and then every stride cycles, starting at
// checkpointStride. When a snapshot falls due while 2k-1 are held, it
// keeps every other one and doubles the stride instead, so the cycle G at
// which the run ends need not be known in advance. It returns snapshots
// one stride apart, all taken before the machine stopped: k to 2k-1 of
// them, fewer only when G is at most (k-1)*checkpointStride.
func runRecording(m *sim.Machine, k int) (out sim.Outcome, cycles []uint64, snaps []*sim.Snapshot) {
	cycles, snaps = []uint64{m.Core.Cycles()}, []*sim.Snapshot{m.Snapshot()}
	for stride := uint64(checkpointStride); ; {
		out = m.Run(min(cycles[len(cycles)-1]+stride, goldenLimit), 0, nil)
		if !out.TimedOut || out.Cycles >= goldenLimit {
			return out, cycles, snaps
		}
		if len(snaps) < 2*k-1 {
			cycles, snaps = append(cycles, out.Cycles), append(snaps, m.Snapshot())
			continue
		}
		// The set is full, and the due cycle (2k-1)*stride is not a
		// multiple of the doubled stride: thin the set instead of taking
		// a snapshot the thinning would drop.
		for i := 1; i < k; i++ {
			cycles[i], snaps[i] = cycles[2*i], snaps[2*i]
		}
		clear(snaps[k:])
		cycles, snaps = cycles[:k], snaps[:k]
		stride *= 2
	}
}

// GoldenCheckpoints returns the cycles and snapshots of the workload's
// golden checkpoint set in ascending cycle order, deriving the golden run
// on first use. The returned slices are shared and must not be modified;
// the snapshots are immutable. The campaign's convergence exit compares a
// faulty machine against snaps[i] when its run crosses cycles[i].
func (w *Workload) GoldenCheckpoints() (cycles []uint64, snaps []*sim.Snapshot, err error) {
	w.deriveGolden()
	if w.goldenErr != nil {
		return nil, nil, w.goldenErr
	}
	return w.ckptCycles, w.ckptSnaps, nil
}

// CheckpointCycles returns the cycles of the workload's golden checkpoint
// set, deriving the golden run on first use (diagnostics and tests).
func (w *Workload) CheckpointCycles() ([]uint64, error) {
	cycles, _, err := w.GoldenCheckpoints()
	return append([]uint64(nil), cycles...), err
}

// Checkpoint identifies one golden checkpoint: its index within the
// workload's checkpoint set and the cycle its snapshot was taken at.
// Index 0 is always the cycle-0 checkpoint, so a restore from it skips
// nothing — campaign telemetry counts those as checkpoint misses.
type Checkpoint struct {
	Index int
	Cycle uint64
}

// Restorer hands out checkpoint-restored machines. It owns one machine
// that it rewinds by delta restore between calls instead of building a
// fresh machine each time: consecutive requests that resolve to the same
// checkpoint pay only for the state the previous run dirtied, and a
// checkpoint switch (or the first call) transparently falls back to a full
// restore. The returned machine is bit-identical to a from-scratch replay
// to the same checkpoint — enforced by TestCheckpointEquivalence — but it
// is only valid until the next MachineAt call on the same Restorer, and
// the caller must detach any probes it installed before that call. A
// Restorer is not safe for concurrent use; campaigns create one per
// worker.
type Restorer struct {
	w     *Workload
	m     *sim.Machine
	dirty *sim.Dirty
}

// NewRestorer returns a Restorer for the workload, creating no machine yet.
func (w *Workload) NewRestorer() *Restorer { return &Restorer{w: w} }

// MachineAt returns the Restorer's machine rewound to the latest golden
// checkpoint at or before cycle, and which checkpoint that was. The
// checkpoint set always includes cycle 0, so any cycle resolves; the golden
// run that records the set is derived on first use.
func (r *Restorer) MachineAt(cycle uint64) (*sim.Machine, Checkpoint, error) {
	cycles, snaps, err := r.w.GoldenCheckpoints()
	if err != nil {
		return nil, Checkpoint{}, err
	}
	i := max(sort.Search(len(cycles), func(i int) bool { return cycles[i] > cycle })-1, 0)
	if r.m == nil {
		r.m = sim.New(snaps[i].Cfg)
	}
	r.dirty = r.m.RestoreDelta(snaps[i], r.dirty)
	return r.m, Checkpoint{Index: i, Cycle: cycles[i]}, nil
}
