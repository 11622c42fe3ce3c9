package workloads

import (
	"fmt"
	"sort"

	"mbusim/internal/sim"
)

// Golden checkpoints: every fault-injection run replays the deterministic
// fault-free prefix of its workload up to the injection cycle, so on
// average half of each run is redundant work. A checkpoint set records K
// evenly spaced machine snapshots during a single instrumented golden run;
// a Restorer then fast-forwards its machine to the nearest checkpoint at
// or before the injection cycle, cutting the average replayed prefix from
// G/2 to G/(2K) cycles. Because snapshots capture the complete
// machine state, the fast-forwarded run is bit-identical to a from-scratch
// run (enforced by TestCheckpointEquivalence in internal/core).

// CheckpointCount is K, the number of evenly spaced golden checkpoints
// recorded per workload (including one at cycle 0). It is read when a
// workload's checkpoint set is first built — once per workload per
// process — so set it before any campaign runs. Values below 1 behave
// like 1.
var CheckpointCount = 8

// buildCheckpoints records the checkpoint set during one golden run.
func (w *Workload) buildCheckpoints() {
	w.ckptOnce.Do(func() {
		g, err := w.Reference()
		if err != nil {
			w.ckptErr = err
			return
		}
		m, err := w.NewMachine()
		if err != nil {
			w.ckptErr = err
			return
		}
		k := CheckpointCount
		if k < 1 {
			k = 1
		}
		for i := 0; i < k; i++ {
			target := g.Cycles * uint64(i) / uint64(k)
			if target > m.Core.Cycles() {
				out := m.Run(target, 0, nil)
				if !out.TimedOut {
					// The golden run completes at g.Cycles and every target
					// is below that, so stopping early means the golden
					// reference and this replay diverged.
					w.ckptErr = fmt.Errorf("workloads: %s: checkpoint replay stopped at cycle %d (%v) before target %d",
						w.Name, out.Cycles, out.Stop, target)
					return
				}
			}
			if n := len(w.ckptCycles); n > 0 && w.ckptCycles[n-1] == m.Core.Cycles() {
				continue // tiny workload: targets collapsed onto one cycle
			}
			w.ckptCycles = append(w.ckptCycles, m.Core.Cycles())
			w.ckptSnaps = append(w.ckptSnaps, m.Snapshot())
		}
	})
}

// GoldenCheckpoints returns the cycles and snapshots of the workload's
// golden checkpoint set in ascending cycle order, building the set on
// first use. The returned slices are shared and must not be modified; the
// snapshots are immutable. The campaign's convergence exit compares a
// faulty machine against snaps[i] when its run crosses cycles[i].
func (w *Workload) GoldenCheckpoints() (cycles []uint64, snaps []*sim.Snapshot, err error) {
	w.buildCheckpoints()
	if w.ckptErr != nil {
		return nil, nil, w.ckptErr
	}
	return w.ckptCycles, w.ckptSnaps, nil
}

// CheckpointCycles returns the cycles of the workload's golden checkpoint
// set, building it on first use (diagnostics and tests).
func (w *Workload) CheckpointCycles() ([]uint64, error) {
	w.buildCheckpoints()
	if w.ckptErr != nil {
		return nil, w.ckptErr
	}
	return append([]uint64(nil), w.ckptCycles...), nil
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
// checkpoint set always includes cycle 0, so any cycle resolves; the set is
// built on first use.
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
