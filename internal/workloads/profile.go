package workloads

import (
	"fmt"
	"time"

	"mbusim/internal/liveness"
)

// Profile runs the workload's fault-free reference once under the liveness
// profiler and returns the resulting occupancy/ACE profile, stamped with
// the workload name and image hash so artifacts are self-identifying. The
// golden run is derived first (or installed from a cached artifact), which
// pins the expected cycle count: the profiled run must reproduce it
// exactly, otherwise the probes themselves would have perturbed execution
// and the profile would describe a machine that never runs in a campaign.
func (w *Workload) Profile(windows int) (*liveness.Profile, error) {
	golden, err := w.Reference()
	if err != nil {
		return nil, err
	}
	prog, err := w.Program()
	if err != nil {
		return nil, err
	}
	m, err := w.NewMachine()
	if err != nil {
		return nil, err
	}
	prof := liveness.NewProfiler(m, golden.Cycles, windows)
	out := m.RunWatched(golden.Cycles+1, 0, nil, prof.OnCycle, time.Time{})
	if out.Stop.String() != "exit" || out.ExitCode != golden.ExitCode || out.Cycles != golden.Cycles {
		return nil, fmt.Errorf("workloads: profiled run of %s diverged from golden: stop=%v exit=%d cycles=%d (want exit=%d cycles=%d)",
			w.Name, out.Stop, out.ExitCode, out.Cycles, golden.ExitCode, golden.Cycles)
	}
	p := prof.Finish(out.Cycles)
	p.Workload = w.Name
	p.ImageHash = HashImage(prog)
	return p, nil
}
