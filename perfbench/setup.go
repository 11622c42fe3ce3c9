package main

import (
	"time"

	"mbusim/internal/workloads"
)

// setupTimes splits one set-up of a workload's programs by layer: MiniC
// compile (minic, asm), the golden run and the K-checkpoint build
// (workloads over sim).
type setupTimes struct {
	CompileS      float64 `json:"compile_s"`
	GoldenS       float64 `json:"golden_s"`
	CheckpointsS  float64 `json:"checkpoints_s"`
	GoldenMcycles float64 `json:"golden_mcycles"`
}

func (s setupTimes) total() float64 { return s.CompileS + s.GoldenS + s.CheckpointsS }

// runSetup compiles each program, derives its golden reference and builds
// its checkpoint set through the public workloads API, timing each step.
// Every step is once-guarded per process, so only the first call in a
// process measures anything.
func runSetup(programs []string, sp *spanLog) (setupTimes, error) {
	var st setupTimes
	for _, p := range programs {
		w, err := workloads.ByName(p)
		if err != nil {
			return st, err
		}
		t := time.Now()
		if _, err := w.Program(); err != nil {
			return st, err
		}
		st.CompileS += sp.since("setup", "Workload.Program", p, t).Seconds()
		t = time.Now()
		g, err := w.Reference()
		if err != nil {
			return st, err
		}
		st.GoldenS += sp.since("setup", "Workload.Reference", p, t).Seconds()
		st.GoldenMcycles += float64(g.Cycles) / 1e6
		t = time.Now()
		if _, err := w.CheckpointCycles(); err != nil {
			return st, err
		}
		st.CheckpointsS += sp.since("setup", "Workload.CheckpointCycles", p, t).Seconds()
	}
	return st, nil
}
