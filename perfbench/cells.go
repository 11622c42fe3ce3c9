package main

import (
	"fmt"
	"math"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
)

// benchWorkload is one fixed, seeded list of campaign cells. The list is
// the cross product programs x components x cardinalities, in that nesting
// order; the work per cell scales with --seconds so that one run measures
// roughly that long on the host the rates were measured on.
type benchWorkload struct {
	name       string
	programs   []string
	components []string
	faults     []int
	mode       forensics.Mode
	fleet      bool

	// rate is the classified injections per second one simulation thread
	// sustained on this workload on a 2-vCPU Xeon virtual machine; with
	// --seconds it sizes Samples per cell.
	rate float64
	// oracle lists the cell indices re-run under Spec.NoCheckpoints (and,
	// for fleet, compared against the service's results) after the timed
	// region.
	oracle []int
	// replay lists the cell indices the traced run replays phase by phase.
	replay []int
}

var (
	midPrograms   = []string{"qsort", "dijkstra", "rijndael_dec"}
	latentComps   = []string{"L1D", "L1I", "L2", "DTLB", "ITLB"}
	allComps      = []string{"L1D", "L1I", "L2", "RegFile", "DTLB", "ITLB"}
	allFaults     = []int{1, 2, 3}
	fleetPrograms = []string{"stringSearch", "susan_c", "djpeg", "sha"}
)

// workloadList is every workload the benchmark knows, in BENCHMARK.json
// order.
var workloadList = []*benchWorkload{
	{
		name: "latent", programs: midPrograms, components: latentComps, faults: allFaults,
		rate: 9, oracle: []int{0, 20}, replay: []int{0, 7, 16, 23, 29, 34, 42},
	},
	{
		name: "converging", programs: midPrograms, components: []string{"RegFile"}, faults: allFaults,
		rate: 20, oracle: []int{1}, replay: []int{0, 4, 8},
	},
	{
		name: "forensics", programs: midPrograms, components: latentComps, faults: []int{2},
		mode: forensics.ModeFast,
		rate: 9, oracle: []int{5}, replay: []int{0, 6, 12},
	},
	{
		name: "fleet", programs: fleetPrograms, components: allComps, faults: allFaults, fleet: true,
		rate: 77, oracle: []int{0, 21, 47, 70}, replay: []int{3, 22, 45, 62},
	},
}

func workloadByName(name string) (*benchWorkload, error) {
	for _, w := range workloadList {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// numCells is the length of the workload's cell list.
func (w *benchWorkload) numCells() int {
	return len(w.programs) * len(w.components) * len(w.faults)
}

// samplesPerCell sizes the cells so the timed region lasts about seconds
// on the host the rates were measured on. It depends only on the workload
// and --seconds, never on the host running it, so runs of one seed always
// do the same work.
func (w *benchWorkload) samplesPerCell(seconds int) int {
	n := int(math.Round(float64(seconds) * w.rate / float64(w.numCells())))
	return max(n, 1)
}

// cells returns the workload's cell list for one seed. Each cell draws its
// own Spec.Seed from the workload seed and the cell's index: core derives
// inject cycles from Spec.Seed alone, so cells sharing one seed would
// replay identical inject cycles in every component and cardinality.
func (w *benchWorkload) cells(seed uint64, seconds int) []core.Spec {
	samples := w.samplesPerCell(seconds)
	specs := make([]core.Spec, 0, w.numCells())
	for _, p := range w.programs {
		for _, c := range w.components {
			for _, k := range w.faults {
				specs = append(specs, core.Spec{
					Workload: p, Component: c, Faults: k, Samples: samples,
					Seed:      cellSeed(seed, len(specs)),
					Forensics: w.mode,
				})
			}
		}
	}
	return specs
}

// cellSeed mixes the workload seed and a cell index with splitmix64.
func cellSeed(seed uint64, index int) uint64 {
	return splitmix(seed ^ splitmix(uint64(index)+1))
}

func splitmix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// pick returns the specs at the given indices.
func pick(specs []core.Spec, idx []int) []core.Spec {
	out := make([]core.Spec, 0, len(idx))
	for _, i := range idx {
		out = append(out, specs[i])
	}
	return out
}
