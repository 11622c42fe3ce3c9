package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
)

// TestPhaseReplayAgreement: the phase replay must reproduce the campaign's
// outcome counts on a tiny cell, on both the convergence-exit path and the
// forensics path.
func TestPhaseReplayAgreement(t *testing.T) {
	specs := []core.Spec{
		{Workload: "stringSearch", Component: "RegFile", Faults: 2, Samples: 8, Seed: cellSeed(7, 0)},
		{Workload: "stringSearch", Component: "L1D", Faults: 1, Samples: 6, Seed: cellSeed(7, 1)},
	}
	rs := core.NewResultSet()
	for _, s := range specs {
		r, err := core.Run(context.Background(), s, nil)
		if err != nil {
			t.Fatal(err)
		}
		rs.Add(r)
	}
	for _, mode := range []forensics.Mode{forensics.ModeOff, forensics.ModeFast} {
		acc, err := replayCells(specs, rs, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if acc.samples != 14 {
			t.Errorf("%v: replayed %d samples, want 14", mode, acc.samples)
		}
		if mode == forensics.ModeOff && acc.compares == 0 {
			t.Errorf("convergence path made no compares")
		}
	}

	// A replay of a different computation must be refused, not published.
	other := core.NewResultSet()
	r := *rs.Cells[specs[0].Key()]
	r.Counts[core.EffectMasked]++
	other.Add(&r)
	other.Add(rs.Cells[specs[1].Key()])
	if _, err := replayCells(specs, other, forensics.ModeOff); err == nil {
		t.Error("replay accepted counts that differ from the campaign's")
	}
}

// TestParseDispatchFixture folds a fixed service event log, in the exact
// line format /dispatch/events serves (a warm-up campaign, then a
// two-campaign burst with one expired and retried lease), into the
// dispatch.* statistics.
func TestParseDispatchFixture(t *testing.T) {
	data, err := os.ReadFile("testdata/events.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	evs, err := readEvents(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	burst := map[string]bool{"c000002": true, "c000003": true}
	st := parseDispatch(evs, burst)
	if st.cellsDone != 4 || st.samples != 12 {
		t.Errorf("cells done %d, samples %d; want 4, 12", st.cellsDone, st.samples)
	}
	if st.firstLeased != 1_700_000_001_000_000_000 || st.lastDone != 1_700_000_001_400_000_000 {
		t.Errorf("timed region %d..%d", st.firstLeased, st.lastDone)
	}
	if st.heartbeats != 1 || st.retries != 1 || st.expired != 1 || len(st.troubled) != 1 {
		t.Errorf("heartbeats %d retries %d expired %d troubled %v", st.heartbeats, st.retries, st.expired, st.troubled)
	}
	if len(st.cellMS) != 4 || st.cellMS[0] != 50 {
		t.Errorf("cell times %v", st.cellMS)
	}
	if st.leaseGapMS != 10 {
		t.Errorf("lease gap %v ms, want 10", st.leaseGapMS)
	}
	if got := artifactSeconds(evs, map[string]bool{"c000001": true}); got != 0.2 {
		t.Errorf("artifact seconds %v, want 0.2", got)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestNames: every metric and workload name is well-formed and unique.
func TestNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("bad name %q", name)
		}
		if seen[name] {
			t.Errorf("name %q used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloadList {
		check(w.name)
	}
	for _, m := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		check(m.name)
		if !unitRE.MatchString(m.unit) {
			t.Errorf("%s: bad unit %q", m.name, m.unit)
		}
		if m.better != "higher" && m.better != "lower" {
			t.Errorf("%s: better %q", m.name, m.better)
		}
	}
	for _, p := range selfPackages {
		if !seen["self."+p] {
			t.Errorf("self bucket %s has no per-layer metric", p)
		}
	}
}

// TestBenchmarkJSON: BENCHMARK.json lists exactly the workloads and
// metrics this package measures, and every per-layer metric names the
// end-to-end metric and the workloads it should move.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadList) {
		t.Fatalf("%d workloads, want %d", len(b.Workloads), len(workloadList))
	}
	workloads := map[string]bool{}
	for i, w := range b.Workloads {
		if w.Name != workloadList[i].name {
			t.Errorf("workload %d is %q, want %q", i, w.Name, workloadList[i].name)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
		workloads[w.Name] = true
	}
	e2e := map[string]bool{}
	maxBound := 0.0
	for i, m := range b.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end %d is %+v, want %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
		e2e[m.Name] = true
	}
	for _, m := range b.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, package measures %d+%d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer %d is %+v, want %+v", i, m, d)
		}
		if !e2e[d.moves] {
			t.Errorf("%s moves %q, not an end-to-end metric", d.name, d.moves)
		}
		if len(d.on) == 0 {
			t.Errorf("%s names no workload", d.name)
		}
		for _, w := range d.on {
			if !workloads[w] {
				t.Errorf("%s moves %s on unknown workload %q", d.name, d.moves, w)
			}
		}
	}
	if len(b.Paths) != 1 || b.Paths[0] != "perfbench" || b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", b.Paths, b.RunSeconds)
	}
}

// TestSelfShares decodes a real CPU profile of this process.
func TestSelfShares(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	b := make([]uint32, 1<<16)
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		refSink ^= refKernel(b)
	}
	pprof.StopCPUProfile()
	shares, err := selfShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if len(shares) != len(selfPackages) || sum < 99.9 || sum > 100.1 {
		t.Errorf("shares %v sum to %v", shares, sum)
	}
	if shares["other"] < 50 {
		t.Errorf("the test's own kernel should dominate bucket other: %v", shares)
	}
}

func TestFuncPackage(t *testing.T) {
	for sym, want := range map[string]string{
		"mbusim/internal/cpu.(*Core).Cycle":          "mbusim/internal/cpu",
		"runtime.mallocgc":                           "runtime",
		"net/http.(*conn).serve":                     "net/http",
		"mbusim/internal/dispatch.routed[...].func1": "mbusim/internal/dispatch",
	} {
		if got := funcPackage(sym); got != want {
			t.Errorf("funcPackage(%q) = %q, want %q", sym, got, want)
		}
	}
}

func TestSamplesPerCell(t *testing.T) {
	for _, w := range workloadList {
		specs := w.cells(1, 15)
		if len(specs) != w.numCells() {
			t.Errorf("%s: %d cells, want %d", w.name, len(specs), w.numCells())
		}
		for _, i := range append(append([]int{}, w.oracle...), w.replay...) {
			if i < 0 || i >= len(specs) {
				t.Errorf("%s: cell index %d out of range", w.name, i)
			}
		}
		if a, b := w.cells(1, 15), w.cells(2, 15); a[0].Seed == b[0].Seed {
			t.Errorf("%s: seed does not reach the cells", w.name)
		}
	}
}
