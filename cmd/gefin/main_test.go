package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/telemetry"
)

// gefin runs in-process through run(), so tests exercise the real flag
// parsing, validation, resume and flush paths without exec'ing a binary.
func runGefin(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errB bytes.Buffer
	code = run(args, &out, &errB)
	return code, out.String(), errB.String()
}

// tinyGrid is the arg list for a fast 3-cell grid (one component, one
// workload, cardinalities 1..3).
func tinyGrid(extra ...string) []string {
	return append([]string{"-all", "-comp", "L1D", "-workload", "stringSearch", "-samples", "3", "-q"}, extra...)
}

func TestBadCardinalityExitsCleanly(t *testing.T) {
	// Regression: -faults 0 used to panic in GenerateMask inside a worker
	// goroutine with a raw stack trace.
	code, _, stderr := runGefin(t, "-workload", "CRC32", "-comp", "L1D", "-faults", "0", "-samples", "1")
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, "cardinality") || strings.Contains(stderr, "goroutine") {
		t.Fatalf("want a one-line cardinality error, got: %s", stderr)
	}
}

func TestTypoInAllListsExitsUpFront(t *testing.T) {
	code, _, stderr := runGefin(t, "-all", "-comp", "L1d", "-samples", "1")
	if code != 2 || !strings.Contains(stderr, "unknown component") {
		t.Fatalf("component typo: exit=%d stderr=%s", code, stderr)
	}
	code, _, stderr = runGefin(t, "-all", "-comp", "L1D", "-workload", "CRC32,bogus", "-samples", "1")
	if code != 2 || !strings.Contains(stderr, "unknown workload") {
		t.Fatalf("workload typo: exit=%d stderr=%s", code, stderr)
	}
}

func TestMissingCellFlags(t *testing.T) {
	code, _, stderr := runGefin(t, "-samples", "1")
	if code != 2 || !strings.Contains(stderr, "-workload and -comp") {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
}

func TestResumeRequiresOut(t *testing.T) {
	code, _, stderr := runGefin(t, append(tinyGrid(), "-resume")...)
	if code != 2 || !strings.Contains(stderr, "-resume needs -out") {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
}

func TestGridRunsAndResumeIsNoOp(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	code, _, stderr := runGefin(t, tinyGrid("-out", path)...)
	if code != 0 {
		t.Fatalf("grid run failed: %d (%s)", code, stderr)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := core.LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Cells) != 3 {
		t.Fatalf("grid wrote %d cells, want 3", len(rs.Cells))
	}

	// Re-running with -resume must take the no-op fast path: every cell is
	// covered, nothing runs, the file is untouched.
	code, _, stderr = runGefin(t, tinyGrid("-out", path, "-resume")...)
	if code != 0 {
		t.Fatalf("resume no-op failed: %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "3 of 3 cells already complete") || !strings.Contains(stderr, "nothing to do") {
		t.Fatalf("no-op fast path not reported: %s", stderr)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Fatal("no-op resume rewrote the results file")
	}
}

// TestResumeCompletesPartialFile: a results file holding a strict subset of
// the grid (as an interrupted campaign leaves behind) is completed by
// -resume into exactly what an uninterrupted gefin run produces.
func TestResumeCompletesPartialFile(t *testing.T) {
	dir := t.TempDir()
	fullPath := filepath.Join(dir, "full.json")
	partPath := filepath.Join(dir, "partial.json")

	code, _, stderr := runGefin(t, tinyGrid("-out", fullPath)...)
	if code != 0 {
		t.Fatalf("reference run failed: %d (%s)", code, stderr)
	}
	full, err := core.LoadResultSet(fullPath)
	if err != nil {
		t.Fatal(err)
	}

	// Fabricate the interrupted state: only the 1-bit cell is on disk.
	partial := core.NewResultSet()
	r, err := full.Get("L1D", "stringSearch", 1)
	if err != nil {
		t.Fatal(err)
	}
	partial.Add(r)
	if err := partial.Save(partPath); err != nil {
		t.Fatal(err)
	}

	code, _, stderr = runGefin(t, tinyGrid("-out", partPath, "-resume")...)
	if code != 0 {
		t.Fatalf("resume failed: %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "1 of 3 cells already complete") {
		t.Fatalf("skip accounting wrong: %s", stderr)
	}
	want, _ := os.ReadFile(fullPath)
	got, _ := os.ReadFile(partPath)
	if !bytes.Equal(got, want) {
		t.Fatal("resumed results file not byte-identical to uninterrupted run")
	}
}

func TestResumeMissingFileStartsFresh(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	code, _, stderr := runGefin(t, tinyGrid("-out", path, "-resume")...)
	if code != 0 {
		t.Fatalf("resume-from-nothing failed: %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "starting fresh") {
		t.Fatalf("missing-file path not reported: %s", stderr)
	}
	if _, err := core.LoadResultSet(path); err != nil {
		t.Fatal(err)
	}
}

// TestTraceRoundTrip: -trace must write one parseable JSONL record per
// injection sample, grouped by cell, and the per-outcome counts in the
// trace must agree exactly with the results file.
func TestTraceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	outPath := filepath.Join(dir, "r.json")
	trPath := filepath.Join(dir, "trace.jsonl")
	code, _, stderr := runGefin(t, tinyGrid("-out", outPath, "-trace", trPath)...)
	if code != 0 {
		t.Fatalf("traced run failed: %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "wrote "+trPath) {
		t.Fatalf("trace path not reported: %s", stderr)
	}

	f, err := os.Open(trPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 9 { // 3 cells x 3 samples
		t.Fatalf("trace has %d records, want 9", len(recs))
	}

	rs, err := core.LoadResultSet(outPath)
	if err != nil {
		t.Fatal(err)
	}
	for faults := 1; faults <= 3; faults++ {
		res, err := rs.Get("L1D", "stringSearch", faults)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]int{}
		for _, rec := range recs {
			if rec.Faults == faults {
				got[rec.Outcome]++
			}
		}
		for _, e := range core.Effects() {
			if got[e.Label()] != res.Counts[e] {
				t.Errorf("faults=%d outcome %s: trace %d, results %d",
					faults, e.Label(), got[e.Label()], res.Counts[e])
			}
		}
	}
}

// TestMetricsEndpointServes: -metrics-addr with port 0 must bind, report
// the resolved address on stderr, and serve the campaign registry.
func TestMetricsEndpointServes(t *testing.T) {
	code, _, stderr := runGefin(t, tinyGrid("-metrics-addr", "127.0.0.1:0")...)
	if code != 0 {
		t.Fatalf("metrics run failed: %d (%s)", code, stderr)
	}
	if !strings.Contains(stderr, "metrics: serving http://127.0.0.1:") {
		t.Fatalf("resolved metrics address not reported: %s", stderr)
	}
}

func TestStatusLine(t *testing.T) {
	s := telemetry.Summary{
		Samples: 50, SamplesExpected: 100,
		ByOutcome: map[string]int64{"masked": 40, "sdc": 10},
		Cells:     5, CellsExpected: 10,
		CheckpointHits: 45, CheckpointMiss: 5,
	}
	line := statusLine(s, 10*time.Second)
	for _, want := range []string{
		"50/100 samples", "(5.0/s)", "masked 80.0%", "sdc 20.0%",
		"cells 5/10", "ckpt hit 90%", "eta 10s",
	} {
		if !strings.Contains(line, want) {
			t.Errorf("status line missing %q: %s", want, line)
		}
	}
}

// TestStatusLineZeroElapsed: on the first tick the elapsed window can
// round to zero; the throughput must render as a placeholder, not "+Inf/s",
// and the meaningless ETA must be suppressed.
func TestStatusLineZeroElapsed(t *testing.T) {
	s := telemetry.Summary{Samples: 50, SamplesExpected: 100}
	for _, elapsed := range []time.Duration{0, -time.Second} {
		line := statusLine(s, elapsed)
		if strings.Contains(line, "Inf") || strings.Contains(line, "NaN") {
			t.Errorf("degenerate rate leaked: %s", line)
		}
		if !strings.Contains(line, "(--/s)") {
			t.Errorf("placeholder rate missing: %s", line)
		}
		if strings.Contains(line, "eta") {
			t.Errorf("eta rendered without a measured rate: %s", line)
		}
	}
}

// TestCellLineNoCompletedCells: with zero completed cells there is no pace
// to extrapolate; the ETA must render as a placeholder instead of the
// division-by-zero absurdity ("eta 2562047h47m16s").
func TestCellLineNoCompletedCells(t *testing.T) {
	res := &core.Result{Spec: core.Spec{Workload: "sha", Component: "L1D", Faults: 1}}
	res.Counts[core.EffectMasked] = 4
	line := cellLine(0, 10, res.Spec, res, time.Now().Add(-time.Second))
	if !strings.Contains(line, "eta --") {
		t.Errorf("placeholder eta missing: %s", line)
	}
	if strings.Contains(line, "2562047") {
		t.Errorf("overflow eta leaked: %s", line)
	}
	// The normal path still extrapolates.
	line = cellLine(5, 10, res.Spec, res, time.Now().Add(-10*time.Second))
	if !strings.Contains(line, "eta 10s") {
		t.Errorf("normal eta broken: %s", line)
	}
}

// TestJoinServeFlagConflicts: worker mode takes its grid and its output
// from the coordinator, so combining -join with coordinator-side flags is
// a configuration error, caught before any golden run is built.
func TestJoinServeFlagConflicts(t *testing.T) {
	code, _, stderr := runGefin(t, "-join", "localhost:1", "-serve", ":0")
	if code != 2 || !strings.Contains(stderr, "mutually exclusive") {
		t.Fatalf("-join -serve: exit=%d stderr=%s", code, stderr)
	}
	for _, extra := range [][]string{
		{"-all"},
		{"-out", "r.json"},
		{"-out", "r.json", "-resume"},
	} {
		code, _, stderr := runGefin(t, append([]string{"-join", "localhost:1"}, extra...)...)
		if code != 2 || !strings.Contains(stderr, "-serve side") {
			t.Fatalf("-join %v: exit=%d stderr=%s", extra, code, stderr)
		}
	}
}

// TestEveryFlagDeclaresItsModes: a flag defined without naming the modes
// that accept it would be rejected in every mode.
func TestEveryFlagDeclaresItsModes(t *testing.T) {
	fs, accepts := newFlags(&config{}, io.Discard)
	fs.VisitAll(func(f *flag.Flag) {
		if accepts[f.Name] == 0 {
			t.Errorf("-%s declares no modes", f.Name)
		}
	})
	// -h prints the same declaration.
	if _, _, stderr := runGefin(t, "-h"); !strings.Contains(stderr, "[local, serve, submit, profile]") {
		t.Errorf("-h does not list -workload's modes:\n%s", stderr)
	}
}

// TestUnusedFlagsRejected: a flag the mode does not use is a configuration
// error naming the flag and the mode, not a silently ignored option.
func TestUnusedFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-serve", ":0", "-service-dir", "d", "-samples", "5"}, "-samples is not used in service mode"},
		{[]string{"-campaigns", "h", "-all"}, "-all is not used in campaigns mode"},
		{[]string{"-join", "h", "-nockpt"}, "-nockpt is not used in join mode"},
		{[]string{"-watch", "h", "-submit", "h"}, "-submit and -watch are mutually exclusive"},
		{[]string{"-profile", "d", "-comp", "L1D"}, "-comp is not used in profile mode"},
		// A profile observes one fresh golden run, so no execution-strategy
		// knob applies to it.
		{[]string{"-profile", "d", "-nockpt"}, "-nockpt is not used in profile mode"},
	} {
		code, _, stderr := runGefin(t, tc.args...)
		if code != 2 || !strings.Contains(stderr, tc.want) {
			t.Errorf("%v: exit=%d stderr=%q, want 2 with %q", tc.args, code, stderr, tc.want)
		}
	}
}

// TestRealInvocationsResolve parses the command lines the benchmark, CI and
// README run, and checks each selects the intended mode with no rejection.
func TestRealInvocationsResolve(t *testing.T) {
	for _, tc := range []struct {
		line string
		want mode
	}{
		// perfbench's fleet: the service and its worker.
		{"-serve 127.0.0.1:0 -service-dir svc -q", modeService},
		{"-join 127.0.0.1:9331 -worker-id bench -cache-dir cache -metrics-addr 127.0.0.1:0 -q", modeJoin},
		// CI's chaos job.
		{"-all -comp L1D -workload CRC32 -samples 50 -q -out /tmp/ref.json", modeLocal},
		{"-serve 127.0.0.1:9331 -service-dir /tmp/svc -lease-ttl 2s", modeService},
		{"-all -comp L1D -workload CRC32 -samples 50 -q -submit 127.0.0.1:9331 -tenant ci -name chaos", modeSubmit},
		{"-join 127.0.0.1:9331 -worker-id victim -cache-dir /tmp/artcache", modeJoin},
		{"-join 127.0.0.1:9331 -worker-id survivor -cache-dir /tmp/artcache -metrics-addr 127.0.0.1:9322", modeJoin},
		{"-all -comp L1D -workload CRC32 -samples 50 -q -submit 127.0.0.1:9331 -tenant ci -name chaos -campaign-out /tmp/dist.json", modeSubmit},
		// CI's smoke (observability) job.
		{"-all -comp L1D -workload CRC32 -samples 4 -out /tmp/r.json -trace /tmp/trace.jsonl -metrics-addr 127.0.0.1:9321 -status 2s", modeLocal},
		{"-all -comp L1D -workload CRC32 -samples 4 -out /tmp/r.json -resume", modeLocal},
		{"-all -comp L1D -workload CRC32 -samples 4 -forensics -trace /tmp/ftrace.jsonl", modeLocal},
		{"-profile /tmp/profiles -workload CRC32 -windows 16", modeProfile},
		// README.
		{"-workload CRC32 -comp L1D -faults 2 -samples 200", modeLocal},
		{"-all -samples 120 -out results.json", modeLocal},
		{"-all -samples 1000 -out results.json -serve :9321", modeServe},
		{"-join service-host:9321", modeJoin},
		{"-serve :9321 -service-dir /var/lib/mbusim", modeService},
		{"-all -comp L1D -samples 1000 -submit host:9321 -tenant ci -name nightly -campaign-out results.json", modeSubmit},
		{"-campaigns host:9321", modeCampaigns},
		{"-campaigns host:9321 -campaign c000000 -do pause", modeCampaigns},
		{"-all -samples 120 -out out/results.json -trace out/trace.jsonl -metrics-addr 127.0.0.1:9100 -status 30s", modeLocal},
		{"-watch http://service-host:9321", modeWatch},
		{"-profile out/profiles -workload sha,stringSearch -windows 64", modeProfile},
	} {
		var stderr strings.Builder
		c, code := parseArgs(strings.Fields(tc.line), &stderr)
		if c == nil || c.mode != tc.want {
			t.Errorf("gefin %s: exit=%d stderr=%q, want %v mode", tc.line, code, stderr.String(), tc.want)
		}
	}
}

// TestGridCarriesNoCheckpoints: -nockpt reaches every cell of an -all
// grid, not only a single cell.
func TestGridCarriesNoCheckpoints(t *testing.T) {
	for _, line := range []string{
		"-all -comp L1D -workload CRC32 -samples 1 -nockpt",
		"-comp L1D -workload CRC32 -samples 1 -nockpt",
	} {
		c, _ := parseArgs(strings.Fields(line), io.Discard)
		specs, code := buildSpecs(io.Discard, c)
		if code != 0 || len(specs) == 0 {
			t.Fatalf("%s: code=%d, %d specs", line, code, len(specs))
		}
		for _, s := range specs {
			if !s.NoCheckpoints {
				t.Errorf("%s: spec %+v lost NoCheckpoints", line, s)
			}
		}
	}
}

func TestNegativeWallTimeoutRejected(t *testing.T) {
	code, _, stderr := runGefin(t, append(tinyGrid(), "-wall-timeout", "-1s")...)
	if code != 2 || !strings.Contains(stderr, "wall timeout") {
		t.Fatalf("exit=%d stderr=%s", code, stderr)
	}
}

// TestWallTimeoutFlagReachesSamples: an unmeetable -wall-timeout turns
// every sample into a recorded timeout instead of hanging the campaign.
func TestWallTimeoutFlagReachesSamples(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	code, _, stderr := runGefin(t, "-workload", "stringSearch", "-comp", "L1D",
		"-faults", "1", "-samples", "3", "-q", "-wall-timeout", "1ns", "-out", path)
	if code != 0 {
		t.Fatalf("run failed: %d (%s)", code, stderr)
	}
	rs, err := core.LoadResultSet(path)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rs.Get("L1D", "stringSearch", 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Counts[core.EffectTimeout] != 3 {
		t.Fatalf("counts = %v, want all 3 samples timeout", res.Counts)
	}
}

// syncBuffer lets the test read a goroutine-owned stderr stream while the
// coordinator is still writing to it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDistributedGridMatchesLocal drives the full CLI surface end to end:
// a -serve coordinator on an ephemeral port, one -join worker, and a
// results file that must be byte-identical to a plain in-process run of
// the same grid.
func TestDistributedGridMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	distPath := filepath.Join(dir, "dist.json")

	code, _, stderr := runGefin(t, tinyGrid("-out", refPath)...)
	if code != 0 {
		t.Fatalf("reference run failed: %d (%s)", code, stderr)
	}

	var coordOut bytes.Buffer
	var coordErr syncBuffer
	coordDone := make(chan int, 1)
	go func() {
		coordDone <- run(tinyGrid("-out", distPath, "-serve", "127.0.0.1:0", "-lease-ttl", "2s"), &coordOut, &coordErr)
	}()

	// The coordinator reports its resolved address once it is listening.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator never came up: %s", coordErr.String())
		}
		if s := coordErr.String(); strings.Contains(s, "on http://") {
			s = s[strings.Index(s, "on http://")+len("on http://"):]
			addr = strings.Fields(s)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	code, stdout, stderr := runGefin(t, "-join", addr)
	if code != 0 {
		select {
		case c := <-coordDone:
			t.Fatalf("worker exit=%d stderr=%s\ncoordinator exited early (%d): %s", code, stderr, c, coordErr.String())
		default:
			t.Fatalf("worker exit=%d stderr=%s", code, stderr)
		}
	}
	if !strings.Contains(stdout, "worker done: 3 cells submitted") {
		t.Fatalf("worker progress missing: %s", stdout)
	}
	if code := <-coordDone; code != 0 {
		t.Fatalf("coordinator exit=%d stderr=%s", code, coordErr.String())
	}

	want, err := os.ReadFile(refPath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(distPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("distributed results file differs from in-process run")
	}
}

// TestDistributedResumeMatchesLocal: a one-shot -serve with -resume over a
// results file holding one of three cells serves only the other two, and
// the finished file matches an in-process run byte for byte.
func TestDistributedResumeMatchesLocal(t *testing.T) {
	dir := t.TempDir()
	refPath := filepath.Join(dir, "ref.json")
	distPath := filepath.Join(dir, "dist.json")
	if code, _, stderr := runGefin(t, tinyGrid("-out", refPath)...); code != 0 {
		t.Fatalf("reference run failed: %d (%s)", code, stderr)
	}
	if code, _, stderr := runGefin(t, oneCell("-out", distPath)...); code != 0 {
		t.Fatalf("partial run failed: %d (%s)", code, stderr)
	}

	addr, served, serveErr := startGefin(t, tinyGrid("-out", distPath, "-resume",
		"-serve", "127.0.0.1:0", "-lease-ttl", "2s")...)
	code, stdout, stderr := runGefin(t, "-join", addr, "-cache-dir", filepath.Join(dir, "cache"))
	if code != 0 {
		t.Fatalf("worker exit=%d stderr=%s\nserver stderr: %s", code, stderr, serveErr.String())
	}
	if !strings.Contains(stdout, "worker done: 2 cells submitted") {
		t.Fatalf("worker should run exactly the two missing cells: %s", stdout)
	}
	if code := <-served; code != 0 {
		t.Fatalf("server exit=%d stderr=%s", code, serveErr.String())
	}
	if !strings.Contains(serveErr.String(), "resume: 1 of 3 cells already complete") {
		t.Fatalf("server did not resume: %s", serveErr.String())
	}
	if !bytes.Equal(readFile(t, distPath), readFile(t, refPath)) {
		t.Fatal("resumed distributed results file differs from in-process run")
	}
}

func TestResumeCorruptFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "r.json")
	if err := os.WriteFile(path, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runGefin(t, tinyGrid("-out", path, "-resume")...)
	if code != 1 {
		t.Fatalf("corrupt resume file: exit=%d stderr=%s", code, stderr)
	}
}
