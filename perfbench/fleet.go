package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/telemetry"
)

// The fleet workload runs the serving path end to end: a `gefin -serve
// -service-dir` process receives one burst of campaigns from two tenants
// through dispatch.Client, and one `gefin -join` process (GOMAXPROCS=1, a
// fresh artifact cache each time) works them. Both processes are started
// from the gefin binary built from the same checkout.

const (
	workerID = "bench-worker"
	// fleetDeadline bounds everything one fleet run waits for.
	fleetDeadline = 150 * time.Second
	// pollEvery paces campaign-status polls. The timed region comes from
	// the event log, so polling only needs to be gentle on the service,
	// which shares the host with the worker being measured.
	pollEvery = 100 * time.Millisecond
)

// proc is one gefin child process with its stderr drained in the
// background; the line announcing its listen address is handed over once.
type proc struct {
	cmd  *exec.Cmd
	addr chan string
	tail *strings.Builder
	done chan struct{}
}

// startProc starts gefin with args and waits for the stderr line holding
// prefix, returning the host:port that follows it.
func startProc(gefin string, prefix string, args ...string) (*proc, string, error) {
	cmd := exec.Command(gefin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, "", err
	}
	if err := cmd.Start(); err != nil {
		return nil, "", err
	}
	p := &proc{cmd: cmd, addr: make(chan string, 1), tail: &strings.Builder{}, done: make(chan struct{})}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, prefix); i >= 0 {
				rest := line[i+len(prefix):]
				if j := strings.IndexAny(rest, " /"); j >= 0 {
					rest = rest[:j]
				}
				select {
				case p.addr <- rest:
				default:
				}
			}
			if p.tail.Len() < 1<<14 {
				p.tail.WriteString(line + "\n")
			}
		}
	}()
	select {
	case a := <-p.addr:
		return p, a, nil
	case <-p.done:
		p.cmd.Wait()
		return nil, "", fmt.Errorf("%s exited before listening:\n%s", filepath.Base(gefin), p.tail.String())
	case <-time.After(30 * time.Second):
		p.stop()
		return nil, "", fmt.Errorf("%s did not start listening", filepath.Base(gefin))
	}
}

// stop interrupts the process and waits for it.
func (p *proc) stop() {
	if p == nil {
		return
	}
	p.cmd.Process.Signal(os.Interrupt)
	t := time.AfterFunc(10*time.Second, func() { p.cmd.Process.Kill() })
	p.cmd.Wait()
	t.Stop()
	<-p.done
}

// fleet is one running service + worker pair.
type fleet struct {
	service, worker *proc
	client          *dispatch.Client
	url             string // service base URL
	metrics         string // worker metrics host:port
	dir             string
	rss             *rssSampler
}

// stop ends both processes and returns their summed sustained peak
// resident set.
func (f *fleet) stop() float64 {
	rss := f.rss.finish()
	f.worker.stop()
	f.service.stop()
	os.RemoveAll(f.dir)
	return rss
}

// startFleet brings up a service and a worker from nothing and runs one
// warm-up campaign per program, which makes the service derive and serve
// the checkpoint artifacts and the worker fetch and install them. It
// returns the set-up time: process start to the last warm-up done.
func startFleet(o *options, w *benchWorkload, rep int) (*fleet, float64, float64, error) {
	gefin := filepath.Join(o.bin, "gefin")
	dir := filepath.Join(o.workdir, fmt.Sprintf("fleet-%d-%d", os.Getpid(), rep))
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, 0, err
	}
	f := &fleet{dir: dir, rss: newRSSSampler()}
	start := time.Now()
	var err error
	var addr string
	f.service, addr, err = startProc(gefin, "campaign service on http://",
		"-serve", "127.0.0.1:0", "-service-dir", filepath.Join(dir, "service"), "-q")
	if err != nil {
		f.rss.finish()
		return nil, 0, 0, err
	}
	f.rss.add(f.service.cmd.Process.Pid)
	f.url = "http://" + addr
	f.client = &dispatch.Client{URL: f.url, MaxWait: 30 * time.Second}
	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	// Submitting before the worker starts means its first lease finds
	// work, so the set-up never includes an idle-worker sleep.
	warm := map[string]bool{}
	var ids []string
	for i, p := range w.programs {
		info, err := f.client.SubmitCampaign(ctx, &dispatch.SubmitCampaignRequest{
			Tenant: "warmup", Name: "warmup-" + p,
			Specs: []core.Spec{{Workload: p, Component: "L1D", Faults: 1, Samples: 1, Seed: cellSeed(o.seed, 1<<20+i)}},
		})
		if err != nil {
			f.stop()
			return nil, 0, 0, err
		}
		warm[info.ID] = true
		ids = append(ids, info.ID)
	}
	f.worker, f.metrics, err = startProc(gefin, "metrics: serving http://",
		"-join", addr, "-worker-id", workerID,
		"-cache-dir", filepath.Join(dir, "cache"), "-metrics-addr", "127.0.0.1:0", "-q")
	if err != nil {
		f.stop()
		return nil, 0, 0, err
	}
	f.rss.add(f.worker.cmd.Process.Pid)
	if err := f.waitDone(ctx, ids); err != nil {
		f.stop()
		return nil, 0, 0, err
	}
	setup := time.Since(start).Seconds()
	evs, err := f.events(ctx)
	if err != nil {
		f.stop()
		return nil, 0, 0, err
	}
	return f, setup, artifactSeconds(evs, warm), nil
}

// waitDone polls until every campaign is done, failing on any other
// terminal state.
func (f *fleet) waitDone(ctx context.Context, ids []string) error {
	for _, id := range ids {
		for {
			info, err := f.client.Campaign(ctx, id)
			if err != nil {
				return err
			}
			if info.State == dispatch.StateDone {
				break
			}
			if info.State == dispatch.StateFailed || info.State == dispatch.StateCancelled {
				return fmt.Errorf("campaign %s %s: %s", id, info.State, info.Detail)
			}
			select {
			case <-ctx.Done():
				return fmt.Errorf("campaign %s: %w", id, ctx.Err())
			case <-time.After(pollEvery):
			}
		}
	}
	return nil
}

// events fetches the service's whole event log, or with campaign ids, the
// concatenation of those campaigns' logs (GET /campaigns/{id}/events).
func (f *fleet) events(ctx context.Context, ids ...string) ([]telemetry.Event, error) {
	urls := []string{f.url + dispatch.PathEvents}
	if len(ids) > 0 {
		urls = urls[:0]
		for _, id := range ids {
			urls = append(urls, f.url+dispatch.PathCampaigns+"/"+id+"/events")
		}
	}
	var evs []telemetry.Event
	for _, u := range urls {
		body, err := httpGet(ctx, u+"?since=0&wait=0s")
		if err != nil {
			return nil, err
		}
		part, err := readEvents(bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		evs = append(evs, part...)
	}
	return evs, nil
}

// cellRun reads the worker's federated cell-run histogram (sum seconds,
// count) from the service's /metrics.
func (f *fleet) cellRun(ctx context.Context) (float64, float64, error) {
	body, err := httpGet(ctx, f.url+"/metrics")
	if err != nil {
		return 0, 0, err
	}
	var sum, count float64
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok || !strings.Contains(name, `worker="`+workerID+`"`) {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		// Federated histograms print as name{labels}_sum; drop the labels
		// wherever they sit.
		if i, j := strings.IndexByte(name, '{'), strings.LastIndexByte(name, '}'); i >= 0 && j > i {
			name = name[:i] + name[j+1:]
		}
		switch name {
		case telemetry.MetricCellRun + "_sum":
			sum = v
		case telemetry.MetricCellRun + "_count":
			count = v
		}
	}
	return sum, count, nil
}

func httpGet(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, err
}

// runFleet measures one run of the fleet workload: setupReps cold fleet
// start-ups (the last one stays up), then one burst of campaigns, timed
// from the first cell_leased to the last cell_done in the service's event
// log.
func runFleet(o *options, w *benchWorkload) (*outcome, error) {
	oc := newOutcome(o)
	var setups, artifacts []float64
	var f *fleet
	for rep := 0; rep < setupReps; rep++ {
		fl, s, a, err := startFleet(o, w, rep)
		if err != nil {
			return nil, err
		}
		setups, artifacts = append(setups, s), append(artifacts, a)
		if rep < setupReps-1 {
			fl.stop()
		} else {
			f = fl
		}
	}
	oc.setupS = median(setups)
	oc.layer["setup.artifact_s"] = median(artifacts)

	ctx, cancel := context.WithTimeout(context.Background(), fleetDeadline)
	defer cancel()
	specs := w.cells(o.seed, o.seconds)
	rs, st, err := f.burst(ctx, o, w, specs, oc)
	rss := f.stop()
	if err != nil {
		return nil, err
	}
	oc.peakRSS = rss
	oc.checkCells(specs, rs)
	for cell := range st.troubled {
		oc.fail(1, "cell %s expired or was retried", cell)
	}
	if o.trace == 1 {
		// Set up in this process before the oracle derives any golden
		// reference, so the set-up split is measured cold.
		var sp spanLog
		stp, err := runSetup(w.programs, &sp)
		if err != nil {
			return nil, err
		}
		oc.layer["setup.compile_s"] = stp.CompileS
		oc.layer["setup.golden_s"] = stp.GoldenS
		oc.layer["setup.checkpoints_s"] = stp.CheckpointsS
		oc.layer["setup.golden_mcycles"] = stp.GoldenMcycles
		oc.spans = append(oc.spans, sp.spans...)
	}
	oc.oracle(pick(specs, w.oracle), rs)
	if st.lastDone > st.firstLeased {
		oc.samplesPerS = float64(st.samples) / (float64(st.lastDone-st.firstLeased) / 1e9)
	}
	if oc.samplesPerS == 0 {
		oc.fail(0, "burst completed no samples")
	}
	if o.trace == 1 {
		if err := oc.tracePhases(w, specs, rs, nil); err != nil {
			return nil, err
		}
	}
	return oc, nil
}

// burst submits the workload's cells as one campaign per program, the
// programs alternating between two tenants, waits for all of them, and
// returns the merged results and the event-log statistics. A traced burst
// also profiles the worker and fills the dispatch.* metrics.
func (f *fleet) burst(ctx context.Context, o *options, w *benchWorkload, specs []core.Spec, oc *outcome) (*core.ResultSet, dispatchStats, error) {
	var st dispatchStats
	runSum0, runCount0, err := f.cellRun(ctx)
	if err != nil {
		return nil, st, err
	}
	type profResult struct {
		self map[string]float64
		err  error
	}
	var profCh chan profResult
	if o.trace == 1 {
		// The worker's CPU profile spans the expected burst plus the
		// worst-case idle wake; its shares count on-CPU time only.
		secs := o.seconds + 5
		profCh = make(chan profResult, 1)
		go func() {
			body, err := httpGet(ctx, fmt.Sprintf("http://%s/debug/pprof/profile?seconds=%d", f.metrics, secs))
			if err != nil {
				profCh <- profResult{err: err}
				return
			}
			self, err := selfShares(body)
			profCh <- profResult{self, err}
		}()
	}

	sp := &spanLog{}
	defer func() { oc.spans = append(oc.spans, sp.spans...) }()
	per := len(specs) / len(w.programs)
	burst := map[string]bool{}
	var ids []string
	var submitMS []float64
	submitStart := time.Now()
	for i, p := range w.programs {
		tenant := "tenant-a"
		if i%2 == 1 {
			tenant = "tenant-b"
		}
		t := time.Now()
		info, err := f.client.SubmitCampaign(ctx, &dispatch.SubmitCampaignRequest{
			Tenant: tenant, Name: "burst-" + p, Specs: specs[i*per : (i+1)*per],
		})
		if err != nil {
			return nil, st, err
		}
		submitMS = append(submitMS, float64(sp.since("burst", "Client.SubmitCampaign", p, t).Nanoseconds())/1e6)
		burst[info.ID] = true
		ids = append(ids, info.ID)
	}
	if err := f.waitDone(ctx, ids); err != nil {
		return nil, st, err
	}
	sp.since("run", "burst", w.name, submitStart)
	evs, err := f.events(ctx, ids...)
	if err != nil {
		return nil, st, err
	}
	st = parseDispatch(evs, burst)

	rs := core.NewResultSet()
	for _, id := range ids {
		raw, err := f.client.Results(ctx, id)
		if err != nil {
			return nil, st, err
		}
		part := core.NewResultSet()
		if err := json.Unmarshal(raw, part); err != nil {
			return nil, st, err
		}
		for _, r := range part.Cells {
			rs.Add(r)
		}
	}
	if o.trace == 1 {
		runSum, runCount, err := f.cellRun(ctx)
		if err != nil {
			return nil, st, err
		}
		l := oc.layer
		l["dispatch.submit_ms"] = median(submitMS)
		l["dispatch.wake_s"] = float64(st.firstLeased-submitStart.UnixNano()) / 1e9
		l["dispatch.cell_overhead_ms"] = 0
		if n := runCount - runCount0; n > 0 && len(st.cellMS) > 0 {
			l["dispatch.cell_overhead_ms"] = mean(st.cellMS) - 1e3*(runSum-runSum0)/n
		}
		l["dispatch.lease_gap_ms"] = st.leaseGapMS
		l["dispatch.heartbeats"] = float64(st.heartbeats)
		l["dispatch.retries"] = float64(st.retries)
		l["dispatch.lease_expired"] = float64(st.expired)
		oc.cellMS = st.cellMS
		pr := <-profCh
		if pr.err != nil {
			return nil, st, fmt.Errorf("worker profile: %w", pr.err)
		}
		for k, v := range pr.self {
			l["self."+k] = v
		}
	}
	return rs, st, nil
}
