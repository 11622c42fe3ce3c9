// gefin runs spatial multi-bit fault-injection campaigns on the simulated
// Cortex-A9-like machine (the Gem5+GeFIN analog of the paper).
//
// Run one cell:
//
//	gefin -workload CRC32 -comp L1D -faults 2 -samples 100
//
// Run the full grid (6 components x 15 workloads x 3 cardinalities) and
// save the results for avfreport:
//
//	gefin -all -samples 100 -out results.json
//
// Campaigns are crash-safe and resumable. Cells are dispatched across a
// bounded worker pool (-parallel) and the results file is rewritten
// atomically after every completed cell, so a SIGINT/SIGTERM (trapped: the
// first signal cancels the workers, flushes, and exits 130), an OOM kill,
// or a failing cell never discards finished work. Re-running with -resume
// loads the existing -out file and skips every cell whose component,
// workload, cardinality, sample count and seed already match; seeded
// determinism makes the resumed grid bit-identical to an uninterrupted one.
//
// Campaigns also shard across processes and machines. One process owns the
// grid and the results file — it is the campaign service running the grid
// as its one campaign, and exits when that campaign is over:
//
//	gefin -all -samples 100 -out results.json -serve :9321
//
// and any number of workers lease cells from it, run them, and submit the
// results:
//
//	gefin -join service-host:9321
//
// Workers that crash, hang, or vanish are routine: their leases expire
// (-lease-ttl) and the cells are reassigned, bounded by a per-cell retry
// budget (-retries). Seeded determinism makes the distributed result set
// byte-identical to a single-process run of the same grid. With
// -service-dir the service is durable and long-running instead: campaigns
// arrive over HTTP (-submit), and a killed service resumes from its journal.
//
// Each mode accepts only the flags it uses: every flag declares its modes,
// a flag set outside them exits 2, and gefin -h lists them.
//
// Exit status: 0 on success, 1 on runtime errors, 2 on bad configuration
// (unknown component/workload, impossible cardinality, a flag the mode
// does not use), 130 when interrupted by a signal.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/dispatch"
	"mbusim/internal/forensics"
	"mbusim/internal/telemetry"
	"mbusim/internal/workloads"
)

// forensicsFlag parses -forensics as a boolean-style flag with an optional
// mode: bare -forensics (or =fast) arms the component probes,
// -forensics=full adds the lockstep shadow-machine divergence probe
// (~2x per-sample cost), -forensics=off disables.
type forensicsFlag struct{ mode forensics.Mode }

func (f *forensicsFlag) String() string { return f.mode.String() }

func (f *forensicsFlag) Set(s string) error {
	m, err := forensics.ParseMode(s)
	if err != nil {
		return err
	}
	f.mode = m
	return nil
}

// IsBoolFlag lets bare -forensics (no value) mean fast mode instead of
// consuming the next argument.
func (f *forensicsFlag) IsBoolFlag() bool { return true }

// mode is the role a gefin process plays. Each mode is one bit, so every
// flag declares the set of modes that accept it.
type mode uint

const (
	modeLocal mode = 1 << iota
	modeServe
	modeService
	modeJoin
	modeSubmit
	modeCampaigns
	modeWatch
	modeProfile

	// modeGrid is every mode that builds a grid from the grid flags.
	modeGrid = modeLocal | modeServe | modeSubmit
	modeAny  = modeProfile<<1 - 1
)

// modes names each mode and says why it rejects the flags it does not use.
// A mode named after a flag is selected by giving that flag a value; -serve
// with -service-dir selects the service instead, and no mode flag selects
// local.
var modes = []struct {
	m            mode
	name, reason string
}{
	{modeLocal, "local", "without a mode flag gefin runs the grid in this process (a service flag needs -serve, a worker flag -join)"},
	{modeServe, "serve", "a one-shot -serve leases the grid's cells to -join workers, which run them"},
	{modeService, "service", "the campaign service takes its grids from POST /campaigns, not flags"},
	{modeJoin, "join", "-join takes its grid from the service and submits results back to it (grid and output flags belong on the -serve side)"},
	{modeSubmit, "submit", "-submit hands the grid flags to a campaign service, which runs and stores the campaign"},
	{modeCampaigns, "campaigns", "-campaigns lists, shows or transitions a campaign service's campaigns"},
	{modeWatch, "watch", "-watch observes a campaign from outside"},
	{modeProfile, "profile", "-profile observes golden runs locally and writes .mbup artifacts into its directory, not a results file"},
}

// String lists the modes in m by name.
func (m mode) String() string {
	var names []string
	for _, d := range modes {
		if m&d.m != 0 {
			names = append(names, d.name)
		}
	}
	return strings.Join(names, ", ")
}

// config is gefin's command line, parsed and checked against its mode.
type config struct {
	mode mode

	// The grid, the results file and the local run.
	workload, comp        string
	faults, samples       int
	seed                  uint64
	all, nockpt           bool
	wallTimeout           time.Duration
	forensics             forensicsFlag
	outPath               string
	resume, quiet         bool
	parallel, checkpoints int

	// Profiling and telemetry.
	cpuProfile, memProfile, tracePath string
	metricsAddr, eventsPath           string
	status                            time.Duration

	// The service and its clients.
	serveAddr, serviceDir        string
	queueDepth, maxActive        int
	tenantCampaigns, tenantCells int
	leaseTTL                     time.Duration
	retries                      int
	submitAddr, tenant, name     string
	campaignOut                  string
	campaignsAddr, campaignID    string
	doAction                     string

	// Workers, observers and profiles.
	joinAddr, workerID, cacheDir string
	watchURL, profileDir         string
	windows                      int
}

// newFlags declares every flag on c's fields, each with the modes that
// accept it.
func newFlags(c *config, stderr io.Writer) (*flag.FlagSet, map[string]mode) {
	fs := flag.NewFlagSet("gefin", flag.ContinueOnError)
	fs.SetOutput(stderr)
	accepts := map[string]mode{}
	in := func(m mode, name string) string {
		accepts[name] = m
		return name
	}
	fs.StringVar(&c.workload, in(modeGrid|modeProfile, "workload"), "", "workload name, or comma-separated list with -all or -profile (empty with -all or -profile means every workload)")
	fs.StringVar(&c.comp, in(modeGrid, "comp"), "", "component: L1D, L1I, L2, RegFile, DTLB, ITLB; comma-separated list with -all (empty with -all means every component)")
	fs.IntVar(&c.faults, in(modeGrid, "faults"), 1, "fault cardinality 1-3 (ignored with -all: all three run)")
	fs.IntVar(&c.samples, in(modeGrid, "samples"), 100, "injections per cell")
	fs.Uint64Var(&c.seed, in(modeGrid, "seed"), 1, "campaign seed")
	fs.BoolVar(&c.all, in(modeGrid, "all"), false, "run the full component x workload x cardinality grid")
	fs.StringVar(&c.outPath, in(modeLocal|modeServe, "out"), "", "write results JSON to this file (atomically, after every completed cell)")
	fs.BoolVar(&c.resume, in(modeLocal|modeServe, "resume"), false, "load an existing -out file and run only the cells it does not already cover")
	fs.IntVar(&c.parallel, in(modeLocal, "parallel"), 0, "cells dispatched concurrently (0 = GOMAXPROCS; sample workers share the cores)")
	// Every mode accepts -q, so one flag list can quiet any gefin process.
	fs.BoolVar(&c.quiet, in(modeAny, "q"), false, "suppress per-cell progress")
	fs.BoolVar(&c.nockpt, in(modeGrid, "nockpt"), false, "replay every run from cycle 0 instead of fast-forwarding from golden checkpoints")
	fs.IntVar(&c.checkpoints, in(modeLocal|modeServe|modeService|modeJoin, "checkpoints"), workloads.CheckpointCount, "golden checkpoints per workload (K)")
	fs.StringVar(&c.cpuProfile, in(modeAny&^modeWatch, "cpuprofile"), "", "write a CPU profile of the campaign to this file")
	fs.StringVar(&c.memProfile, in(modeLocal|modeServe, "memprofile"), "", "write a heap profile after the campaign to this file")
	fs.StringVar(&c.tracePath, in(modeLocal|modeJoin, "trace"), "", "write a JSONL trace (one record per injection sample) to this file, flushed per cell")
	fs.StringVar(&c.metricsAddr, in(modeLocal|modeServe|modeService|modeJoin|modeProfile, "metrics-addr"), "", "serve live campaign metrics on host:port (/metrics Prometheus text, /healthz, /debug/vars expvar, /debug/pprof)")
	fs.DurationVar(&c.status, in(modeLocal|modeServe|modeService|modeJoin, "status"), 0, "print a periodic campaign summary to stderr at this interval (works with -q; 0 disables)")
	fs.StringVar(&c.eventsPath, in(modeLocal|modeServe|modeService|modeJoin, "events"), "", "append the campaign event log (JSONL, one event per line) to this file; with -resume an existing log is continued, sequence numbers stay strictly monotonic")
	fs.StringVar(&c.watchURL, in(modeWatch, "watch"), "", "observe a running -serve at host:port: stream its campaign event log and render a live fleet dashboard")
	fs.StringVar(&c.serveAddr, in(modeServe|modeService, "serve"), "", "coordinate a distributed campaign: run the campaign service on host:port and lease the grid's cells to -join workers instead of running them in-process (see -service-dir)")
	fs.StringVar(&c.joinAddr, in(modeJoin, "join"), "", "work for a -serve at host:port: lease cells, run them, submit results")
	fs.StringVar(&c.serviceDir, in(modeService, "service-dir"), "", "with -serve: run the durable multi-campaign service instead of serving the grid flags as one campaign, keeping its journal, event log and per-campaign results files in this directory (campaigns arrive via POST /campaigns)")
	fs.IntVar(&c.queueDepth, in(modeService, "queue-depth"), 64, "campaigns allowed to wait in the queue before submissions bounce with 429")
	fs.IntVar(&c.maxActive, in(modeService, "max-active"), 4, "campaigns run concurrently over the shared worker fleet")
	fs.IntVar(&c.tenantCampaigns, in(modeService, "tenant-campaigns"), 8, "live campaigns allowed per tenant")
	fs.IntVar(&c.tenantCells, in(modeService, "tenant-cells"), 4096, "live cells allowed per tenant across its campaigns")
	fs.StringVar(&c.submitAddr, in(modeSubmit, "submit"), "", "submit the grid flags as one campaign to the service at host:port and print its id (see -tenant/-name/-campaign-out)")
	fs.StringVar(&c.campaignsAddr, in(modeCampaigns, "campaigns"), "", "query the service at host:port: list campaigns, or one campaign's status with -campaign, or transition it with -do")
	fs.StringVar(&c.campaignID, in(modeCampaigns, "campaign"), "", "campaign id for -campaigns status and -do")
	fs.StringVar(&c.doAction, in(modeCampaigns, "do"), "", "pause, resume or cancel the -campaign")
	fs.StringVar(&c.tenant, in(modeSubmit, "tenant"), "", "tenant identity for admission quotas (default \"default\")")
	fs.StringVar(&c.name, in(modeSubmit, "name"), "", "idempotency name — resubmitting while a campaign of this name is live returns it instead of queuing a duplicate")
	fs.StringVar(&c.campaignOut, in(modeSubmit, "campaign-out"), "", "wait for the campaign to finish and write its results file here (byte-identical to the service's durable copy)")
	fs.StringVar(&c.workerID, in(modeJoin, "worker-id"), "", "worker identity reported to the service (default host:pid)")
	fs.DurationVar(&c.leaseTTL, in(modeServe|modeService, "lease-ttl"), 15*time.Second, "a worker silent this long loses its lease and the cell is reassigned")
	fs.IntVar(&c.retries, in(modeServe|modeService|modeSubmit, "retries"), 5, "reassignments allowed per cell before the campaign fails naming it")
	fs.DurationVar(&c.wallTimeout, in(modeGrid, "wall-timeout"), 0, "per-sample wall-clock budget; a sample exceeding it is recorded as a timeout (0 = no watchdog)")
	fs.StringVar(&c.cacheDir, in(modeJoin, "cache-dir"), defaultCacheDir(), "disk cache for checkpoint artifacts fetched from the service (empty = no disk cache)")
	fs.StringVar(&c.profileDir, in(modeProfile, "profile"), "", "run each workload's fault-free golden reference under the liveness profiler and write one versioned .mbup artifact per workload into this directory (runs no injections)")
	fs.IntVar(&c.windows, in(modeProfile, "windows"), 64, "occupancy sampling windows per profile (1-4096)")
	fs.Var(&c.forensics, in(modeGrid, "forensics"), "track every injected bit's fate (fast: component probes; full: + lockstep shadow-machine divergence, ~2x cost)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "Usage of gefin (modes: %v); each flag ends with the modes that accept it:\n", modeAny)
		fs.VisitAll(func(f *flag.Flag) { f.Usage += " [" + accepts[f.Name].String() + "]" })
		fs.PrintDefaults()
	}
	return fs, accepts
}

// parseArgs parses the command line, derives the mode from the mode flags,
// and rejects every flag set explicitly that the mode does not use. It
// returns nil and the exit code when the command line is unusable.
func parseArgs(args []string, stderr io.Writer) (*config, int) {
	c := &config{}
	fs, accepts := newFlags(c, stderr)
	if err := fs.Parse(args); err != nil {
		return nil, 2
	}
	c.mode = modeLocal
	selectedBy := ""
	for _, d := range modes {
		if f := fs.Lookup(d.name); f == nil || f.Value.String() == "" {
			continue
		}
		if selectedBy != "" {
			fmt.Fprintf(stderr, "-%s and -%s are mutually exclusive: each selects its own mode\n", selectedBy, d.name)
			return nil, 2
		}
		selectedBy, c.mode = d.name, d.m
	}
	if c.mode == modeServe && c.serviceDir != "" {
		c.mode = modeService
	}
	var unused string
	fs.Visit(func(f *flag.Flag) {
		if unused == "" && accepts[f.Name]&c.mode == 0 {
			unused = f.Name
		}
	})
	if unused != "" {
		for _, d := range modes {
			if d.m == c.mode {
				fmt.Fprintf(stderr, "-%s is not used in %s mode: %s\n", unused, d.name, d.reason)
			}
		}
		return nil, 2
	}
	return c, 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole CLI behind an exit code, so tests can drive it
// in-process with fake arg lists and capture both streams.
func run(args []string, stdout, stderr io.Writer) int {
	c, code := parseArgs(args, stderr)
	if c == nil {
		return code
	}
	workloads.CheckpointCount = c.checkpoints

	// Watch mode is a pure observer: it connects to a service's event
	// stream and renders, running no cells and owning no results.
	if c.mode == modeWatch {
		return runWatch(stdout, stderr, c.watchURL)
	}

	if c.doAction != "" && c.campaignID == "" {
		fmt.Fprintln(stderr, "-do needs -campaigns (the service address) and -campaign (the id to transition)")
		return 2
	}
	// Config that cannot work fails before any listener opens: a
	// non-positive lease TTL would make every lease expire instantly (or
	// never), and negative budgets/quotas are contradictions, not choices.
	if c.mode == modeServe || c.mode == modeService {
		if c.leaseTTL <= 0 {
			fmt.Fprintln(stderr, "-lease-ttl must be positive: leases that expire instantly reassign every cell forever")
			return 2
		}
		if c.retries < 0 {
			fmt.Fprintln(stderr, "-retries must be >= 0")
			return 2
		}
	}
	if c.mode == modeService {
		for _, bad := range []struct {
			name string
			v    int
		}{{"-queue-depth", c.queueDepth}, {"-max-active", c.maxActive},
			{"-tenant-campaigns", c.tenantCampaigns}, {"-tenant-cells", c.tenantCells}} {
			if bad.v <= 0 {
				fmt.Fprintf(stderr, "%s must be positive (got %d)\n", bad.name, bad.v)
				return 2
			}
		}
	}

	var specs []core.Spec
	if c.mode&modeGrid != 0 {
		if specs, code = buildSpecs(stderr, c); code != 0 {
			return code
		}
	}
	if c.resume && c.outPath == "" {
		fmt.Fprintln(stderr, "-resume needs -out: resuming loads and extends the results file")
		return 2
	}

	if c.cpuProfile != "" {
		f, err := os.Create(c.cpuProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}

	// Resume: skip every cell the existing results file already covers.
	rs := core.NewResultSet()
	pending := specs
	if c.resume {
		loaded, err := core.LoadResultSet(c.outPath)
		switch {
		case err == nil:
			rs = loaded
			pending = rs.Pending(specs)
			fmt.Fprintf(stderr, "resume: %d of %d cells already complete in %s\n",
				len(specs)-len(pending), len(specs), c.outPath)
			if len(pending) == 0 {
				fmt.Fprintln(stderr, "resume: nothing to do")
				return 0
			}
		case os.IsNotExist(err):
			fmt.Fprintf(stderr, "resume: %s does not exist yet, starting fresh\n", c.outPath)
		default:
			fmt.Fprintln(stderr, err)
			return 1
		}
	}

	start := time.Now()

	// Telemetry: -trace, -metrics-addr, -status, -events or -forensics
	// enables the campaign registry (the core hot path stays untouched when
	// all are absent). Forensics needs the registry for its fate counters;
	// pair it with -trace to also get the per-sample forensics records. A
	// service always carries the registry — its dispatch gauges are the only
	// view into a fleet of remote workers — and so does a worker, whose
	// registry snapshots ride its heartbeats into the service's /metrics.
	var tel *telemetry.Campaign
	if c.tracePath != "" || c.metricsAddr != "" || c.status > 0 || c.eventsPath != "" ||
		c.forensics.mode != forensics.ModeOff || c.mode&(modeServe|modeService|modeJoin) != 0 {
		var tracer *telemetry.Tracer
		if c.tracePath != "" {
			f, err := os.Create(c.tracePath)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			defer f.Close()
			tracer = telemetry.NewTracer(f)
		}
		tel = telemetry.NewCampaign(tracer)
	}
	// The event log: durable when -events names a file (-resume continues an
	// existing log, fresh campaigns start one). The campaign service always
	// keeps a durable log in its state directory and always continues it —
	// restarting the service is resuming, never starting over. A one-shot
	// -serve without -events still keeps an in-memory log so /dispatch/events and
	// -watch work.
	if c.eventsPath != "" || c.mode == modeService {
		path := c.eventsPath
		if path == "" {
			path = filepath.Join(c.serviceDir, "events.jsonl")
		}
		if c.mode == modeService {
			if err := os.MkdirAll(c.serviceDir, 0o755); err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
		} else if !c.resume {
			if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
				fmt.Fprintln(stderr, err)
				return 1
			}
		}
		evlog, err := telemetry.OpenEventLog(path)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer evlog.Close()
		tel.Events = evlog
	} else if c.mode == modeServe {
		tel.Events = telemetry.NewEventLog(nil, 0)
	}
	// Count every golden reference this process actually derives by running
	// the full fault-free simulation. In a distributed campaign the counter,
	// summed across the fleet, proves how many golden runs were really paid
	// for — the number the artifact cache exists to minimize. Nil-safe: with
	// telemetry off the hook is a no-op.
	workloads.OnGoldenDerived = func(string) { tel.GoldenDerived() }

	// health feeds /healthz on the metrics port: the process role plus a
	// cheap campaign digest.
	role := "local"
	switch c.mode {
	case modeJoin:
		role = "worker"
	case modeServe, modeService:
		role = "service"
	}
	health := func() telemetry.Health {
		h := telemetry.Health{Role: role, UptimeSeconds: time.Since(start).Seconds()}
		if tel.Enabled() {
			s := tel.Summarize()
			c := map[string]any{"samples": s.Samples, "cells": s.Cells}
			if s.SamplesExpected > 0 {
				c["samples_expected"] = s.SamplesExpected
			}
			if s.CellsExpected > 0 {
				c["cells_expected"] = s.CellsExpected
			}
			if s.Fleet() {
				c["workers_live"] = s.WorkersLive
				c["workers_seen"] = s.WorkersSeen
				c["cells_leased"] = s.CellsLeased
			}
			h.Campaign = c
		}
		return h
	}
	if c.metricsAddr != "" {
		ln, err := net.Listen("tcp", c.metricsAddr)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stderr, "metrics: serving http://%s/metrics (healthz /healthz, expvar /debug/vars, pprof /debug/pprof/)\n", ln.Addr())
		srv := &http.Server{Handler: telemetry.Handler(tel.Registry, health)}
		go srv.Serve(ln)
		defer srv.Close()
	}

	// The first SIGINT/SIGTERM cancels the campaign context: workers stop
	// between samples, the partial grid is already on disk (flushed after
	// every cell), and a second signal kills the process the default way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	// A failed flush also cancels: running on while losing results would
	// re-create the very bug this flag exists to fix.
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	if c.status > 0 {
		statusDone := make(chan struct{})
		defer close(statusDone)
		go statusLoop(stderr, tel, c.status, start, statusDone)
	}
	switch c.mode {
	case modeProfile:
		return runProfile(ctx, stdout, stderr, c.profileDir, c.workload, c.windows, c.quiet, tel, start)
	case modeJoin:
		return runWorker(ctx, stdout, stderr, c.joinAddr, c.workerID, c.quiet, tel, start, c.cacheDir)
	case modeSubmit:
		return runSubmit(ctx, stdout, stderr, c.submitAddr, specs,
			c.tenant, c.name, c.retries, c.campaignOut, c.quiet)
	case modeCampaigns:
		return runCampaigns(ctx, stdout, stderr, c.campaignsAddr, c.campaignID, c.doAction)
	}
	opts := dispatch.ServiceOptions{LeaseTTL: c.leaseTTL, MaxRetries: c.retries, Tel: tel}
	if c.mode == modeService {
		opts.QueueDepth, opts.MaxActive = c.queueDepth, c.maxActive
		opts.TenantCampaigns, opts.TenantCells = c.tenantCampaigns, c.tenantCells
		err := runService(ctx, stderr, c.serveAddr, c.serviceDir, opts, start, nil, nil)
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(stderr, "campaign service stopped; state is durable — restart with the same -service-dir to resume")
			return 130
		}
		fmt.Fprintln(stderr, err)
		return 1
	}

	// A local run and a one-shot -serve share the per-cell callback and the
	// end-of-campaign report.
	tel.Emit(telemetry.Event{Type: telemetry.EventCampaignStart, Cell: -1, Cells: len(pending)})
	var (
		done     = 0
		flushErr error
	)
	onCell := func(i int, res *core.Result) {
		rs.Add(res)
		done++
		if c.outPath != "" {
			if err := rs.Save(c.outPath); err != nil && flushErr == nil {
				flushErr = err
				cancel()
			}
		}
		if !c.quiet {
			fmt.Fprintln(stdout, cellLine(done, len(pending), pending[i], res, start))
		}
	}
	var err error
	if c.mode == modeServe {
		// Publish the grid shape so -status and /healthz show fleet-wide
		// totals; the service's coordinator emits campaign_done.
		totalSamples := 0
		for _, s := range pending {
			totalSamples += s.Samples
		}
		tel.SetGridShape(len(pending), totalSamples, 0, 0)
		err = runService(ctx, stderr, c.serveAddr, "", opts, start, pending, onCell)
	} else if err = core.RunGridWithTelemetry(ctx, pending, c.parallel, onCell, tel); err == nil && flushErr == nil {
		tel.Emit(telemetry.Event{Type: telemetry.EventCampaignDone, Cell: -1, Cells: done})
	}
	var term *dispatch.TerminalError
	switch {
	case flushErr != nil:
		fmt.Fprintf(stderr, "flush failed after %d cells: %v\n", done, flushErr)
		return 1
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "interrupted: %d/%d cells complete", done, len(pending))
		if c.outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", partial results saved to %s (finish with -resume)", c.outPath)
		}
		fmt.Fprintln(stderr)
		return 130
	case errors.As(err, &term):
		// The service refused the grid as its campaign.
		fmt.Fprintln(stderr, err)
		return 2
	case err != nil:
		fmt.Fprintf(stderr, "%v (%d/%d cells complete", err, done, len(pending))
		if c.outPath != "" && done > 0 {
			fmt.Fprintf(stderr, ", saved to %s; fix and re-run with -resume", c.outPath)
		}
		fmt.Fprintln(stderr, ")")
		return 1
	}
	if !c.quiet {
		fmt.Fprintf(stdout, "campaign complete: %d cells in %v\n", done, time.Since(start).Round(time.Second))
	}
	if c.forensics.mode != forensics.ModeOff && !c.quiet {
		fmt.Fprintln(stdout, fateLine(tel.Summarize()))
	}
	if c.outPath != "" {
		fmt.Fprintf(stderr, "wrote %s\n", c.outPath)
	}
	if tel.Tracing() {
		if err := tel.Tracer.Err(); err != nil {
			fmt.Fprintf(stderr, "trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "wrote %s\n", c.tracePath)
	}

	if c.memProfile != "" {
		f, err := os.Create(c.memProfile)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		runtime.GC() // materialize up-to-date allocation statistics
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		f.Close()
		fmt.Fprintf(stderr, "wrote %s\n", c.memProfile)
	}
	return 0
}

// runWorker is worker mode: lease cells from the service, run them through
// the normal campaign path, submit the results, repeat until a one-shot
// service sends the worker home. A SIGINT/SIGTERM drains: the in-flight
// cell is handed back so the service reassigns it at once.
func runWorker(ctx context.Context, stdout, stderr io.Writer,
	addr, id string, quiet bool, tel *telemetry.Campaign, start time.Time, cacheDir string) int {
	if id == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "worker"
		}
		id = fmt.Sprintf("%s:%d", host, os.Getpid())
	}
	addr = serviceURL(addr)
	done := 0
	w := &dispatch.Worker{
		ID: id, Client: dispatch.Client{URL: addr}, Tel: tel,
		Artifacts: &dispatch.ArtifactCache{Dir: cacheDir, URL: addr, Tel: tel},
		OnCell: func(cell int, spec core.Spec, res *core.Result) {
			done++
			if !quiet {
				fmt.Fprintf(stdout, "cell %3d %-8s %-13s %d-bit: AVF=%6.2f%% (%d samples, %v elapsed)\n",
					cell, spec.Component, spec.Workload, spec.Faults,
					100*res.AVF(), res.Samples(), time.Since(start).Round(time.Millisecond))
			}
		},
	}
	fmt.Fprintf(stderr, "dispatch: worker %s joining %s\n", id, addr)
	err := w.Run(ctx)
	var term *dispatch.TerminalError
	switch {
	case errors.Is(err, context.Canceled):
		fmt.Fprintf(stderr, "interrupted: %d cells submitted; in-flight lease handed back\n", done)
		return 130
	case errors.As(err, &term):
		// The coordinator is healthy and said no — wrong service, unknown
		// campaign, rejected identity. Retrying cannot fix a permanent
		// rejection, so this is misconfiguration (exit 2), not a runtime
		// failure, and the worker exits now instead of burning MaxWait.
		fmt.Fprintln(stderr, err)
		return 2
	case err != nil:
		fmt.Fprintln(stderr, err)
		return 1
	}
	if !quiet {
		fmt.Fprintf(stdout, "worker done: %d cells submitted in %v\n", done, time.Since(start).Round(time.Second))
	}
	return 0
}

// cellLine renders one completed cell's outcome mix and the campaign ETA —
// the same line whether the cell ran in-process or arrived from a
// distributed worker.
func cellLine(done, total int, spec core.Spec, res *core.Result, start time.Time) string {
	elapsed := time.Since(start)
	// No completed cells means no per-cell pace to extrapolate (a division
	// by zero here renders as an "eta 2562047h..." absurdity, not a crash).
	eta := "--"
	if done > 0 {
		eta = time.Duration(float64(elapsed) / float64(done) * float64(total-done)).Round(time.Second).String()
	}
	return fmt.Sprintf("[%3d/%3d] %-8s %-13s %d-bit: AVF=%6.2f%% masked=%5.1f%% sdc=%5.1f%% crash=%5.1f%% timeout=%5.1f%% assert=%5.1f%% ±%.2f%% (%v elapsed, eta %v)",
		done, total, spec.Component, spec.Workload, spec.Faults,
		100*res.AVF(),
		100*res.Fraction(core.EffectMasked),
		100*res.Fraction(core.EffectSDC),
		100*res.Fraction(core.EffectCrash),
		100*res.Fraction(core.EffectTimeout),
		100*res.Fraction(core.EffectAssert),
		100*res.AdjustedMargin(0.99),
		elapsed.Round(time.Millisecond), eta)
}

// statusLoop prints a registry-driven summary line every interval until
// done is closed. It works alongside -q: the summary replaces, rather than
// duplicates, the per-cell progress stream.
func statusLoop(w io.Writer, tel *telemetry.Campaign, interval time.Duration, start time.Time, done <-chan struct{}) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-done:
			return
		case <-t.C:
			fmt.Fprintln(w, statusLine(tel.Summarize(), time.Since(start)))
		}
	}
}

// statusLine renders one campaign summary: sample throughput, outcome mix,
// cell progress, checkpoint hit rate and an ETA, all derived from the
// telemetry registry.
func statusLine(s telemetry.Summary, elapsed time.Duration) string {
	var b strings.Builder
	// Elapsed time can be zero (or negative, under clock steps) on the
	// first tick; dividing by it renders throughput as "+Inf/s". No
	// measurement window means no rate — print a placeholder and skip the
	// ETA, which would be equally meaningless.
	rate := 0.0
	if secs := elapsed.Seconds(); secs > 0 {
		rate = float64(s.Samples) / secs
	}
	fmt.Fprintf(&b, "status: %d", s.Samples)
	if s.SamplesExpected > 0 {
		fmt.Fprintf(&b, "/%d", s.SamplesExpected)
	}
	if rate > 0 {
		fmt.Fprintf(&b, " samples (%.1f/s)", rate)
	} else {
		b.WriteString(" samples (--/s)")
	}
	if s.Samples > 0 {
		b.WriteString(" |")
		for _, e := range core.Effects() {
			if n := s.ByOutcome[e.Label()]; n > 0 {
				fmt.Fprintf(&b, " %s %.1f%%", e.Label(), 100*float64(n)/float64(s.Samples))
			}
		}
	}
	fmt.Fprintf(&b, " | cells %d", s.Cells)
	if s.CellsExpected > 0 {
		fmt.Fprintf(&b, "/%d", s.CellsExpected)
	}
	if total := s.CheckpointHits + s.CheckpointMiss; total > 0 {
		fmt.Fprintf(&b, " | ckpt hit %.0f%%", 100*float64(s.CheckpointHits)/float64(total))
	}
	if s.Fleet() {
		fmt.Fprintf(&b, " | fleet %d/%d workers live, %d leased", s.WorkersLive, s.WorkersSeen, s.CellsLeased)
		if s.LeasesExpired > 0 || s.CellsRetried > 0 {
			fmt.Fprintf(&b, ", %d expired, %d retried", s.LeasesExpired, s.CellsRetried)
		}
	}
	if rate > 0 && s.SamplesExpected > s.Samples {
		eta := time.Duration(float64(s.SamplesExpected-s.Samples) / rate * float64(time.Second))
		fmt.Fprintf(&b, " | eta %v", eta.Round(time.Second))
	}
	return b.String()
}

// fateLine renders the campaign-wide masking-mechanism breakdown from the
// registry's forensics counters, in canonical fate order.
func fateLine(s telemetry.Summary) string {
	var total int64
	for _, n := range s.ByFate {
		total += n
	}
	var b strings.Builder
	b.WriteString("forensics:")
	if total == 0 {
		b.WriteString(" no fates recorded")
		return b.String()
	}
	for _, f := range forensics.Fates() {
		if n := s.ByFate[f.Label()]; n > 0 {
			fmt.Fprintf(&b, " %s %.1f%%", f.Label(), 100*float64(n)/float64(total))
		}
	}
	fmt.Fprintf(&b, " (n=%d)", total)
	return b.String()
}

// defaultCacheDir is where worker processes cache checkpoint artifacts
// between runs: the OS user cache directory, or no disk cache when the
// platform does not define one.
func defaultCacheDir() string {
	base, err := os.UserCacheDir()
	if err != nil {
		return ""
	}
	return filepath.Join(base, "mbusim", "artifacts")
}

// buildSpecs expands the grid flags into the campaign grid, validating
// component and workload lists up front — a typo must fail before the
// first golden run is built, not hours into the grid. Every cell copies one
// template spec, so a knob reaches single cells and grids alike.
func buildSpecs(stderr io.Writer, c *config) ([]core.Spec, int) {
	cell := core.Spec{Samples: c.samples, Seed: c.seed,
		NoCheckpoints: c.nockpt, Forensics: c.forensics.mode,
		WallTimeout: c.wallTimeout}
	var specs []core.Spec
	if c.all {
		comps := core.Components()
		if c.comp != "" {
			comps = strings.Split(c.comp, ",")
			for _, comp := range comps {
				if err := core.ValidComponent(comp); err != nil {
					fmt.Fprintln(stderr, err)
					return nil, 2
				}
			}
		}
		names := workloads.Names()
		if c.workload != "" {
			names = strings.Split(c.workload, ",")
			for _, w := range names {
				if err := core.ValidWorkload(w); err != nil {
					fmt.Fprintln(stderr, err)
					return nil, 2
				}
			}
		}
		for _, comp := range comps {
			for _, w := range names {
				for k := 1; k <= 3; k++ {
					cell.Workload, cell.Component, cell.Faults = w, comp, k
					specs = append(specs, cell)
				}
			}
		}
	} else {
		if c.workload == "" || c.comp == "" {
			fmt.Fprintln(stderr, "need -workload and -comp (or -all)")
			return nil, 2
		}
		cell.Workload, cell.Component, cell.Faults = c.workload, c.comp, c.faults
		specs = append(specs, cell)
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			fmt.Fprintln(stderr, err)
			return nil, 2
		}
	}
	return specs, 0
}
