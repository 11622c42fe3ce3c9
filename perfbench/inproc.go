package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime/pprof"
	"syscall"
	"time"

	"mbusim/internal/core"
	"mbusim/internal/forensics"
	"mbusim/internal/telemetry"
)

// campaignReport is what a child process hands its parent on stdout: the
// set-up split and, from a campaign child, the timed region and its
// results, plus, when traced, the spans, cell durations and CPU-profile
// shares.
type campaignReport struct {
	Setup     setupTimes         `json:"setup"`
	CampaignS float64            `json:"campaign_s"`
	Samples   int                `json:"samples"`
	Err       string             `json:"err,omitempty"`
	Results   json.RawMessage    `json:"results"`
	CellMS    []float64          `json:"cell_ms,omitempty"`
	Spans     []span             `json:"spans,omitempty"`
	Self      map[string]float64 `json:"self,omitempty"`
	// Fates counts fate labels from the forensics trace records.
	Fates map[string]int `json:"fates,omitempty"`
}

// childSetup is the -role setup process: one cold set-up of the workload's
// programs, reported as JSON.
func childSetup(w *benchWorkload) (any, error) {
	st, err := runSetup(w.programs, nil)
	return &campaignReport{Setup: st}, err
}

// childCampaign is the -role campaign process: set up the workload's
// programs, then run its whole cell list through core.RunGridWithTelemetry
// with one cell worker (and, under GOMAXPROCS=1, one sample worker). Only
// the grid call is timed.
func childCampaign(w *benchWorkload, seed uint64, seconds int, traced bool) (any, error) {
	var sp *spanLog
	if traced {
		sp = &spanLog{}
	}
	rep := &campaignReport{}
	st, err := runSetup(w.programs, sp)
	if err != nil {
		return nil, err
	}
	rep.Setup = st
	specs := w.cells(seed, seconds)

	// Forensics cells collect their fate records through telemetry, as
	// `gefin -forensics fast -trace FILE` does; the trace stays in memory.
	var tel *telemetry.Campaign
	var traceBuf bytes.Buffer
	if w.mode != forensics.ModeOff {
		tel = telemetry.NewCampaign(telemetry.NewTracer(&traceBuf))
	}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return nil, err
		}
	}
	rs := core.NewResultSet()
	start := time.Now()
	last := start
	err = core.RunGridWithTelemetry(context.Background(), specs, 1, func(i int, res *core.Result) {
		rs.Add(res)
		rep.Samples += res.Samples()
		if traced {
			s := specs[i]
			d := sp.since("RunGrid", "cell", fmt.Sprintf("%s/%s/%d", s.Workload, s.Component, s.Faults), last)
			rep.CellMS = append(rep.CellMS, float64(d.Nanoseconds())/1e6)
			last = time.Now()
		}
	}, tel)
	rep.CampaignS = sp.since("run", "RunGrid", w.name, start).Seconds()
	if traced {
		pprof.StopCPUProfile()
		if rep.Self, err = selfShares(prof.Bytes()); err != nil {
			return nil, err
		}
		rep.Spans = sp.spans
	}
	if err != nil {
		rep.Err = err.Error()
	}
	if tel != nil {
		if err := tel.Tracer.Err(); err != nil {
			return nil, err
		}
		tr, err := telemetry.ReadTraceTyped(&traceBuf)
		if err != nil {
			return nil, err
		}
		rep.Fates = map[string]int{}
		for _, f := range tr.Fates {
			rep.Fates[f.Fate]++
		}
	}
	if rep.Results, err = rs.Encode(); err != nil {
		return nil, err
	}
	return rep, nil
}

// childRun starts this binary in a child role and decodes the JSON it
// prints. It returns the child's sustained peak resident set in MiB.
func childRun(o *options, role string, out any) (float64, error) {
	self, err := os.Executable()
	if err != nil {
		return 0, err
	}
	cmd := exec.Command(self, "-role", role, "-workload", o.workload,
		"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(o.trace))
	cmd.SysProcAttr = childAttr()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Start(); err != nil {
		return 0, fmt.Errorf("%s child: %w", role, err)
	}
	rss := newRSSSampler(cmd.Process.Pid)
	err = cmd.Wait()
	peak := rss.finish()
	if err != nil {
		return 0, fmt.Errorf("%s child: %w", role, err)
	}
	if err := json.Unmarshal(stdout.Bytes(), out); err != nil {
		return 0, fmt.Errorf("%s child: %w", role, err)
	}
	return peak, nil
}

// childAttr makes a child process die with this one, so an interrupted
// run leaves no service, worker or campaign process behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// runInProcess measures one run of an in-process workload: setupReps cold
// set-ups (the last inside the measured campaign process), the campaign
// itself, and the correctness gate. Traced runs add the phase replay and
// the forensics fate pass, both in this process after the child exits.
func runInProcess(o *options, w *benchWorkload) (*outcome, error) {
	oc := newOutcome(o)
	var setups []setupTimes
	for i := 0; i < setupReps-1; i++ {
		var r campaignReport
		if _, err := childRun(o, "setup", &r); err != nil {
			return nil, err
		}
		setups = append(setups, r.Setup)
	}
	var rep campaignReport
	rss, err := childRun(o, "campaign", &rep)
	if err != nil {
		return nil, err
	}
	setups = append(setups, rep.Setup)
	oc.setSetup(setups)

	specs := w.cells(o.seed, o.seconds)
	rs := core.NewResultSet()
	if err := json.Unmarshal(rep.Results, rs); err != nil {
		return nil, err
	}
	if rep.Err != "" {
		fmt.Fprintln(os.Stderr, "perfbench: campaign:", rep.Err)
	}
	oc.checkCells(specs, rs)
	oc.oracle(pick(specs, w.oracle), rs)
	oc.samplesPerS = float64(rep.Samples) / rep.CampaignS
	oc.peakRSS = rss

	if o.trace == 1 {
		oc.spans = append(oc.spans, rep.Spans...)
		oc.cellMS = rep.CellMS
		for k, v := range rep.Self {
			oc.layer["self."+k] = v
		}
		if err := oc.tracePhases(w, specs, rs, rep.Fates); err != nil {
			return nil, err
		}
		// No service runs in process: the serving-path layers read zero.
		for _, name := range servingMetrics {
			oc.layer[name] = 0
		}
	}
	return oc, nil
}
