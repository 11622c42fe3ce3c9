// Command perfbench is the repository benchmark: single-thread injection
// throughput on fixed, seeded campaign cell lists, driven through the
// public campaign API (and, for the fleet workload, the campaign service).
//
//	perfbench -workload latent -seed 1 -seconds 15 -trace 0
//
// The last line of stdout is one JSON object: correct, attempted, failed
// and metrics — the end-to-end metrics with -trace 0, the per-layer metrics
// with -trace 1. See README.md for the workloads and the method.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    int
	role     string
	bin      string
	workdir  string
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{}
	fs.StringVar(&o.workload, "workload", "", "workload: latent, converging, forensics or fleet")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; every cell's Spec.Seed derives from it")
	fs.IntVar(&o.seconds, "seconds", 15, "sizes the timed work to last about this long (see rate in cells.go)")
	fs.IntVar(&o.trace, "trace", 0, "0: report end-to-end metrics; 1: traced run, report per-layer metrics")
	fs.StringVar(&o.role, "role", "", "internal: run as a setup or campaign child process")
	fs.StringVar(&o.bin, "bin", "", "directory holding the gefin binary (fleet workload)")
	fs.StringVar(&o.workdir, "workdir", ".bench_build/work", "scratch directory for service state, spans and digests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(o.workload)
	if err != nil || o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "perfbench: need -workload latent|converging|forensics|fleet, -seconds >= 1, -trace 0|1")
		return 2
	}
	// One simulation thread per measured process, whatever the caller set.
	runtime.GOMAXPROCS(1)
	if o.workdir, err = filepath.Abs(o.workdir); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}

	switch o.role {
	case "setup", "campaign":
		var rep any
		if o.role == "setup" {
			rep, err = childSetup(w)
		} else {
			rep, err = childCampaign(w, o.seed, o.seconds, o.trace == 1)
		}
		if err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		if err := json.NewEncoder(stdout).Encode(rep); err != nil {
			return 1
		}
		return 0
	case "":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown role %q\n", o.role)
		return 2
	}

	hostRef := hostRefMS()
	var oc *outcome
	if w.fleet {
		oc, err = runFleet(o, w)
	} else {
		oc, err = runInProcess(o, w)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	oc.layer["host.ref_ms"] = hostRef
	for _, p := range oc.problems {
		fmt.Fprintln(stderr, "perfbench: FAILED:", p)
	}
	if o.trace == 1 {
		path := filepath.Join(o.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", o.workload, o.seed))
		if err := (&spanLog{spans: oc.spans}).write(path); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: %d spans written to %s\n", len(oc.spans), path)
	}
	return report(stdout, stderr, o, oc)
}

// report prints the human summary and, last, the result line.
func report(stdout, stderr io.Writer, o *options, oc *outcome) int {
	res := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{Correct: oc.correct(), Attempted: oc.attempted, Failed: oc.failed, Metrics: map[string]metricValue{}}
	if o.trace == 0 {
		vals := map[string]float64{"samples_per_s": oc.samplesPerS, "setup_s": oc.setupS, "peak_rss_mb": oc.peakRSS}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{vals[m.name], m.unit}
		}
	} else {
		oc.layer["traced.samples_per_s"] = oc.samplesPerS
		oc.cellPercentiles()
		for _, m := range perLayer {
			v, ok := oc.layer[m.name]
			if !ok {
				fmt.Fprintf(stderr, "perfbench: per-layer metric %s was not measured\n", m.name)
				return 1
			}
			res.Metrics[m.name] = metricValue{v, m.unit}
		}
	}
	fmt.Fprintf(stdout, "%s seed=%d: samples_per_s=%.4f 1/s setup_s=%.4f s peak_rss_mb=%.1f MiB host.ref_ms=%.3f cells attempted=%d failed=%d results sha256=%s\n",
		o.workload, o.seed, oc.samplesPerS, oc.setupS, oc.peakRSS, oc.layer["host.ref_ms"], oc.attempted, oc.failed, oc.digest)
	line, err := json.Marshal(res)
	if err != nil {
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// cellPercentiles derives core.cell_ms_p50 and the tail percentile from the
// traced campaign's per-cell durations.
func (oc *outcome) cellPercentiles() {
	p := tailPercentile(len(oc.cellMS))
	oc.layer["core.cell_ms_p50"] = quantile(oc.cellMS, 0.5)
	oc.layer["core.cell_ms_tail"] = quantile(oc.cellMS, p/100)
	oc.layer["core.cell_tail_pct"] = p
}
