package main

// metricDef describes one metric as BENCHMARK.json lists it, plus, for a
// per-layer metric, the end-to-end metric it should move and the workloads
// it should move it on.
type metricDef struct {
	name, unit, better string
	moves              string
	on                 []string
}

var (
	onAll      = []string{"latent", "converging", "forensics", "fleet"}
	onInProc   = []string{"latent", "converging", "forensics"}
	onLatent   = []string{"latent"}
	onConverge = []string{"converging"}
	onFleet    = []string{"fleet"}
	onForens   = []string{"forensics"}
	onPruning  = []string{"latent", "converging"}
)

// endToEnd are the metrics an untraced run reports.
var endToEnd = []metricDef{
	{name: "samples_per_s", unit: "1/s", better: "higher"},
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "peak_rss_mb", unit: "MiB", better: "lower"},
}

// perLayer are the metrics a traced run reports, each tied to the
// end-to-end metric and workloads it should move.
var perLayer = []metricDef{
	{"traced.samples_per_s", "1/s", "higher", "samples_per_s", onAll},
	{"host.ref_ms", "ms", "lower", "samples_per_s", onAll},

	{"setup.compile_s", "s", "lower", "setup_s", onAll},
	{"setup.golden_s", "s", "lower", "setup_s", onInProc},
	{"setup.checkpoints_s", "s", "lower", "setup_s", onInProc},
	{"setup.golden_mcycles", "Mcycles", "lower", "setup_s", onInProc},
	{"setup.artifact_s", "s", "lower", "setup_s", onFleet},

	{"phase.restore_us", "us", "lower", "samples_per_s", onConverge},
	{"phase.replay_ms", "ms", "lower", "samples_per_s", onConverge},
	{"phase.replay_kcycles", "kcycles", "lower", "samples_per_s", onConverge},
	{"phase.faulty_ms", "ms", "lower", "samples_per_s", onLatent},
	{"phase.faulty_kcycles", "kcycles", "lower", "samples_per_s", onLatent},
	{"phase.replay_share", "%", "lower", "samples_per_s", onConverge},
	{"phase.faulty_share", "%", "lower", "samples_per_s", onLatent},
	{"sim.mcycles_per_s", "Mcycles/s", "higher", "samples_per_s", onLatent},
	{"phase.compare_us", "us", "lower", "samples_per_s", onConverge},
	{"phase.compares_per_sample", "count", "lower", "samples_per_s", onConverge},
	{"phase.converged_frac", "%", "higher", "samples_per_s", onConverge},
	{"phase.other_us", "us", "lower", "samples_per_s", onFleet},
	{"core.cell_ms_p50", "ms", "lower", "samples_per_s", onFleet},
	{"core.cell_ms_tail", "ms", "lower", "samples_per_s", onFleet},
	{"core.cell_tail_pct", "percentile", "higher", "samples_per_s", onFleet},

	{"forensics.attach_us", "us", "lower", "samples_per_s", onForens},
	{"forensics.resolve_us", "us", "lower", "samples_per_s", onForens},
	{"fate.never_touched_frac", "%", "higher", "samples_per_s", onPruning},
	{"fate.dead_frac", "%", "higher", "samples_per_s", onPruning},

	{"dispatch.submit_ms", "ms", "lower", "samples_per_s", onFleet},
	{"dispatch.wake_s", "s", "lower", "samples_per_s", onFleet},
	{"dispatch.cell_overhead_ms", "ms", "lower", "samples_per_s", onFleet},
	{"dispatch.lease_gap_ms", "ms", "lower", "samples_per_s", onFleet},
	{"dispatch.heartbeats", "count", "lower", "samples_per_s", onFleet},
	{"dispatch.retries", "count", "lower", "samples_per_s", onFleet},
	{"dispatch.lease_expired", "count", "lower", "samples_per_s", onFleet},

	{"self.cpu", "%", "lower", "samples_per_s", onLatent},
	{"self.cache", "%", "lower", "samples_per_s", onLatent},
	{"self.tlb", "%", "lower", "samples_per_s", onLatent},
	{"self.vm", "%", "lower", "samples_per_s", onLatent},
	{"self.mem", "%", "lower", "samples_per_s", onLatent},
	{"self.kernel", "%", "lower", "samples_per_s", onLatent},
	{"self.sim", "%", "lower", "samples_per_s", onConverge},
	{"self.workloads", "%", "lower", "samples_per_s", onConverge},
	{"self.core", "%", "lower", "samples_per_s", onFleet},
	{"self.forensics", "%", "lower", "samples_per_s", onForens},
	{"self.telemetry", "%", "lower", "samples_per_s", onForens},
	{"self.dispatch", "%", "lower", "samples_per_s", onFleet},
	{"self.wire", "%", "lower", "samples_per_s", onFleet},
	{"self.net_http", "%", "lower", "samples_per_s", onFleet},
	{"self.runtime_gc", "%", "lower", "peak_rss_mb", onAll},
	{"self.runtime_other", "%", "lower", "samples_per_s", onAll},
	{"self.other", "%", "lower", "samples_per_s", onAll},
}

// servingMetrics are the per-layer metrics only the fleet workload's
// service and worker produce.
var servingMetrics = []string{
	"setup.artifact_s", "dispatch.submit_ms", "dispatch.wake_s", "dispatch.cell_overhead_ms",
	"dispatch.lease_gap_ms", "dispatch.heartbeats", "dispatch.retries", "dispatch.lease_expired",
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
