package main

// metricDef names one metric the harness reports. The two tables below are
// the single list of names: the report, BENCHMARK.json (written by
// -calibrate) and the README all follow them.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// timing marks a latency or duration: -calibrate demotes a timing metric
	// whose spread is too wide to gate on (setup_s excepted).
	timing bool
}

// endToEndDefs are what a user of the service sees, measured with tracing
// off. failed_share is on this list in the report but can never be an
// end_to_end entry of BENCHMARK.json — a gated metric must never be 0, and a
// healthy run fails nothing — so -calibrate files it under per_layer; the
// driver still sees every failure in the result's "failed" count.
var endToEndDefs = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", timing: true},
	{Name: "runs_per_s", Unit: "runs/s", Better: "higher"},
	{Name: "run_latency_p50_ms", Unit: "ms", Better: "lower", timing: true},
	{Name: "run_latency_p95_ms", Unit: "ms", Better: "lower", timing: true},
	{Name: "admit_latency_p50_ms", Unit: "ms", Better: "lower", timing: true},
	{Name: "admit_latency_p95_ms", Unit: "ms", Better: "lower", timing: true},
	{Name: "cpu_ms_per_run", Unit: "ms", Better: "lower"},
	{Name: "rss_peak_mb", Unit: "MiB", Better: "lower"},
	{Name: "failed_share", Unit: "ratio", Better: "lower"},
}

// perLayerDefs are the figures of single layers, named <module>.<metric>.
// A workload that does not exercise a layer reports 0 for its metrics.
var perLayerDefs = []metricDef{
	{Name: "service.submit_ms", Unit: "ms", Better: "lower"},
	{Name: "service.submit_durable_ms", Unit: "ms", Better: "lower"},
	{Name: "service.inproc_run_ms", Unit: "ms", Better: "lower"},
	{Name: "service.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "service.queue_wait_window_ms", Unit: "ms", Better: "lower"},
	{Name: "service.run_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "service.doccache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.resultcache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "service.shed_share", Unit: "ratio", Better: "lower"},
	{Name: "tenant.authenticate_us", Unit: "us", Better: "lower"},
	{Name: "persist.append_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.appends_per_run", Unit: "count", Better: "lower"},
	{Name: "persist.appends_per_fsync", Unit: "count", Better: "higher"},
	{Name: "persist.journal_bytes_per_run", Unit: "bytes", Better: "lower"},
	{Name: "persist.replay_ms_per_krun", Unit: "ms", Better: "lower"},
	{Name: "yamlx.decode_us", Unit: "us", Better: "lower"},
	{Name: "cwl.parse_validate_us", Unit: "us", Better: "lower"},
	{Name: "runner.build_step_index_us", Unit: "us", Better: "lower"},
	{Name: "cwlexpr.eval_us", Unit: "us", Better: "lower"},
	{Name: "cwlexpr.program_cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "runner.run_tool_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.spawn_floor_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.tool_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.image_tool_ms", Unit: "ms", Better: "lower"},
	{Name: "runner.workflow_ms", Unit: "ms", Better: "lower"},
	{Name: "core.runner_run_ms", Unit: "ms", Better: "lower"},
	{Name: "parsl.dfk_overhead_us", Unit: "us", Better: "lower"},
	{Name: "parsl.task_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "parsl.task_exec_ms", Unit: "ms", Better: "lower"},
	{Name: "parsl.tasks_per_run", Unit: "count", Better: "lower"},
	{Name: "parsl.htex_task_us", Unit: "us", Better: "lower"},
	{Name: "provider.roundtrip_ms", Unit: "ms", Better: "lower"},
	{Name: "provider.tasks_per_frame", Unit: "count", Better: "higher"},
	{Name: "provider.pipe_task_us", Unit: "us", Better: "lower"},
	{Name: "provider.docs_amortized_per_run", Unit: "count", Better: "higher"},
	{Name: "provider.worker_lost", Unit: "count", Better: "lower"},
	{Name: "obs.events_get_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "loadgen.scaling_eff", Unit: "ratio", Better: "higher"},
	{Name: "loadgen.one_client_runs_per_s", Unit: "runs/s", Better: "higher"},
	{Name: "loadgen.one_client_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.one_client_busy_cores", Unit: "cores", Better: "lower"},
	{Name: "loadgen.busy_cores", Unit: "cores", Better: "lower"},
	{Name: "loadgen.build_s", Unit: "s", Better: "lower"},
	{Name: "loadgen.trace_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "budget.unattributed_pct", Unit: "%", Better: "lower"},
}

// Validity limits: past them a run is invalid, not slow.
const (
	maxLateP95Ms  = 5.0 // mixed_open: p95 of actual send − due
	maxLoadgenCPU = 0.5 // generator CPU ÷ (wall × nproc)
)
