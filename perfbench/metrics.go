package main

// metricSpec names one metric of the JSON line and its unit. The lists below
// must match BENCHMARK.json (TestMetricListsMatchBenchmarkJSON).
type metricSpec struct {
	name, unit string
}

// endToEnd are printed with -trace 0, on every workload. Which operation
// mean_ms, p75_ms, ops_per_s and aux_ms time on each workload is in
// README.md; the report lines name it, and also print each p50 and p90.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"rss_mb", "MB"},
	{"mean_ms", "ms"},
	{"p75_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"aux_ms", "ms"},
}

// perLayer are printed with -trace 1, on every workload; a layer the
// workload does not call reports 0.
var perLayer = []metricSpec{
	{"availd.transport_us", "us"},
	{"availd.handler_us", "us"},
	{"availd.decode_us", "us"},
	{"availd.evaluate_self_us", "us"},
	{"availd.render_us", "us"},
	{"availd.memo_hit_ratio", "ratio"},
	{"availd.memo_evicted", "count"},
	{"availd.store_update_us", "us"},
	{"availd.jobs_shed", "count"},
	{"availd.grid_self_ms", "ms"},
	{"obs.registry_us", "us"},
	{"obs.on_visit_us", "us"},
	{"obs.snapshot_ms", "ms"},
	{"modelspec.parse_us", "us"},
	{"modelspec.canonical_us", "us"},
	{"modelspec.build_us", "us"},
	{"hierarchy.evaluate_us", "us"},
	{"hierarchy.assignments", "count"},
	{"dtmc.analyses", "count"},
	{"travelagency.build_us", "us"},
	{"travelagency.evaluate_many_ms", "ms"},
	{"webfarm.batch_ms", "ms"},
	{"webfarm.repair_hit_ratio", "ratio"},
	{"webfarm.loss_hit_ratio", "ratio"},
	{"ctmc.steady_solves", "count"},
	{"ctmc.transient_solves", "count"},
	{"ctmc.uniformization_steps", "count"},
	{"autoscale.tick_self_us", "us"},
	{"testbed.run_visit_us", "us"},
	{"testbed.http_run_visit_us", "us"},
	{"telemetry.record_us", "us"},
	{"tracemine.read_ms", "ms"},
	{"tracemine.fold_ms", "ms"},
	{"tracemine.mine_ms", "ms"},
	{"tracemine.diff_ms", "ms"},
	{"tracemine.malformed", "count"},
	{"bench.trace_overhead_share", "ratio"},
	{"bench.unattributed_share", "ratio"},
}
