package main

// metricDef names one reported metric and its unit. BENCHMARK.json lists
// the same names and units; TestMetricListsMatchBenchmarkJSON holds the two
// together.
type metricDef struct{ name, unit string }

// endToEnd are reported by every untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rss_peak_mb", "MB"},
	{"ok_share", "share"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"ontime_share", "share"},
	{"snr_p50_db", "dB"},
	{"snr_p10_db", "dB"},
	{"first_output_ms", "ms"},
	{"precise_ms", "ms"},
	{"precise_at_ratio", "ratio"},
}

// offlineAppNames are the paper's five apps, in the order they run.
var offlineAppNames = []string{"conv2d", "histeq", "dwt53", "debayer", "kmeans"}

// perLayer are reported by every traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"loadgen.lag_p99_ms", "ms"},
		{"loadgen.self_p50_ms", "ms"},
		{"cluster.router_self_p50_ms", "ms"},
		{"cluster.router_self_p99_ms", "ms"},
		{"cluster.attempts_per_request", "ratio"},
		{"cluster.hedged_share", "share"},
		{"cluster.backend_share_max", "share"},
		{"daemon.handle_p50_ms", "ms"},
		{"daemon.handle_p99_ms", "ms"},
		{"daemon.over_deadline_share", "share"},
		{"daemon.final_share", "share"},
		{"serve.pool_get_p50_us", "us"},
		{"serve.pool_put_p50_us", "us"},
		{"serve.run_p50_ms", "ms"},
		{"serve.run_p99_ms", "ms"},
		{"serve.run_overshoot_p99_ms", "ms"},
		{"serve.interrupted_share", "share"},
		{"serve.versions_p50", "count"},
		{"serve.pipeline_self_p50_us", "us"},
		{"serve.pipeline_gap_ms", "ms"},
		{"snapcache.hit_share", "share"},
		{"snapcache.seed_version_p50", "count"},
		{"snapcache.seed_p50_us", "us"},
		{"snapcache.admit_p50_us", "us"},
		{"snapcache.bytes", "bytes"},
		{"metrics.snr_score_p50_us", "us"},
		{"pix.encode_p50_us", "us"},
		{"core.publishes_per_run", "count"},
		{"core.checkpoints_per_run", "count"},
		{"core.stage_busy_ms", "ms"},
		{"core.edge_waits_per_run", "count"},
		{"core.stop_latency_p99_us", "us"},
	}
	for _, app := range offlineAppNames {
		defs = append(defs,
			metricDef{"apps." + app + ".baseline_ms", "ms"},
			metricDef{"apps." + app + ".first_output_ratio", "ratio"},
			metricDef{"apps." + app + ".precise_at_ratio", "ratio"},
		)
	}
	for _, m := range endToEnd {
		defs = append(defs, metricDef{"overhead." + m.name, m.unit})
	}
	return defs
}()
