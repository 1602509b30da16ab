package main

// metricDef names one reported metric. The names, units and directions
// here are the ones BENCHMARK.json lists (a test keeps them in step).
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the service sees, measured with
// tracing off, for every workload; times and rates are reported at the
// nominal machine speed (speed.go).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},             // start the nodes, train models, warm keys (median of the run's set-ups)
	{"throughput_rps", "req/s", "higher"}, // answered requests per second of the timed phase
	{"class_p50_ms", "ms", "lower"},       // geometric mean over the workload's request classes of each class's median round trip
	{"class_p99_ms", "ms", "lower"},       // the same over each tail class's p99 (classes with at least 1,000 answers)
	{"cpu_ms_per_req", "ms", "lower"},     // process user+sys CPU over the timed phase, per answer
	{"heap_mb", "MiB", "lower"},           // live heap the nodes hold after set-up and warm-up
}

// perLayer are the traced run's metrics: each layer timed or counted
// from outside, through its public functions. Every time here is
// measured on every workload; a count or ratio of a layer a workload
// does not exercise reads 0. Times of layers only some workloads
// exercise are printed as extra lines (see README.md).
var perLayer = []metricDef{
	{"serve.handler_us_p50", "us", "lower"},
	{"serve.transport_us_p50", "us", "lower"},
	{"serve.normalize_ns", "ns", "lower"},
	{"serve.store_peek_ns", "ns", "lower"},
	{"serve.store_hit_ratio", "ratio", "higher"},
	{"serve.render_us", "us", "lower"},
	{"serve.queue_depth_mean", "count", "lower"},
	{"core.run_ms_p50", "ms", "lower"},
	{"core.self_ms_p50", "ms", "lower"},
	{"core.evaluations_per_req", "count", "lower"},
	{"search.shared_hit_ratio", "ratio", "higher"},
	{"search.job_repeat_ratio", "ratio", "higher"},
	{"offload.measures_per_req", "count", "lower"},
	{"offload.measure_ns", "ns", "lower"},
	{"ml.train_experiments", "count", "lower"},
	{"exact.explored_per_proof", "count", "lower"},
	{"exact.pruned_ratio", "ratio", "higher"},
	{"graph.evals_per_req", "count", "lower"},
	{"cluster.lookup_ns", "ns", "lower"},
	{"cluster.forward_share", "ratio", "lower"},
	{"cluster.repl_dropped", "count", "lower"},
	{"cluster.repl_pending_max", "count", "lower"},
	{"runtime.allocs_per_req", "count", "lower"},
	{"runtime.bytes_per_req", "B", "lower"},
	{"runtime.gc_per_kreq", "count", "lower"},
	{"trace.overhead_pct", "%", "lower"},
	{"quality.gap_pct", "%", "lower"},
	{"quality.experiments_pct", "%", "lower"},
}

func unitOf(name string) string {
	for _, set := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range set {
			if m.name == name {
				return m.unit
			}
		}
	}
	return ""
}
