package main

// The metric tables. BENCHMARK.json repeats them for the driver; a test
// keeps the two in step.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEndDefs are what a qservd client or operator sees, measured with
// tracing off on every workload. Bound is the share of the parent's median
// a metric may worsen by. On the 2-vCPU host this was built on, ten runs of
// one build scatter by 5-10 % of the median (quartile distance) in a quiet
// quarter of an hour and far more when a neighbour is busy, so every timing
// carries the widest bound the driver allows; only memory is steadier
// (cold_bind's peak follows how many statements the run got through).
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p99_ms", "ms", "lower", 0.25},
	{"answers_per_s", "1/s", "higher", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.15},
}

// perLayerDefs come from the traced run: a short measured window against
// the real server (e2e.*, serve.* counters, proc.*), the in-process replay
// (handler and stage spans) and the layer probes. A metric reads 0 on a
// workload that never exercises it.
var perLayerDefs = func() []metricDef {
	d := []metricDef{
		{Name: "e2e.first_answer_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.deep_page_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.raw_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.bystander_p50_ms", Unit: "ms", Better: "lower"},
		{Name: "e2e.failed_share", Unit: "share", Better: "lower"},
	}
	for _, c := range classNames {
		d = append(d, metricDef{Name: "e2e.p50_ms." + c, Unit: "ms", Better: "lower"})
	}
	for _, c := range classNames {
		d = append(d, metricDef{Name: "serve.handler_ns." + c, Unit: "ns", Better: "lower"})
	}
	for _, c := range classNames {
		d = append(d, metricDef{Name: "serve.self_ns." + c, Unit: "ns", Better: "lower"})
	}
	return append(d, []metricDef{
		{Name: "serve.encode_ns_per_answer", Unit: "ns", Better: "lower"},
		{Name: "serve.skipped_per_answer", Unit: "ratio", Better: "lower"},
		{Name: "serve.transport_ns", Unit: "ns", Better: "lower"},
		{Name: "serve.rejected_429", Unit: "count", Better: "lower"},
		{Name: "serve.shed_503", Unit: "count", Better: "lower"},
		{Name: "serve.expired_504", Unit: "count", Better: "lower"},
		{Name: "serve.stale_410", Unit: "count", Better: "lower"},
		{Name: "serve.stale_plan_retries", Unit: "count", Better: "lower"},
		{Name: "serve.binds_coalesced", Unit: "count", Better: "higher"},
		{Name: "serve.bind_wait_p99_ns", Unit: "ns", Better: "lower"},
		{Name: "logic.parse_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.compile_hit_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.compile_miss_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.peek_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.cache_hit_share", Unit: "share", Better: "higher"},
		{Name: "plan.cache_refreshes", Unit: "count", Better: "lower"},
		{Name: "plan.bind_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.bind_steps", Unit: "count", Better: "lower"},
		{Name: "plan.refresh_ns", Unit: "ns", Better: "lower"},
		{Name: "plan.refresh_delta_share", Unit: "share", Better: "higher"},
		{Name: "plan.refresh_bystander_ns", Unit: "ns", Better: "lower"},
		{Name: "database.mutate_ns", Unit: "ns", Better: "lower"},
		{Name: "database.mutate_big_ns", Unit: "ns", Better: "lower"},
		{Name: "database.slab_rebuild_ns", Unit: "ns", Better: "lower"},
		{Name: "database.promote_ns", Unit: "ns", Better: "lower"},
		{Name: "database.index_build_ns", Unit: "ns", Better: "lower"},
		{Name: "database.semijoin_ns", Unit: "ns", Better: "lower"},
		{Name: "database.probe_ns", Unit: "ns", Better: "lower"},
		{Name: "database.heap_bytes_per_tuple", Unit: "B", Better: "lower"},
		{Name: "cq.const_next_ns", Unit: "ns", Better: "lower"},
		{Name: "cq.const_steps_per_answer", Unit: "count", Better: "lower"},
		{Name: "cq.neq_next_ns", Unit: "ns", Better: "lower"},
		{Name: "cq.linear_next_ns", Unit: "ns", Better: "lower"},
		{Name: "cq.linear_steps_per_answer", Unit: "count", Better: "lower"},
		{Name: "cq.random_access_ns", Unit: "ns", Better: "lower"},
		{Name: "cq.random_access_build_ns", Unit: "ns", Better: "lower"},
		{Name: "counting.count_ns", Unit: "ns", Better: "lower"},
		{Name: "snapshot.open_ns", Unit: "ns", Better: "lower"},
		{Name: "snapshot.read_ns", Unit: "ns", Better: "lower"},
		{Name: "snapshot.write_ns", Unit: "ns", Better: "lower"},
		{Name: "snapshot.file_bytes_per_tuple", Unit: "B", Better: "lower"},
		{Name: "core.load_facts_ns", Unit: "ns", Better: "lower"},
		{Name: "proc.server_user_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "proc.server_sys_ms_per_op", Unit: "ms", Better: "lower"},
		{Name: "proc.mallocs_per_op", Unit: "count", Better: "lower"},
		{Name: "proc.gc_cycles", Unit: "count", Better: "lower"},
		{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
		{Name: "proc.gen_cpu_share", Unit: "share", Better: "lower"},
		{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
	}...)
}()

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a run prints as its last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object from values, one entry per definition.
func fill(defs []metricDef, values map[string]float64) map[string]metricValue {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		out[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}
