package main

import "fmt"

// Metric is one reported number with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric name to value. A metric a workload cannot produce is
// absent from the set, never zero.
type metricSet map[string]Metric

func (s metricSet) set(name string, v float64) {
	d, ok := decls[name]
	if !ok {
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	}
	s[name] = Metric{Value: v, Unit: d.Unit}
}

// decl declares one metric. Bound is the relative worsening -compare allows
// before it reports a regression; Exact metrics are simulated results that
// repeat bit for bit for a fixed seed and compare with ==.
type decl struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Exact  bool
	// Gate marks the end-to-end metrics every workload produces and that
	// are never zero: BENCHMARK.json lists exactly these under end_to_end.
	// The remaining end-to-end metrics exist on some workloads only (or are
	// zero on a healthy tree), so BENCHMARK.json carries them under
	// per_layer and -compare applies their bounds.
	Gate bool
}

// endToEnd is the harness's end-to-end table: what a user of the system
// sees, on the host clock and on the simulated clock.
var endToEnd = []decl{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "host_mtuples_per_s", Unit: "Mtuples/s", Better: "higher", Bound: 0.25, Gate: true},
	{Name: "alloc_bytes_per_tuple", Unit: "B/tuple", Better: "lower", Bound: 0.20, Gate: true},
	{Name: "mallocs_per_ktuple", Unit: "1/ktuple", Better: "lower", Bound: 0.10, Gate: true},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25, Gate: true},
	{Name: "sim_mcycles_per_host_s", Unit: "Mcycles/s", Better: "higher", Bound: 0.25},
	{Name: "sim_mtuples_per_s", Unit: "Mtuples/s", Better: "higher", Exact: true},
	{Name: "sim_model_err_pct", Unit: "%", Better: "lower", Exact: true},
	{Name: "sim_p50_us", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim_p99_us", Unit: "us", Better: "lower", Exact: true},
	{Name: "sim_kqps", Unit: "kreq/s", Better: "higher", Exact: true},
	{Name: "failed_ops_share", Unit: "share", Better: "lower", Exact: true},
}

// classNames lists every op class of every workload, in workload order; each
// has a harness.op_best_ms.<class> layer metric.
var classNames = []string{
	"pad_rid", "hist_rid", "pad_vrid", "hist_vrid", "hist_rid_w64", "pad_rid_fan16",
	"zipf_hist_hash", "zipf_pad_fallback", "grid_hist_radix", "linear_pad_radix",
	"hash_t1", "radix_t1", "hash_t2", "hash_t2_fan256", "hash_t2_zipf", "hash_t1_incache",
	"cpu_radix", "cpu_budget_spill", "cpu_budget_skew", "nonpartitioned", "hybrid_pad_rid",
	"n3", "churn3",
}

// layerDecls is the per-layer table. Host decomposition numbers use process
// CPU time; simulated counts repeat exactly for a fixed seed.
var layerDecls = func() []decl {
	var out []decl
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, decl{Name: n, Unit: unit, Better: better})
		}
	}
	// sim declares simulated counts, which repeat exactly for a fixed seed.
	sim := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, decl{Name: n, Unit: unit, Better: better, Exact: true})
		}
	}
	for _, c := range classNames {
		add("ms", "lower", "harness.op_best_ms."+c)
	}
	add("ratio", "lower", "harness.noise_ratio", "harness.contention")
	add("%", "lower", "harness.trace_overhead_pct", "harness.gc_cpu_pct")
	add("count", "higher", "harness.rounds")

	add("ms", "lower", "workload.gen_ms")
	add("Mtuples/s", "higher", "workload.gen_mtuples_per_s")

	add("ms", "lower", "partition.fpga_self_cpu_ms", "partition.cpu_self_cpu_ms", "partition.checksum_ms")

	add("ns", "lower", "core.host_ns_per_cycle")
	add("ms", "lower", "core.cpu_ms_per_op")
	add("B", "lower", "core.alloc_bytes_per_op")
	add("count", "lower", "core.mallocs_per_op")
	add("us", "lower", "core.new_circuit_us")

	sim("cycles", "lower", "core.cycles", "core.cycles_per_ktuple", "core.histogram_cycles",
		"core.flush_cycles", "core.stalls_backpressure", "core.stalls_hazard")
	sim("count", "lower", "core.hazards_forwarded", "core.hash_bubbles", "core.dummies",
		"core.lines_read", "core.lines_written", "core.page_translations",
		"core.bram_reads", "core.bram_writes", "core.pad_overflows")
	sim("%", "lower", "core.steady_model_err_pct")
	sim("count", "lower", "fifo.stage1.high_water")
	sim("x100", "higher", "qpi.bytes_per_cycle_x100", "combiner.bram.port_util_x100")

	add("ns", "lower", "cpupart.ns_per_tuple")
	add("B/tuple", "lower", "cpupart.alloc_bytes_per_tuple")
	add("count", "lower", "cpupart.mallocs_per_op")
	add("ratio", "higher", "cpupart.t2_speedup")
	add("ratio", "lower", "cpupart.hash_over_radix")
	add("ms", "lower", "cpupart.fallback_ms")

	add("ms", "lower", "hashjoin.partition_ms", "hashjoin.build_ms", "hashjoin.probe_ms", "hashjoin.self_cpu_ms")
	sim("us", "lower", "hashjoin.hybrid_sim_partition_us")
	add("ms", "lower", "hashjoin.hybrid_total_ms", "joincore.build_probe_ms")
	add("ns", "lower", "joincore.ns_per_probe_tuple")
	add("ms", "lower", "joincore.budgeted_ms")
	sim("B", "lower", "joincore.spilled_bytes", "joincore.spill_read_bytes")
	sim("count", "lower", "joincore.recursions", "joincore.reversals", "joincore.broadcasts", "joincore.max_depth")
	sim("B", "lower", "joincore.budget_high_water_bytes")

	add("ms", "lower", "partserver.run_cpu_ms", "partserver.self_cpu_ms")
	add("us", "lower", "partserver.us_per_job")
	add("B", "lower", "partserver.alloc_bytes_per_job")
	sim("count", "higher", "partserver.placed_fpga")
	sim("count", "lower", "partserver.placed_cpu", "partserver.degraded", "partserver.attempts")
	sim("us", "lower", "partserver.queue_wait_us_total", "partserver.exec_us_total")
	add("ms", "lower", "jobs.exec_cpu_ms")

	add("ms", "lower", "cluster.run_cpu_ms", "cluster.self_cpu_ms")
	add("ratio", "lower", "cluster.exec_amplification")
	add("ms", "lower", "cluster.generate_load_ms")
	add("ns", "lower", "cluster.ring_lookup_ns")
	add("B", "lower", "cluster.alloc_bytes_per_request", "cluster.retained_bytes_per_request")
	sim("count", "lower", "cluster.throttled")
	sim("us", "lower", "cluster.throttle_delay_us")
	sim("count", "lower", "cluster.rerouted", "cluster.hedge_issued")
	sim("count", "higher", "cluster.hedge_won")
	sim("count", "lower", "cluster.hedge_cancelled")
	sim("us", "higher", "cluster.hedge_saved_us")
	sim("us", "lower", "cluster.hedge_wasted_us")
	sim("count", "lower", "cluster.handoff_delayed")
	sim("us", "lower", "cluster.handoff_wait_us")
	sim("x100", "lower", "cluster.max_shard_share_x100")
	sim("us", "lower", "cluster.sim_p50_us", "cluster.sim_p99_us")

	// reqtrace.merge_wait_us is left out: BENCHMARK.json admits 128 layer
	// metrics and the merge model charges zero virtual time by definition.
	sim("us", "lower", "reqtrace.route_us", "reqtrace.quota_wait_us", "reqtrace.handoff_wait_us",
		"reqtrace.hedge_wait_us", "reqtrace.queue_wait_us", "reqtrace.reconfig_us",
		"reqtrace.batch_wait_us", "reqtrace.exec_us", "reqtrace.spill_us",
		"reqtrace.batch_drain_us", "reqtrace.retry_wait_us")
	sim("count", "lower", "reqtrace.conservation_violations")
	return out
}()

// decls indexes every declared metric by name.
var decls = func() map[string]decl {
	m := make(map[string]decl)
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range layerDecls {
		m[d.Name] = d
	}
	return m
}()

// gateMetrics returns the end-to-end metrics BENCHMARK.json gates, and
// driverLayers the names it lists under per_layer: every layer metric plus
// the end-to-end metrics that are not universal. failed_ops_share travels in
// the result line's attempted/failed counts instead.
func gateMetrics() []decl {
	var out []decl
	for _, d := range endToEnd {
		if d.Gate {
			out = append(out, d)
		}
	}
	return out
}

func driverLayers() []decl {
	var out []decl
	for _, d := range endToEnd {
		if !d.Gate && d.Name != "failed_ops_share" {
			out = append(out, d)
		}
	}
	return append(out, layerDecls...)
}
