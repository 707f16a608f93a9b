package main

// metricDef declares one metric the benchmark emits. BENCHMARK.json carries
// name, unit, direction and (end-to-end only) bound; the layer → end-to-end
// map in moves lives here and in README.md because the file's schema has no
// field for it. bench_test.go keeps the three in step.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: relative worsening of the median that counts as a regression
	moves  string  // per-layer only: the end-to-end metric it should move → the workloads it moves it on
}

// endToEndDefs are the gated metrics; every workload emits all of them.
// Wall- and CPU-derived ones are in cu (see calib.go); raw milliseconds are
// reported ungated under the client layer.
var endToEndDefs = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "query_cu", unit: "cu", better: "lower", bound: 0.20},
	{name: "pass_cu", unit: "cu", better: "lower", bound: 0.20},
	{name: "cpu_cu", unit: "cu", better: "lower", bound: 0.20},
	{name: "sim_ms", unit: "ms", better: "lower", bound: 0.01},
	{name: "energy_mj", unit: "mJ", better: "lower", bound: 0.01},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.03},
}

// perLayerDefs are the ungated layer metrics; the prefix before the first
// dot is the package the metric measures.
var perLayerDefs = buildPerLayerDefs()

func buildPerLayerDefs() []metricDef {
	lower := func(name, unit, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: "lower", moves: moves}
	}
	higher := func(name, unit, moves string) metricDef {
		return metricDef{name: name, unit: unit, better: "higher", moves: moves}
	}
	const (
		frontEnd = "query_cu → htap_refresh (hits, stale re-execution); < 2 % elsewhere"
		operator = "query_cu, cpu_cu → scan_agg, join_heavy"
		cacheMv  = "query_cu (hit path), pass_cu (stale path) → htap_refresh; 0 elsewhere"
		trayMv   = "query_cu, sim_ms, energy_mj → tray4 only"
		simMv    = "sim_ms, energy_mj → all; a simulator-speed-only change leaves it bit-identical"
		memMv    = "cpu_cu, then query_cu → scan_agg, join_heavy"
		noneMv   = "none — context for reading a noisy run"
	)
	defs := []metricDef{
		lower("sqlparse.normalize_us", "us", frontEnd),
		lower("sqlparse.parse_us", "us", frontEnd),
		lower("sqlparse.bind_us", "us", frontEnd),
		lower("plan.clone_us", "us", "query_cu → htap_refresh"),
		lower("qcomp.compile_us", "us", "query_cu → htap_refresh, tray4 (compile × nodes)"),
		lower("qcomp.cost_us", "us", "query_cu → htap_refresh, tray4"),
		lower("sched.admit_us", "us", "pass_cu → htap_refresh, tray4"),
		lower("sched.queue_wait_ms", "ms", "pass_cu → htap_refresh (2 clients share the SoC), tray4"),
		lower("sched.work_units", "count", "pass_cu → htap_refresh, tray4"),
		lower("qef.execute_ms", "ms", operator),
		lower("qef.execute_cpu_ms", "ms", operator),
	}
	opMoves := map[string]string{
		"Scan": "scan_agg", "Filter": "scan_agg", "Project": "scan_agg", "ScalarAgg": "scan_agg",
		"GroupBy": "scan_agg", "Collect": "scan_agg",
		"GroupByPartitioned": "join_heavy", "HashJoin": "join_heavy", "Sort": "join_heavy",
		"TopK": "join_heavy", "Other": "join_heavy",
	}
	for _, b := range opBuckets {
		defs = append(defs,
			lower("ops."+b+".wall_ms", "ms", "query_cu, pass_cu → "+opMoves[b]),
			lower("ops."+b+".cycles", "count", "sim_ms → "+opMoves[b]))
	}
	return append(defs,
		lower("hostdb.glue_us", "us", "query_cu → htap_refresh"),
		lower("hostdb.host_share", "ratio", "query_cu → all (Fig 15)"),
		lower("hostdb.row_engine_ms", "ms", "none — the oracle's own time"),
		higher("hostdb.sw_speedup", "ratio", "the paper's Fig 16 number; ≥ 1.0 per query is ROADMAP item 5's gate"),
		higher("qcache.hit_ratio", "ratio", cacheMv),
		lower("qcache.hit_us", "us", cacheMv),
		lower("qcache.stale", "count", cacheMv),
		higher("qcache.plan_hits", "count", cacheMv),
		higher("qcache.shared", "count", cacheMv),
		lower("qcache.resident_kb", "KB", "heap_mb → htap_refresh"),
		lower("qcache.evictions", "count", cacheMv),
		lower("storage.generate_s", "s", "none — the benchmark's own input generation"),
		lower("storage.load_s", "s", "setup_s → all"),
		lower("storage.replica_mb", "MB", "heap_mb → all"),
		lower("storage.dml_us_per_row", "us", "pass_cu → htap_refresh"),
		lower("storage.checkpoint_ms", "ms", "pass_cu → htap_refresh"),
		lower("storage.tiles_total", "count", "sim_ms, query_cu → scan_agg"),
		higher("storage.tiles_pruned", "count", "sim_ms, query_cu → scan_agg"),
		lower("cluster.load_s", "s", "setup_s → tray4 only"),
		lower("cluster.overhead_ratio", "ratio", trayMv),
		lower("cluster.net_bytes", "B", trayMv),
		lower("cluster.moved_rows", "count", trayMv),
		lower("cluster.net_ms_sim", "ms", trayMv),
		lower("cluster.node_ms_sim", "ms", trayMv),
		lower("cluster.coord_ms_sim", "ms", trayMv),
		higher("cluster.shards_pruned", "count", trayMv),
		lower("dpu.cycles", "count", simMv),
		lower("dpu.dmem_high_water_kb", "KB", simMv),
		lower("dms.read_bytes", "B", simMv),
		lower("dms.write_bytes", "B", simMv),
		lower("dms.descriptors", "count", simMv),
		lower("power.core_mj", "mJ", simMv),
		lower("power.dms_mj", "mJ", simMv),
		lower("power.idle_mj", "mJ", simMv),
		lower("mem.allocs_per_query", "count", memMv),
		lower("mem.alloc_kb_per_query", "KB", memMv),
		lower("mem.heap_warm_mb", "MB", "none gated — heap_mb is read before the first query; this is the heap after the warm-up passes, pools and caches filled"),
		lower("mem.pool_grows", "count", memMv),
		lower("mem.gc_cycles", "count", memMv),
		lower("mem.gc_pause_ms", "ms", memMv),
		higher("obs.journal_records", "count", "none — must equal the queries issued"),
		lower("obs.profile_overhead_ratio", "ratio", "none — the cost of observing, budgeted at 1.05"),
		lower("obs.trace_overhead_ratio", "ratio", "none — traced ÷ untraced wall of the same statement"),
		lower("client.query_ms_p50", "ms", noneMv),
		lower("client.query_ms_p95", "ms", noneMv),
		lower("client.pass_ms_p50", "ms", noneMv),
		lower("client.cpu_ms_per_query", "ms", noneMv),
		lower("client.cal_ms", "ms", noneMv),
		lower("client.cal_cv", "ratio", noneMv),
		lower("client.loadavg", "count", noneMv),
		higher("client.ops_per_s", "1/s", noneMv),
	)
}
