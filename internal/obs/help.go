package obs

// defaultHelp is the help text for the engine's standard metric names,
// emitted by the Prometheus renderer unless overridden via Describe. Keep
// entries one line: the exposition format escapes nothing here, so text
// must not contain newlines or backslashes.
var defaultHelp = map[string]string{
	"hostdb_queries_total":          "SQL queries submitted to the host database.",
	"hostdb_queries_failed":         "Queries that returned an error.",
	"hostdb_queries_offloaded":      "Queries executed on the RAPID engine.",
	"hostdb_queries_host":           "Queries executed on the host row engine.",
	"hostdb_queries_fellback":       "Offload candidates that fell back to the host engine.",
	"hostdb_checkpoints_total":      "Journal checkpoints propagated to RAPID replicas.",
	"hostdb_checkpoint_lag_entries": "Journal entries not yet propagated to RAPID replicas.",
	"hostdb_query_seconds":          "End-to-end query latency (parse to result), seconds.",

	"rapid_dpcore_cycles_total":              "dpCore cycles executed by offloaded queries (ModeDPU).",
	"rapid_dms_read_bytes_total":             "Bytes read from DRAM by the DMS for offloaded queries.",
	"rapid_dms_write_bytes_total":            "Bytes written to DRAM by the DMS for offloaded queries.",
	"rapid_dms_descriptors_total":            "DMS descriptors executed by offloaded queries.",
	"rapid_sim_microseconds_total":           "Simulated DPU execution time of offloaded queries, microseconds.",
	"rapid_activity_energy_nanojoules_total": "Activity energy (dpCore + DMS) of offloaded queries, nanojoules.",
	"rapid_idle_energy_nanojoules_total":     "Uncore/idle-floor energy of offloaded queries, nanojoules.",

	"qef_work_units_total":               "Work units executed on the dpCore pool.",
	"qef_tile_degradations":              "Tile-size degradations forced by DMEM pressure.",
	"qef_pool_grows_total":               "Backing-array allocations by tile pools inside work units (steady state: none).",
	"qcomp_group_overflow_fallbacks":     "Group-by overflow fallbacks to the partitioned plan (§5.4).",
	"ops_exists_overflow_rows_total":     "Semi/anti-join build rows beyond the DMEM hash-table capacity (§6.4); their probes are not billed DRAM latency.",
	"ops_join_filter_dropped_rows_total": "Rows a join's bit-vector filter dropped in the scan that produces its probe keys, before they were collected, partitioned and joined: its own probe side's rows, and rows deeper in it, build sides of the joins below included; EXPLAIN ANALYZE's JoinFilter rows show them per filter.",

	"rapid_query_cycles":            "Per-query dpCore cycle distribution (bucket sums reconcile with rapid_dpcore_cycles_total).",
	"rapid_query_energy_nanojoules": "Per-query energy distribution, nanojoules (sums reconcile with the activity+idle energy counters).",
	"rapid_query_net_bytes":         "Per-query exchange bytes moved across the tray interconnect (sums reconcile with rapid_net_bytes_total).",
	"cluster_query_seconds":         "End-to-end distributed query latency, seconds.",
}
