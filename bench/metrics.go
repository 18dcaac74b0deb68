package main

// metric is one registered metric. BENCHMARK.json mirrors these tables (a
// test checks that it does); README.md says what each should move.
type metric struct {
	name   string
	unit   string
	better string
	bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

func findMetric(name string) *metric {
	for _, set := range [][]metric{endToEnd, perLayer} {
		for i := range set {
			if set[i].name == name {
				return &set[i]
			}
		}
	}
	return nil
}

// endToEnd are the seven metrics every workload reports with -trace 0,
// measured with observability detached. No time metric is raw wall-clock:
// each is divided by the reference kernel (see calib.go).
var endToEnd = []metric{
	{"cal_ops_per_s", "1/s", "higher", 0.10},
	{"cal_lat_p50_us", "us", "lower", 0.10},
	{"cal_lat_p90_us", "us", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.02},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.15},
}

// perLayer are the metrics every workload reports with -trace 1. They
// carry no bound.
var perLayer = []metric{
	// Budget rows: reference-machine µs per traced op, summing to
	// traced_op_us.
	{name: "engine.self_us", unit: "us", better: "lower"},
	{name: "mswf.self_us", unit: "us", better: "lower"},
	{name: "sqldb.span_us", unit: "us", better: "lower"},
	{name: "wsbus.span_us", unit: "us", better: "lower"},
	{name: "journal.span_us", unit: "us", better: "lower"},
	{name: "unattributed_us", unit: "us", better: "lower"},
	{name: "traced_op_us", unit: "us", better: "lower"},
	{name: "obsv.spans_per_op", unit: "count", better: "lower"},
	{name: "obsv.overhead_ratio", unit: "ratio", better: "lower"},

	// Exact counts per op from the metrics registry over the traced
	// slices.
	{name: "sqldb.stmts_per_op", unit: "count", better: "lower"},
	{name: "sqldb.rows_scanned_per_op", unit: "count", better: "lower"},
	{name: "sqldb.rows_returned_per_op", unit: "count", better: "lower"},
	{name: "sqldb.plan_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sqldb.index_hit_ratio", unit: "ratio", better: "higher"},
	{name: "sqldb.parse_us_per_op", unit: "us", better: "lower"},
	{name: "sqldb.lock_wait_us_per_op", unit: "us", better: "lower"},
	{name: "engine.activities_per_op", unit: "count", better: "lower"},
	{name: "wsbus.calls_per_op", unit: "count", better: "lower"},
	{name: "journal.appends_per_op", unit: "count", better: "lower"},
	{name: "journal.syncs_per_op", unit: "count", better: "lower"},
	{name: "journal.bytes_per_op", unit: "B", better: "lower"},

	// Probes: one public entry point of one layer, figure-shaped inputs.
	{name: "sqldb.probe.parse_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.raw_hit_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.norm_hit_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.agg120_us", unit: "us", better: "lower"},
	{name: "sqldb.probe.agg4096_us", unit: "us", better: "lower"},
	{name: "sqldb.probe.point_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.index_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.insert_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.update_pk_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.txn_ns", unit: "ns", better: "lower"},
	{name: "sqldb.probe.ddl_create_drop_us", unit: "us", better: "lower"},
	{name: "sqldb.probe.call_proc_us", unit: "us", better: "lower"},
	{name: "sqldb.probe.join_orders_items_us", unit: "us", better: "lower"},
	{name: "xpath.compile_ns", unit: "ns", better: "lower"},
	{name: "xpath.eval_ns", unit: "ns", better: "lower"},
	{name: "xdm.parse_ns", unit: "ns", better: "lower"},
	{name: "xdm.clone_ns", unit: "ns", better: "lower"},
	{name: "xdm.serialize_ns", unit: "ns", better: "lower"},
	{name: "rowset.from_result_ns", unit: "ns", better: "lower"},
	{name: "rowset.to_values_ns", unit: "ns", better: "lower"},
	{name: "dataset.fill_us", unit: "us", better: "lower"},
	{name: "dataset.update_us", unit: "us", better: "lower"},
	{name: "wsbus.call_ns", unit: "ns", better: "lower"},
	{name: "journal.append_ns", unit: "ns", better: "lower"},
	{name: "journal.checkpoint_us", unit: "us", better: "lower"},
	{name: "obsv.span_ns", unit: "ns", better: "lower"},
	{name: "sched.dispatch_ns", unit: "ns", better: "lower"},
	{name: "engine.deploy_us", unit: "us", better: "lower"},
	{name: "engine.empty_instance_ns", unit: "ns", better: "lower"},
	{name: "mswf.empty_instance_ns", unit: "ns", better: "lower"},

	// Host rows: raw facts about the machine during the run, never gated.
	{name: "host.calib_us", unit: "us", better: "lower"},
	{name: "host.calib_cv", unit: "ratio", better: "lower"},
	{name: "host.noisy", unit: "count", better: "lower"},
	{name: "host.raw_ops_per_s", unit: "1/s", better: "higher"},
	{name: "host.raw_lat_p50_us", unit: "us", better: "lower"},
	{name: "host.raw_lat_p99_us", unit: "us", better: "lower"},
	{name: "host.gc_cycles_per_kop", unit: "count", better: "lower"},
	{name: "host.gc_pause_us_per_op", unit: "us", better: "lower"},
}
