package main

// decl names one metric of the contract. BENCHMARK.json repeats these
// lists for the driver; bench_test.go holds the two equal.
type decl struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports every one (the driver compares each workload against itself
// across commits), so each has one definition with a per-workload
// reading, given in README.md:
//
//	                 trial_k4        fabric_k16      stream_replay*   deploy_loopback
//	op               one trial       one pass        one pass         one RunLoopback
//	work_per_s       packets sent    packets sent    records          notifications
//	latency sample   one diagnosis   one epoch step  one window       one collection
var endToEnd = []decl{
	{"setup_s", "s", "lower"},
	{"op_ms_p50", "ms", "lower"},
	{"work_per_s", "1/s", "higher"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_p90", "ms", "lower"},
	{"alloc_mb_per_op", "MiB", "lower"},
}

// perLayer are the single-layer metrics of the traced run. A workload
// reports 0 for a layer it does not exercise, which is the "not on"
// column of the interaction table made checkable.
var perLayer = []decl{
	{"topology.build_ms", "ms", "lower"},
	{"pathid.build_ms", "ms", "lower"},
	{"pathid.paths", "count", "lower"},
	{"netsim.events", "count", "lower"},
	{"netsim.events_per_pkt", "ratio", "lower"},
	{"netsim.barrier_rounds", "count", "lower"},
	{"netsim.ns_per_event", "ns", "lower"},
	{"netsim.bare_ns_per_event", "ns", "lower"},
	{"netsim.k4_bare_ns_per_pkt", "ns", "lower"},
	{"netsim.shard_speedup", "ratio", "higher"},
	{"netsim.agenda_peak", "count", "lower"},
	{"netsim.peak_kb", "KiB", "lower"},
	{"dataplane.ns_per_pkt_est", "ns", "lower"},
	{"dataplane.telemetry_pkts", "count", "lower"},
	{"dataplane.records", "count", "lower"},
	{"dataplane.notifications", "count", "lower"},
	{"controlplane.diagnoses", "count", "lower"},
	{"controlplane.partial", "count", "lower"},
	{"controlplane.notify_self_ms_per_diag", "ms", "lower"},
	{"controlplane.retries_per_diag", "count", "lower"},
	{"controlplane.diags_per_run", "count", "higher"},
	{"controlplane.request_kb_per_diag", "KiB", "lower"},
	{"rca.analyze_ms_p50", "ms", "lower"},
	{"rca.analyze_ms_p95", "ms", "lower"},
	{"rca.records_per_diag", "count", "lower"},
	{"rca.share_of_trial", "share", "lower"},
	{"rca.allocs_per_diag", "count", "lower"},
	{"rca.top1_share", "share", "higher"},
	{"fsm.mine_ms_per_diag", "ms", "lower"},
	{"fsm.sequences_per_diag", "count", "lower"},
	{"fsm.incr_mine_us_per_window_est", "us", "lower"},
	{"stream.ingest_ns_per_record", "ns", "lower"},
	{"stream.ingest_share", "share", "lower"},
	{"stream.window_ms_mean", "ms", "lower"},
	{"stream.window_share", "share", "lower"},
	{"stream.allocs_per_window", "count", "lower"},
	{"stream.kb_per_window", "KiB", "lower"},
	{"stream.flows_evicted", "count", "lower"},
	{"stream.records_sampled", "count", "higher"},
	{"stream.resident_bytes", "bytes", "lower"},
	{"stream.windows", "count", "higher"},
	{"stream.diagnoses", "count", "higher"},
	{"stream.workers_speedup", "ratio", "higher"},
	{"ctrlchan.encode_ns_per_msg", "ns", "lower"},
	{"ctrlchan.decode_ns_per_msg", "ns", "lower"},
	{"ctrlchan.wire_bytes_per_msg", "bytes", "lower"},
	{"ctrlchan.udp_roundtrip_us_p50", "us", "lower"},
	{"ctrlchan.frames_sent", "count", "lower"},
	{"ctrlchan.fragments_per_frame", "ratio", "lower"},
	{"ctrlchan.reasm_dropped", "count", "lower"},
	{"ctrlchan.decode_errors", "count", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
	{"bench.unattributed_share", "share", "lower"},
}
