package main

// metric is one named number the benchmark prints. Bound is the share of
// the parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics have none.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the multicast service sees. Every metric is
// defined on every workload and measured with tracing and decorators off.
var endToEnd = []metric{
	// Median over all (multicast, destination) samples of delivery time
	// minus intended send time.
	{Name: "latency_p50_ms", Unit: "ms", Better: lower, Bound: 0.25},
	// Multicasts delivered at all destinations per second between the
	// first intended send and the last delivery: the offered rate below
	// the knee, the capacity on burst-hot.
	{Name: "goodput_per_s", Unit: "1/s", Better: higher, Bound: 0.25},
	// CPU time of the child, user plus system, over the timed window per
	// multicast. The kernel measures the sum exactly and splits it into
	// user and system by sampling ticks; the sum also keeps the syscalls of
	// the TCP path, which steady-tcp exists to show. (With two Ps the
	// system half moved 3x with thread placement; see procs in main.go.)
	{Name: "cpu_ms_per_multicast", Unit: "ms", Better: lower, Bound: 0.25},
	// Share of (multicast, destination) pairs delivered by the drain
	// deadline in repetitions whose System.Check passes: 1 − failed_share.
	{Name: "delivered_share", Unit: "ratio", Better: higher, Bound: 0.001},
	// HeapAlloc after a GC at the end of the drain, before Stop.
	{Name: "heap_live_mb", Unit: "MB", Better: lower, Bound: 0.20},
	// Driver starting the child to the end of the awaited warm-up.
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// perLayer is the traced set, prefixed by the module that owns the number.
var perLayer = []metric{
	{Name: "driver.latency_p90_ms", Unit: "ms", Better: lower},
	{Name: "driver.latency_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.latency_max_ms", Unit: "ms", Better: lower},
	{Name: "driver.samples", Unit: "count", Better: higher},
	{Name: "driver.late_p99_ms", Unit: "ms", Better: lower},
	{Name: "driver.backlog_end", Unit: "count", Better: lower},
	{Name: "driver.failed_share", Unit: "ratio", Better: lower},
	{Name: "driver.trace_overhead_pct", Unit: "%", Better: lower},
	{Name: "driver.trace_overhead_p50_pct", Unit: "%", Better: lower},

	{Name: "live.submit_us_p50", Unit: "us", Better: lower},
	{Name: "live.wakeups_per_mc", Unit: "count", Better: lower},
	{Name: "live.actions_per_mc", Unit: "count", Better: lower},
	{Name: "live.scans_per_mc", Unit: "count", Better: lower},
	{Name: "live.skipped_scan_share", Unit: "ratio", Better: higher},
	{Name: "live.timer_wakeup_share", Unit: "ratio", Better: lower},

	{Name: "core.fast_share", Unit: "ratio", Better: higher},
	{Name: "core.pair_ops_per_mc", Unit: "count", Better: lower},
	{Name: "core.contended_share", Unit: "ratio", Better: lower},
	{Name: "core.sim_steps_per_delivery", Unit: "count", Better: lower},
	{Name: "core.sim_msgs_per_delivery", Unit: "count", Better: lower},
	{Name: "core.sim_ms_per_mc_500", Unit: "ms", Better: lower},
	{Name: "core.sim_ms_per_mc_2000", Unit: "ms", Better: lower},
	{Name: "core.sim_history_scaling", Unit: "ratio", Better: lower},
	{Name: "core.generic_burst_undelivered", Unit: "count", Better: lower},

	{Name: "logobj.messages_before_us_1k", Unit: "us", Better: lower},
	{Name: "logobj.messages_before_us_4k", Unit: "us", Better: lower},
	{Name: "logobj.messages_before_scaling", Unit: "ratio", Better: lower},
	{Name: "logobj.append_ns", Unit: "ns", Better: lower},
	{Name: "logobj.bump_and_lock_ns", Unit: "ns", Better: lower},

	{Name: "replog.batches_per_mc", Unit: "count", Better: lower},
	{Name: "replog.ops_per_batch", Unit: "count", Better: higher},
	{Name: "replog.fwd_ops_per_mc", Unit: "count", Better: lower},
	{Name: "replog.remote_op_share", Unit: "ratio", Better: higher},
	{Name: "replog.applies_per_mc", Unit: "count", Better: lower},
	{Name: "replog.encode_batch_ns", Unit: "ns", Better: lower},
	{Name: "replog.decode_batch_ns", Unit: "ns", Better: lower},

	{Name: "paxos.rounds_per_decision", Unit: "count", Better: lower},
	{Name: "paxos.fast_round_share", Unit: "ratio", Better: higher},
	{Name: "paxos.round_failure_share", Unit: "ratio", Better: lower},
	{Name: "paxos.window_depth_peak", Unit: "count", Better: higher},
	{Name: "paxos.probes_per_mc", Unit: "count", Better: lower},
	{Name: "paxos.lease_lost", Unit: "count", Better: lower},
	{Name: "paxos.resp_stale_share", Unit: "ratio", Better: lower},
	{Name: "paxos.accept_round_us", Unit: "us", Better: lower},

	{Name: "net.packets_per_mc", Unit: "count", Better: lower},
	{Name: "net.bytes_per_mc", Unit: "bytes", Better: lower},
	{Name: "net.packets_per_mc.pax_accept", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.pax_accept_resp", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.pax_decide", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.pax_prepare", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.pax_learn", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.replog_op", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.replog_fwd", Unit: "count", Better: lower},
	{Name: "net.packets_per_mc.datum", Unit: "count", Better: lower},
	{Name: "net.send_busy_us_per_mc", Unit: "us", Better: lower},
	{Name: "net.overflow_drops", Unit: "count", Better: lower},

	{Name: "wire.bytes_out_per_mc", Unit: "bytes", Better: lower},
	{Name: "wire.frames_per_flush", Unit: "count", Better: higher},
	{Name: "wire.flushes_per_mc", Unit: "count", Better: lower},
	{Name: "wire.write_drops", Unit: "count", Better: lower},
	{Name: "wire.queue_drops", Unit: "count", Better: lower},
	{Name: "wire.reconnects", Unit: "count", Better: lower},
	{Name: "wire.append_packet_ns", Unit: "ns", Better: lower},
	{Name: "wire.decode_packet_ns", Unit: "ns", Better: lower},

	{Name: "storage.appends_per_mc", Unit: "count", Better: lower},
	{Name: "storage.syncs_per_mc", Unit: "count", Better: lower},
	{Name: "storage.appends_per_sync", Unit: "count", Better: higher},
	{Name: "storage.bytes_per_append", Unit: "bytes", Better: lower},
	{Name: "storage.sync_wait_ms_per_mc", Unit: "ms", Better: lower},
	{Name: "storage.append_us_p50", Unit: "us", Better: lower},
	{Name: "storage.file_sync_ms_p50", Unit: "ms", Better: lower},

	{Name: "core.cpu_share", Unit: "ratio", Better: lower},
	{Name: "logobj.cpu_share", Unit: "ratio", Better: lower},
	{Name: "live.cpu_share", Unit: "ratio", Better: lower},
	{Name: "replog.cpu_share", Unit: "ratio", Better: lower},
	{Name: "paxos.cpu_share", Unit: "ratio", Better: lower},
	{Name: "net.cpu_share", Unit: "ratio", Better: lower},
	{Name: "wire.cpu_share", Unit: "ratio", Better: lower},
	{Name: "storage.cpu_share", Unit: "ratio", Better: lower},
	{Name: "obs.cpu_share", Unit: "ratio", Better: lower},
	{Name: "runtime.cpu_share", Unit: "ratio", Better: lower},
	{Name: "other.cpu_share", Unit: "ratio", Better: lower},

	{Name: "runtime.user_cpu_ms_per_mc", Unit: "ms", Better: lower},
	{Name: "runtime.sys_cpu_ms_per_mc", Unit: "ms", Better: lower},
	{Name: "runtime.parks_per_mc", Unit: "count", Better: lower},
	{Name: "runtime.preemptions_per_mc", Unit: "count", Better: lower},
	{Name: "runtime.alloc_kb_per_mc", Unit: "KB", Better: lower},
	{Name: "runtime.mallocs_per_mc", Unit: "count", Better: lower},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower},
	{Name: "runtime.rss_peak_mb", Unit: "MB", Better: lower},
	{Name: "runtime.heap_after_stop_mb", Unit: "MB", Better: lower},

	{Name: "check.verify_ms", Unit: "ms", Better: lower},
	{Name: "check.violations", Unit: "count", Better: lower},
	{Name: "workload.gen_ns_per_arrival", Unit: "ns", Better: lower},
}

// cpuLayers are the modules a CPU sample is attributed to by the package
// of its leaf function; everything else in the Go runtime is "runtime" and
// the remainder (other stdlib, other internal packages, the driver) "other".
var cpuLayers = []string{"core", "logobj", "live", "replog", "paxos", "net", "wire", "storage", "obs"}
