package main

// The metric catalogue: every name the benchmark prints, with its
// unit. BENCHMARK.json lists the same names; catalogue_test.go keeps
// the two in step.

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"short_p50_us", "us"},
	{"short_p99_us", "us"},
	{"long_p99_us", "us"},
	{"throughput_rps", "1/s"},
	{"live_heap_mb", "MB"},
}

// perLayer metrics a workload does not exercise read 0.
var perLayer = []metricDef{
	// Lifecycle spans of the live runtime, measured phase only.
	{"psp.ingress_wait_us.p50", "us"},
	{"psp.ingress_wait_us.p99", "us"},
	{"psp.ingress_wait_us.mean", "us"},
	{"psp.enqueue_us.mean", "us"},
	{"psp.queue_wait_us.short.p99", "us"},
	{"psp.queue_wait_us.long.p99", "us"},
	{"psp.queue_wait_us.mean", "us"},
	{"psp.handoff_us.p50", "us"},
	{"psp.handoff_us.p99", "us"},
	{"psp.handoff_us.mean", "us"},
	{"psp.service_us.short.p50", "us"},
	{"psp.service_us.long.p50", "us"},
	{"psp.service_us.mean", "us"},
	{"psp.reply_us.p50", "us"},
	{"psp.reply_us.p99", "us"},
	{"psp.reply_us.mean", "us"},
	// Client round trip and its composition.
	{"net.outside_server_us.p50", "us"},
	{"net.outside_server_us.p99", "us"},
	{"net.outside_server_us.mean", "us"},
	{"rtt_us.mean", "us"},
	{"stage_residual_pct", "%"},
	// Timing wrappers on the public interfaces.
	{"classify.wrapped_ns_per_call", "ns"},
	{"handler.wrapped_us_per_call", "us"},
	// Loops over each layer's public functions.
	{"classify.ns_per_call", "ns"},
	{"proto.encode_ns", "ns"},
	{"proto.decode_ns", "ns"},
	{"spsc.ring_ns", "ns"},
	{"spsc.mpsc_batch_ns", "ns"},
	{"darc.observe_ns", "ns"},
	{"kvstore.get_ns", "ns"},
	{"kvstore.scan_us", "us"},
	{"psp.inproc_call_us.p50", "us"},
	// Simulator.
	{"policy.ns_per_call.darc", "ns"},
	{"policy.ns_per_call.cfcfs", "ns"},
	{"eventq.ns_per_op", "ns"},
	{"sim.events_per_req", "count"},
	{"sim.allocs_per_req.darc", "count"},
	{"sim.allocs_per_req.cfcfs", "count"},
	{"sim.alloc_bytes_per_req.darc", "B"},
	{"sim.alloc_bytes_per_req.cfcfs", "B"},
	// Runtime counters.
	{"psp.udp.rx_drop_share", "ratio"},
	{"psp.udp.rx_shed_share", "ratio"},
	{"psp.tcp.tx_inline_share", "ratio"},
	{"darc.updates_per_10k", "count"},
	{"frontend.subreq_per_query", "count"},
	{"frontend.timeout_share", "ratio"},
	{"frontend.duplicate_share", "ratio"},
	// Whole process and Go runtime.
	{"proc.allocs_per_req", "count"},
	{"proc.alloc_bytes_per_req", "B"},
	{"go.gc_per_10k", "count"},
	{"go.gc_pause_p99_us", "us"},
	{"go.sched_latency_p99_us", "us"},
	// Validity of the measurement itself.
	{"driver.send_lag_p99_us", "us"},
	{"psp.trace_lost_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// units maps every catalogued name to its unit.
var units = func() map[string]string {
	m := map[string]string{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()

func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
