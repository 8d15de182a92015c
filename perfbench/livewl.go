package main

import (
	"fmt"
	"runtime"
	"time"
)

// liveE2E runs the end-to-end pass of a live workload: liveSetups
// set-ups (the last one stays up), then one measured pass with no sink
// and no wrappers.
func liveE2E(rep *report, spec liveSpec, seed uint64, seconds time.Duration) error {
	setups := make([]float64, liveSetups)
	var env *liveEnv
	for i := range setups {
		if env != nil {
			if err := env.shutdown(); err != nil {
				return fmt.Errorf("set-up %d teardown: %w", i, err)
			}
		}
		runtime.GC()
		t0 := time.Now()
		e, err := startLive(spec, nil)
		if err != nil {
			return fmt.Errorf("set-up %d: %w", i, err)
		}
		setups[i] = time.Since(t0).Seconds()
		env = e
	}
	rep.add("setup_s", median(setups), liveSetups)

	p, err := runPass(env, seed, seconds)
	if err != nil {
		env.shutdown()
		return err
	}
	if err := env.shutdown(); err != nil {
		return err
	}
	gateLive(rep, env, p)
	headline(rep, p)
	rep.add("live_heap_mb", p.heapMB, 0)
	return nil
}

// headline adds the client-observed latency and throughput metrics.
func headline(rep *report, p *livePass) {
	rep.attempted, rep.failed = p.total, p.total-p.good
	width := latencyWidth
	from := int64(liveWarmup)
	minN := 100
	p50 := quantile(latencies(p.short), 0.50)
	rep.add("short_p50_us", p50, len(p.short))
	p99, _ := windowedQuantile(p.short, from, width, 0.99, minN)
	rep.add("short_p99_us", p99, len(p.short))
	rep.add("short_p99_us.pooled", quantile(latencies(p.short), 0.99), len(p.short))
	lp99, _ := windowedQuantile(p.long, from, width, 0.99, minN)
	rep.add("long_p99_us", lp99, len(p.long))
	rep.add("long_p99_us.pooled", quantile(latencies(p.long), 0.99), len(p.long))
	rep.add("throughput_rps", float64(p.good)/p.measured.Seconds(), p.good)
}

// gateLive checks a finished pass: replies are correct, the client's
// ledger balances, the servers' span ledger balances, and the
// frontend accounted for every sub-request.
func gateLive(rep *report, env *liveEnv, p *livePass) {
	rep.gate(p.wrong == 0, "%d replies carried a wrong value", p.wrong)
	rep.gate(p.strays == 0, "%d replies matched no outstanding request", p.strays)
	rep.gate(p.sentAll == p.goodAll+p.failedAll, "client ledger: sent %d != ok %d + failed %d", p.sentAll, p.goodAll, p.failedAll)
	l := env.ledger()
	rep.gate(l.spans+l.lost == l.dispatched, "server spans %d + lost %d != dispatched %d", l.spans, l.lost, l.dispatched)
	if env.fe != nil {
		st := env.fe.Stats()
		rep.gate(st.SubUnaccounted() == 0, "frontend: %d sub-requests unaccounted", st.SubUnaccounted())
	}
}

// liveTraced runs the traced pass of a live workload: an untraced
// reference pass for the process counters and the overhead baseline,
// then a pass with the span sink and the interface wrappers, then the
// layer loops over the requests that pass sent.
func liveTraced(rep *report, spec liveSpec, seed uint64, seconds time.Duration) error {
	env, err := startLive(spec, nil)
	if err != nil {
		return err
	}
	ref, err := runPass(env, seed, seconds/3)
	if err != nil {
		env.shutdown()
		return err
	}
	if err := env.shutdown(); err != nil {
		return err
	}
	gateLive(rep, env, ref)
	l := env.ledger()
	addProc(rep, ref.proc, uint64(max(ref.total, 1)))
	rep.add("darc.updates_per_10k", 1e4*float64(l.updates)/float64(max(l.dispatched, 1)), 0)
	rep.add("psp.trace_lost_share", float64(l.lost)/float64(max(l.spans+l.lost, 1)), 0)
	if spec.network == "udp" {
		rep.add("psp.udp.rx_drop_share", float64(l.rxDrops)/float64(max(l.received, 1)), 0)
		rep.add("psp.udp.rx_shed_share", float64(l.rxSheds)/float64(max(l.received, 1)), 0)
	} else {
		rep.add("psp.tcp.tx_inline_share", float64(l.txInline)/float64(max(l.received, 1)), 0)
	}
	if env.fe != nil {
		st := env.fe.Stats()
		q := float64(max(st.Queries, 1))
		rep.add("frontend.subreq_per_query", float64(st.SubIssued)/q, 0)
		rep.add("frontend.timeout_share", float64(st.SubTimedOut)/float64(max(st.SubIssued, 1)), 0)
		rep.add("frontend.duplicate_share", float64(st.SubDuplicate)/float64(max(st.SubIssued, 1)), 0)
	}
	if spec.rate > 0 {
		rep.add("driver.send_lag_p99_us", quantile(ref.lags, 0.99), len(ref.lags))
	}

	tr := &tracer{}
	env, err = startLive(spec, tr)
	if err != nil {
		return err
	}
	p, err := runPass(env, seed, seconds-seconds/3)
	if err != nil {
		env.shutdown()
		return err
	}
	call := inprocCalls(env)
	if err := env.shutdown(); err != nil {
		return err
	}
	gateLive(rep, env, p)
	rep.add("psp.inproc_call_us.p50", quantile(call, 0.5), len(call))

	// Overhead of the traced pass on the headline metric: median
	// latency for open loops, throughput for the closed loop.
	refRep, tRep := newReport(), newReport()
	headline(refRep, ref)
	headline(tRep, p)
	if spec.rate > 0 {
		a, b := refRep.metrics["short_p50_us"].Value, tRep.metrics["short_p50_us"].Value
		rep.add("trace.overhead_pct", 100*(b-a)/a, 0)
	} else {
		a, b := refRep.metrics["throughput_rps"].Value, tRep.metrics["throughput_rps"].Value
		rep.add("trace.overhead_pct", 100*(a-b)/a, 0)
	}
	rep.attempted, rep.failed = p.total, p.total-p.good

	st := splitStages(tr.window(p.spanLo, p.spanHi))
	n := len(st.ingress)
	rep.add("psp.ingress_wait_us.p50", quantile(st.ingress, 0.5), n)
	rep.add("psp.ingress_wait_us.p99", quantile(st.ingress, 0.99), n)
	rep.add("psp.ingress_wait_us.mean", mean(st.ingress), n)
	rep.add("psp.enqueue_us.mean", mean(st.enqueue), n)
	rep.add("psp.queue_wait_us.short.p99", quantile(st.queueByType[classGet], 0.99), len(st.queueByType[classGet]))
	long := st.queueByType[classScan]
	if len(long) == 0 {
		long = st.queueByType[classGet]
	}
	rep.add("psp.queue_wait_us.long.p99", quantile(long, 0.99), len(long))
	rep.add("psp.queue_wait_us.mean", mean(st.queue), n)
	rep.add("psp.handoff_us.p50", quantile(st.handoff, 0.5), n)
	rep.add("psp.handoff_us.p99", quantile(st.handoff, 0.99), n)
	rep.add("psp.handoff_us.mean", mean(st.handoff), n)
	svcShort := quantile(st.serviceByType[classGet], 0.5)
	rep.add("psp.service_us.short.p50", svcShort, len(st.serviceByType[classGet]))
	longSvc := st.serviceByType[classScan]
	if len(longSvc) == 0 {
		longSvc = st.serviceByType[classGet]
	}
	svcLong := quantile(longSvc, 0.5)
	rep.add("psp.service_us.long.p50", svcLong, len(longSvc))
	rep.add("psp.service_us.mean", mean(st.service), n)
	rep.add("psp.reply_us.p50", quantile(st.reply, 0.5), n)
	rep.add("psp.reply_us.p99", quantile(st.reply, 0.99), n)
	rep.add("psp.reply_us.mean", mean(st.reply), n)
	rep.add("rtt_us.mean", mean(p.rtt), len(p.rtt))
	if len(p.outside) > 0 {
		// The trailer covers ingress to handler end, so the stages it
		// spans compose with the outside time; the reply stage is
		// part of the outside time.
		c := compose(mean(p.rtt), []float64{mean(st.ingress), mean(st.enqueue), mean(st.queue), mean(st.handoff), mean(st.service)}, mean(p.outside))
		rep.add("net.outside_server_us.p50", quantile(p.outside, 0.5), len(p.outside))
		rep.add("net.outside_server_us.p99", quantile(p.outside, 0.99), len(p.outside))
		rep.add("net.outside_server_us.mean", c.Outside, len(p.outside))
		rep.add("stage_residual_pct", c.Pct, 0)
		rep.add("stage_residual_us", c.Residual, 0)
		rep.add("stage_sum_us", c.Stages, 0)
	}
	if c := tr.classifyCalls.Load(); c > 0 {
		rep.add("classify.wrapped_ns_per_call", float64(tr.classifyNs.Load())/float64(c), int(c))
	}
	if c := tr.handleCalls.Load(); c > 0 {
		rep.add("handler.wrapped_us_per_call", float64(tr.handleNs.Load())/float64(c)/1e3, int(c))
	}
	liveLayerLoops(rep, env.apps[0], p.inputs, svcShort, svcLong)
	return nil
}

// inprocCalls times GETs through Server.Call on the first backend:
// the dispatcher and worker pipeline with no network.
func inprocCalls(env *liveEnv) []float64 {
	srv := env.lis[0].Server()
	out := make([]float64, 0, inprocCallN)
	for i := 0; i < inprocCallN; i++ {
		key := uint32(i*7919) % kvKeys
		payload := appendPayload(nil, classGet, key)
		t0 := time.Now()
		resp, err := srv.Call(payload)
		d := time.Since(t0)
		if err == nil && checkReply(classGet, key, resp.Payload) {
			out = append(out, float64(d)/1e3)
		} else {
			out = append(out, failed)
		}
	}
	return out
}

// addProc adds the whole-process and Go runtime metrics of a phase
// that served reqs requests.
func addProc(rep *report, d procDelta, reqs uint64) {
	r := float64(reqs)
	rep.add("proc.allocs_per_req", float64(d.mallocs)/r, 0)
	rep.add("proc.alloc_bytes_per_req", float64(d.allocBytes)/r, 0)
	rep.add("go.gc_per_10k", 1e4*float64(d.gcCycles)/r, 0)
	rep.add("go.gc_pause_p99_us", d.gcPauseP99, 0)
	rep.add("go.sched_latency_p99_us", d.schedLatP99, 0)
}
