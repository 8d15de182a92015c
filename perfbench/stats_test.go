package main

import (
	"math"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ q, want float64 }{
		{0.50, 50}, {0.99, 99}, {0.999, 100}, {0.01, 1}, {0, 1}, {1, 100},
	} {
		if got := quantile(append([]float64(nil), xs...), c.q); got != c.want {
			t.Errorf("quantile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile([]float64{5, 1, 3}, 0.5); got != 3 {
		t.Errorf("median of {5,1,3} = %v, want 3", got)
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestFailuresCountAsInfiniteLatency(t *testing.T) {
	// 1000 requests at 100µs; the failed share decides whether p99
	// is still finite.
	mk := func(failedN int) []float64 {
		xs := make([]float64, 1000)
		for i := range xs {
			xs[i] = 100
			if i < failedN {
				xs[i] = failed
			}
		}
		return xs
	}
	if got := quantile(mk(10), 0.99); got != 100 {
		t.Errorf("1%% failed: p99 = %v, want 100", got)
	}
	if got := quantile(mk(11), 0.99); !math.IsInf(got, 1) {
		t.Errorf("1.1%% failed: p99 = %v, want +Inf", got)
	}
	if got := quantile(mk(11), 0.5); got != 100 {
		t.Errorf("1.1%% failed: p50 = %v, want 100", got)
	}

	// The open-loop generator turns an unanswered, a non-OK and a wrong
	// reply into failures, and times good ones from the schedule.
	reqs := []olReq{
		{sched: 1000, sent: 5000, recv: 11000, good: true},
		{sched: 2000, sent: 5000},                        // no reply
		{sched: 3000, sent: 5000, recv: 9000},            // non-OK status
		{sched: 4000, sent: 5000, recv: 9000, bad: true}, // wrong payload
	}
	ss := samplesOf(reqs, -1)
	if len(ss) != 4 || ss[0].us != 10 {
		t.Fatalf("samples %+v: want 4 with the first at 10µs from schedule", ss)
	}
	for _, s := range ss[1:] {
		if !math.IsInf(s.us, 1) {
			t.Errorf("sample %+v should be a failure", s)
		}
	}
}

func TestSendLagAccounting(t *testing.T) {
	sched := []int64{0, 1000, 2000, 3000}
	sent := []int64{500, 1000, 6000, 2900}
	got := sendLags(sched, sent)
	want := []float64{0.5, 0, 4, 0} // µs; early sends clamp to 0
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("lag[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// A stall delays the requests behind it: timed from the schedule,
	// the delay shows in their latency even though each round trip
	// after the late send was short.
	reqs := []olReq{{sched: 0, sent: 3_000_000, recv: 3_010_000, good: true}}
	if s := samplesOf(reqs, -1); s[0].us != 3010 {
		t.Errorf("latency from schedule = %vµs, want 3010", s[0].us)
	}
}

func TestWindowedQuantileIgnoresOneStalledWindow(t *testing.T) {
	var ss []sample
	for w := int64(0); w < 5; w++ {
		for i := int64(0); i < 200; i++ {
			lat := 100.0
			if w == 2 && i%10 == 0 {
				lat = 5000 // a stall hits 10% of one window
			}
			ss = append(ss, sample{at: w*1000 + i, us: lat})
		}
	}
	got, n := windowedQuantile(ss, 0, 1000, 0.99, 100)
	if n != 5 || got != 100 {
		t.Errorf("windowed p99 = %v over %d windows, want 100 over 5", got, n)
	}
	if pooled := quantile(latencies(ss), 0.99); pooled != 5000 {
		t.Errorf("pooled p99 = %v, want 5000", pooled)
	}
}

func TestStageMeansAddUpToMeanRTT(t *testing.T) {
	// Three requests whose server-side stamps are consistent with the
	// timing trailer the client decodes (queue = started - ingress,
	// service = finished - started).
	us := time.Microsecond
	spans := []trace.Span{
		{Type: classGet, Ingress: 0, Classified: 1 * us, Enqueued: 2 * us, Dispatched: 5 * us, Started: 6 * us, Finished: 9 * us, Replied: 10 * us},
		{Type: classScan, Ingress: 0, Classified: 2 * us, Enqueued: 3 * us, Dispatched: 40 * us, Started: 42 * us, Finished: 90 * us, Replied: 91 * us},
		{Type: classGet, Ingress: 0, Classified: 1 * us, Enqueued: 1 * us, Dispatched: 1 * us, Started: 3 * us, Finished: 4 * us, Replied: 6 * us},
	}
	rtt := []float64{30, 120, 20}
	var outside []float64
	for i, sp := range spans {
		outside = append(outside, rtt[i]-float64(sp.Finished-sp.Ingress)/1e3)
	}
	st := splitStages(spans)
	c := compose(mean(rtt), []float64{mean(st.ingress), mean(st.enqueue), mean(st.queue), mean(st.handoff), mean(st.service)}, mean(outside))
	if math.Abs(c.Residual) > 1e-9 || math.Abs(c.Pct) > 1e-9 {
		t.Errorf("residual %v µs (%v%%), want 0: %+v", c.Residual, c.Pct, c)
	}
	// A stage the decomposition misses shows as residual.
	c = compose(mean(rtt), []float64{mean(st.ingress), mean(st.queue), mean(st.handoff), mean(st.service)}, mean(outside))
	if want := mean(st.enqueue); math.Abs(c.Residual-want) > 1e-9 {
		t.Errorf("residual %v, want the missing stage's mean %v", c.Residual, want)
	}
	if got := st.queueByType[classScan]; len(got) != 1 || got[0] != 37 {
		t.Errorf("long queue waits %v, want [37]", got)
	}
}

func TestReplyCheck(t *testing.T) {
	if !checkReply(classGet, 42, kvValue(42)) || checkReply(classGet, 42, kvValue(43)) {
		t.Error("GET replies must match the key-derived value")
	}
	app := newKVApp()
	resp := make([]byte, 64)
	n, _ := app.Handle(classScan, appendPayload(nil, classScan, 0), resp)
	if !checkReply(classScan, 0, resp[:n]) {
		t.Error("a SCAN over the full store must pass the check")
	}
	n, _ = app.Handle(classGet, appendPayload(nil, classGet, 4999), resp)
	if !checkReply(classGet, 4999, resp[:n]) {
		t.Error("a GET served by the handler must pass the check")
	}
}
