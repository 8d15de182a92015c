package main

import (
	"math"
	"slices"
)

// failed is the latency a request that never got a correct answer
// counts with: it misses every latency limit.
var failed = math.Inf(1)

// sample is one request outcome as the load generator saw it.
type sample struct {
	// at is when the request was due (open loop) or sent (closed
	// loop), in ns since the load generator started; it places the
	// sample in a measurement window.
	at int64
	// us is the latency in µs, or failed.
	us float64
}

// quantile returns the exact nearest-rank q-quantile of xs: the
// smallest value with at least q·len(xs) values at or below it. It
// sorts xs in place. Failures (+Inf) sort last, so once more than a
// (1−q) share of requests failed the quantile is +Inf. NaN for an
// empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	k = max(0, min(k, len(xs)-1))
	return xs[k]
}

// latencies copies the latencies of samples into a fresh slice.
func latencies(ss []sample) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = s.us
	}
	return out
}

// windowedQuantile splits samples into consecutive windows of width
// ns starting at from, takes the exact q-quantile inside each window
// that holds at least minN samples, and returns the median of those
// per-window quantiles with the number of windows used. A stall that
// hits one window moves one of the values the median is taken over,
// not the reported figure; a regression that slows every window moves
// it.
func windowedQuantile(ss []sample, from, width int64, q float64, minN int) (float64, int) {
	buckets := map[int64][]float64{}
	for _, s := range ss {
		if s.at < from {
			continue
		}
		w := (s.at - from) / width
		buckets[w] = append(buckets[w], s.us)
	}
	var per []float64
	for _, xs := range buckets {
		if len(xs) >= minN {
			per = append(per, quantile(xs, q))
		}
	}
	if len(per) == 0 {
		return math.NaN(), 0
	}
	return median(per), len(per)
}

// median is the middle value of xs (the mean of the two middle values
// for an even count); it sorts xs in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// mean is the arithmetic mean of xs, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sendLags returns, for every request of an open-loop schedule, how
// late the generator sent it in µs: actual minus scheduled send time.
// Both are ns since the generator started. A negative lag (sent
// early) is reported as 0; the generator never sends before the due
// time, so one means a clock or bookkeeping fault upstream.
func sendLags(sched, sent []int64) []float64 {
	out := make([]float64, len(sched))
	for i := range sched {
		out[i] = max(0, float64(sent[i]-sched[i])/1e3)
	}
	return out
}

// composition checks that the per-stage means add up to the mean
// client round trip. Means add; quantiles do not, so only means are
// composed. Residual is what the stages and the outside time leave
// unexplained, in µs and as a percentage of the mean RTT.
type composition struct {
	RTT, Stages, Outside float64
	Residual, Pct        float64
}

func compose(rtt float64, stageMeans []float64, outside float64) composition {
	var sum float64
	for _, m := range stageMeans {
		sum += m
	}
	res := rtt - sum - outside
	return composition{RTT: rtt, Stages: sum, Outside: outside, Residual: res, Pct: 100 * res / rtt}
}
