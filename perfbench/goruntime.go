package main

import (
	"math"
	"runtime"
	"runtime/metrics"
)

// procSnap is a snapshot of the process counters the per-layer
// metrics difference across a measured phase.
type procSnap struct {
	mallocs, allocBytes uint64
	gcCycles            uint64
	gcPauses, schedLat  *metrics.Float64Histogram
}

var procSamples = []metrics.Sample{
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/sched/pauses/total/gc:seconds"},
	{Name: "/sched/latencies:seconds"},
}

func snapProc() procSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(procSamples))
	copy(s, procSamples)
	metrics.Read(s)
	return procSnap{
		mallocs:    ms.Mallocs,
		allocBytes: ms.TotalAlloc,
		gcCycles:   s[0].Value.Uint64(),
		gcPauses:   s[1].Value.Float64Histogram(),
		schedLat:   s[2].Value.Float64Histogram(),
	}
}

// procDelta is what happened in the process between two snapshots.
type procDelta struct {
	mallocs, allocBytes, gcCycles uint64
	gcPauseP99, schedLatP99       float64 // µs
}

func (a procSnap) to(b procSnap) procDelta {
	return procDelta{
		mallocs:     b.mallocs - a.mallocs,
		allocBytes:  b.allocBytes - a.allocBytes,
		gcCycles:    b.gcCycles - a.gcCycles,
		gcPauseP99:  histDeltaQuantile(a.gcPauses, b.gcPauses, 0.99) * 1e6,
		schedLatP99: histDeltaQuantile(a.schedLat, b.schedLat, 0.99) * 1e6,
	}
}

// histDeltaQuantile returns the q-quantile of the observations a
// runtime histogram gained between snapshots a and b, as the upper
// edge of the bucket holding it (the lower edge for the unbounded top
// bucket). 0 when nothing was observed.
func histDeltaQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for i := range b.Counts {
		total += b.Counts[i] - a.Counts[i]
	}
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	var seen uint64
	for i := range b.Counts {
		seen += b.Counts[i] - a.Counts[i]
		if seen >= rank {
			if hi := b.Buckets[i+1]; !math.IsInf(hi, 1) {
				return hi
			}
			return b.Buckets[i]
		}
	}
	return b.Buckets[len(b.Buckets)-1]
}

// liveHeapMB collects garbage and reports the bytes held by live heap
// objects, in MB.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}
