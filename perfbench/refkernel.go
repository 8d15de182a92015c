package main

import (
	"container/heap"
	"math/rand/v2"
	"time"
)

// The simulator is CPU- and allocation-bound, so its wall-clock
// figures follow the host's speed, which drifts by tens of percent
// over minutes on a shared 2-vCPU host. The sim-bimodal workload
// therefore runs this fixed reference kernel next to every point and
// scales its wall-clock figures to a host on which the kernel runs at
// refNominal ops/s. The kernel is the benchmark's own code, so a
// change to the program moves the scaled figures as much as the raw
// ones; only the host's drift cancels. It mirrors the simulator's
// resource use: a heap-ordered event list, a closure per event and
// allocation churn for the collector.

const (
	// refNominal is the kernel's rate on the 2-vCPU Xeon host the
	// benchmark was defined on.
	refNominal = 2.6e6
	refOps     = 30_000
)

type refEvent struct {
	at int64
	fn func()
}

type refQueue []*refEvent

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].at < q[j].at }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(*refEvent)) }
func (q *refQueue) Pop() any {
	old := *q
	e := old[len(old)-1]
	*q = old[:len(old)-1]
	return e
}

// hostSpeed runs the reference kernel and returns its rate relative to
// refNominal: below 1 on a host slower than the nominal one.
func hostSpeed() float64 {
	r := rand.New(rand.NewPCG(1, 2))
	q := &refQueue{}
	for i := 0; i < 32; i++ {
		heap.Push(q, &refEvent{at: int64(r.IntN(1000))})
	}
	t0 := time.Now()
	for i := 0; i < refOps; i++ {
		e := heap.Pop(q).(*refEvent)
		k := i
		heap.Push(q, &refEvent{at: e.at + int64(r.IntN(1000)), fn: func() { sinkInt += k }})
		buf := make([]byte, 64+r.IntN(256))
		sinkInt += len(buf)
	}
	return refOps / time.Since(t0).Seconds() / refNominal
}
