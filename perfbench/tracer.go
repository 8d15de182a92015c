package main

import (
	"sync"
	"sync/atomic"
	"time"

	persephone "repro"
	"repro/internal/proto"
	"repro/internal/trace"
)

// tracer is the traced pass's instrumentation, all of it outside the
// program: a span sink that keeps every lifecycle span in memory, and
// timing wrappers around the public Classifier and Handler
// interfaces.
type tracer struct {
	mu    sync.Mutex
	spans []trace.Span

	classifyNs, classifyCalls atomic.Int64
	handleNs, handleCalls     atomic.Int64
}

// sink is the LiveConfig.TraceSink; the runtime calls it under its
// drain lock, the tracer's own lock orders it against count.
func (t *tracer) sink(sp trace.Span) {
	t.mu.Lock()
	t.spans = append(t.spans, sp)
	t.mu.Unlock()
}

func (t *tracer) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// window returns the spans drained between two counts.
func (t *tracer) window(lo, hi int) []trace.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[lo:hi]
}

type timedClassifier struct {
	inner persephone.Classifier
	t     *tracer
}

func (c *timedClassifier) Classify(p []byte) int {
	t0 := time.Now()
	k := c.inner.Classify(p)
	c.t.classifyNs.Add(int64(time.Since(t0)))
	c.t.classifyCalls.Add(1)
	return k
}

func (c *timedClassifier) NumTypes() int { return c.inner.NumTypes() }
func (c *timedClassifier) Name() string  { return c.inner.Name() }

type timedHandler struct {
	inner persephone.Handler
	t     *tracer
}

func (h *timedHandler) Handle(typ int, payload, resp []byte) (int, proto.Status) {
	t0 := time.Now()
	n, st := h.inner.Handle(typ, payload, resp)
	h.t.handleNs.Add(int64(time.Since(t0)))
	h.t.handleCalls.Add(1)
	return n, st
}

// stages splits spans into the pipeline's stage durations, in µs.
type stages struct {
	ingress, enqueue, queue, handoff, service, reply []float64
	queueByType, serviceByType                       [2][]float64
}

func splitStages(spans []trace.Span) stages {
	var s stages
	us := func(d time.Duration) float64 { return float64(d) / 1e3 }
	for _, sp := range spans {
		s.ingress = append(s.ingress, us(sp.Classified-sp.Ingress))
		s.enqueue = append(s.enqueue, us(sp.Enqueued-sp.Classified))
		q := us(sp.Dispatched - sp.Enqueued)
		svc := us(sp.Finished - sp.Started)
		s.queue = append(s.queue, q)
		s.handoff = append(s.handoff, us(sp.Started-sp.Dispatched))
		s.service = append(s.service, svc)
		s.reply = append(s.reply, us(sp.Replied-sp.Finished))
		if sp.Type == classGet || sp.Type == classScan {
			s.queueByType[sp.Type] = append(s.queueByType[sp.Type], q)
			s.serviceByType[sp.Type] = append(s.serviceByType[sp.Type], svc)
		}
	}
	return s
}
