package main

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/proto"
)

// openLoop is the benchmark's own open-loop UDP generator: Poisson
// arrivals at a fixed rate from one client socket. Each request is
// timed from its scheduled send time, so a generator stall counts
// against the requests it delayed, and the lag between schedule and
// actual send is kept as a measurement of its own.
type openLoop struct {
	addr     string
	rate     float64 // requests per second
	scanFrac float64 // share of SCANs; the rest are GETs
	seed     uint64
	warmup   time.Duration
	measure  time.Duration
	grace    time.Duration // how long to wait for stragglers
	// onPhase, when set, runs on the calling goroutine once the
	// warm-up ends (true) and once the measured phase ends (false).
	onPhase func(measuring bool)
}

// olReq is one scheduled request and what became of it. The sender
// writes sent, the receiver writes the reply fields; neither reads
// the other's fields until both have finished.
type olReq struct {
	sched, sent, recv int64 // ns since start; recv 0 = no reply
	key               uint32
	class             uint8
	good              bool // reply status OK and payload correct
	bad               bool // a reply arrived but was wrong
	dup               bool // a second reply arrived
	queue, service    int64
	hasTiming         bool
}

// olResult is the outcome of one open-loop run.
type olResult struct {
	reqs     []olReq
	warmEnd  int64 // ns since start
	measEnd  int64
	strays   uint64 // replies matching no request
	attempts int    // requests sent
}

// schedule draws the run's arrivals from the seed: exponential gaps,
// the class of each request and its key.
func (o *openLoop) schedule() []olReq {
	r := rand.New(rand.NewPCG(o.seed, 0x6f70656e6c6f6f70))
	end := int64(o.warmup + o.measure)
	meanGap := 1e9 / o.rate
	reqs := make([]olReq, 0, int(o.rate*(o.warmup+o.measure).Seconds()*1.1)+64)
	t := 0.0
	for {
		t += r.ExpFloat64() * meanGap
		if int64(t) >= end {
			return reqs
		}
		class := uint8(classGet)
		if r.Float64() < o.scanFrac {
			class = classScan
		}
		reqs = append(reqs, olReq{sched: int64(t), class: class, key: uint32(r.IntN(kvKeys))})
	}
}

// run sends the schedule and collects the replies.
func (o *openLoop) run() (*olResult, error) {
	raddr, err := net.ResolveUDPAddr("udp", o.addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	_ = conn.SetReadBuffer(4 << 20) // best effort; the default still works at these rates

	res := &olResult{reqs: o.schedule(), warmEnd: int64(o.warmup), measEnd: int64(o.warmup + o.measure)}
	reqs := res.reqs
	var answered atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()

	wg.Add(1)
	go func() {
		defer wg.Done()
		buf := make([]byte, 64<<10)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return // read deadline set by run: the drain is over
			}
			now := int64(time.Since(start))
			hdr, payload, perr := proto.DecodeHeader(buf[:n])
			if perr != nil || hdr.Kind != proto.KindResponse || hdr.RequestID == 0 || hdr.RequestID > uint64(len(reqs)) {
				res.strays++
				continue
			}
			q := &reqs[hdr.RequestID-1]
			if q.recv != 0 {
				q.dup = true
				continue
			}
			q.recv = now
			if hdr.Status == proto.StatusOK {
				if checkReply(q.class, q.key, payload) {
					q.good = true
				} else {
					q.bad = true
				}
			}
			if tm, ok := proto.DecodeTiming(buf[:n], hdr); ok {
				q.queue, q.service, q.hasTiming = int64(tm.Queue), int64(tm.Service), true
			}
			answered.Add(1)
		}
	}()

	phase := make(chan bool, 2) // one value per phase change
	var sendErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(phase)
		msg := make([]byte, 0, 64)
		inMeasure := false
		for i := range reqs {
			q := &reqs[i]
			if d := time.Duration(q.sched - int64(time.Since(start))); d > 0 {
				time.Sleep(d)
			}
			if !inMeasure && q.sched >= res.warmEnd {
				inMeasure = true
				phase <- true
			}
			msg = appendRequest(msg[:0], uint64(i+1), q.class, q.key)
			q.sent = int64(time.Since(start))
			if _, err := conn.Write(msg); err != nil && sendErr == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
				sendErr = err
			}
			res.attempts++
		}
		if d := time.Duration(res.measEnd - int64(time.Since(start))); d > 0 {
			time.Sleep(d)
		}
		phase <- false
	}()
	for measuring := range phase {
		if o.onPhase != nil {
			o.onPhase(measuring)
		}
	}
	deadline := time.Now().Add(o.grace)
	for answered.Load() < int64(len(reqs)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	_ = conn.SetReadDeadline(time.Now()) // stops the receiver
	wg.Wait()
	if sendErr != nil {
		return nil, fmt.Errorf("open loop send: %w", sendErr)
	}
	return res, nil
}

// retained is the heap the result itself holds, which the live-heap
// metric leaves out: it is the load generator's, not the program's.
func (r *olResult) retained() uintptr {
	return uintptr(cap(r.reqs)) * unsafe.Sizeof(olReq{})
}

// measured returns the requests scheduled inside the measured phase.
func (r *olResult) measured() []olReq {
	lo, hi := 0, len(r.reqs)
	for lo < hi && r.reqs[lo].sched < r.warmEnd {
		lo++
	}
	return r.reqs[lo:]
}

// samples turns the measured requests of one class (or every class,
// for class < 0) into latency samples timed from the schedule.
func samplesOf(reqs []olReq, class int) []sample {
	out := make([]sample, 0, len(reqs))
	for _, q := range reqs {
		if class >= 0 && int(q.class) != class {
			continue
		}
		lat := failed
		if q.good {
			lat = float64(q.recv-q.sched) / 1e3
		}
		out = append(out, sample{at: q.sched, us: lat})
	}
	return out
}
