package main

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	persephone "repro"
	"repro/internal/frontend"
	"repro/internal/proto"
	"repro/internal/psp"
)

// liveSpec is one workload against the live runtime.
type liveSpec struct {
	network  string // transport of the kv backends
	workers  int    // per backend
	backends int
	fanout   bool    // queries go through the fan-out frontend
	rate     float64 // open-loop requests (queries) per second; 0 = closed loop
	scanFrac float64
	conns    int // closed loop
	depth    int
}

// The fan-out rate is 2500 queries/s: at 5000, ten-run sets on the
// 2-vCPU design host spread 9–26% in median latency, at 2500 6%.
var liveSpecs = map[string]liveSpec{
	"rocksdb-udp": {network: "udp", workers: 2, backends: 1, rate: 16000, scanFrac: 0.5},
	"get-tcp":     {network: "tcp", workers: 2, backends: 1, conns: 2, depth: 16},
	"fanout-udp":  {network: "udp", workers: 1, backends: 2, fanout: true, rate: 2500},
}

// Timings shared by every live workload.
const (
	liveWarmup   = time.Second
	liveGrace    = 300 * time.Millisecond
	flushEvery   = 50 * time.Millisecond
	liveSetups   = 9 // set-ups per e2e run; setup_s is their median
	inprocCallN  = 2000
	latencyWidth = int64(time.Second) // window for the windowed p99
)

// liveEnv is a running deployment: the kv backends, the optional
// frontend, and the goroutine that drains lifecycle spans the way a
// scraped server's stats path does.
type liveEnv struct {
	spec   liveSpec
	apps   []*kvApp
	lis    []*persephone.LiveListener
	fe     *frontend.Frontend
	target string
	tr     *tracer
	stop   chan struct{}
	wg     sync.WaitGroup
}

// startLive brings a deployment up and waits for its first correct
// answer. With tr set, the backends run with the tracer's sink and
// wrappers.
func startLive(spec liveSpec, tr *tracer) (*liveEnv, error) {
	e := &liveEnv{spec: spec, tr: tr, stop: make(chan struct{})}
	addrs := make([]string, 0, spec.backends)
	for b := 0; b < spec.backends; b++ {
		app := newKVApp()
		cfg := persephone.LiveConfig{
			Workers:    spec.workers,
			Classifier: persephone.FieldClassifier(0, 2),
			Handler:    app,
		}
		if tr != nil {
			cfg.Classifier = &timedClassifier{inner: cfg.Classifier, t: tr}
			cfg.Handler = &timedHandler{inner: app, t: tr}
			cfg.TraceSink = tr.sink
		}
		l, err := persephone.Listen(spec.network, "127.0.0.1:0", cfg)
		if err != nil {
			e.shutdown()
			return nil, fmt.Errorf("listen backend %d: %w", b, err)
		}
		e.apps = append(e.apps, app)
		e.lis = append(e.lis, l)
		addrs = append(addrs, l.Addr().String())
	}
	e.target = addrs[0]
	if spec.fanout {
		fe, err := frontend.Listen("127.0.0.1:0", frontend.Config{Backends: addrs, FanOut: spec.backends})
		if err != nil {
			e.shutdown()
			return nil, err
		}
		e.fe = fe
		e.target = fe.Addr().String()
	}
	if err := e.firstAnswer(); err != nil {
		e.shutdown()
		return nil, err
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		t := time.NewTicker(flushEvery)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.flush()
			}
		}
	}()
	return e, nil
}

// flush drains every backend's span rings.
func (e *liveEnv) flush() {
	for _, l := range e.lis {
		l.Server().FlushTrace()
	}
}

// firstAnswer sends GETs until one comes back correct.
func (e *liveEnv) firstAnswer() error {
	const key = 7
	if e.spec.network == "tcp" && !e.spec.fanout {
		c, err := net.Dial("tcp", e.target)
		if err != nil {
			return err
		}
		defer c.Close()
		if _, err := c.Write(appendFrame(nil, 1, key)); err != nil {
			return err
		}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		var sc psp.FrameScanner
		buf := make([]byte, 4096)
		got := false
		for !got {
			n, err := c.Read(buf)
			if err != nil {
				return fmt.Errorf("first answer: %w", err)
			}
			err = sc.Push(buf[:n], func(frame []byte) error {
				hdr, payload, err := proto.DecodeHeader(frame)
				if err != nil || hdr.Status != proto.StatusOK || !checkReply(classGet, key, payload) {
					return errors.New("first answer is wrong")
				}
				got = true
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	raddr, err := net.ResolveUDPAddr("udp", e.target)
	if err != nil {
		return err
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return err
	}
	defer c.Close()
	buf := make([]byte, 4096)
	for attempt := uint64(1); attempt <= 50; attempt++ {
		if _, err := c.Write(appendRequest(nil, attempt, classGet, key)); err != nil {
			return err
		}
		_ = c.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, err := c.Read(buf)
		if err != nil {
			continue // lost or late: ask again
		}
		hdr, payload, err := proto.DecodeHeader(buf[:n])
		if err != nil || hdr.Status != proto.StatusOK || !checkReply(classGet, key, payload) {
			return errors.New("first answer is wrong")
		}
		return nil
	}
	return errors.New("no answer to the first request")
}

// shutdown stops the drain goroutine, the frontend and the backends.
// Stopping a backend answers everything it accepted and flushes its
// spans, so the server ledgers are final afterwards.
func (e *liveEnv) shutdown() error {
	select {
	case <-e.stop:
	default:
		close(e.stop)
	}
	e.wg.Wait()
	var errs []error
	if e.fe != nil {
		errs = append(errs, e.fe.Close())
	}
	for _, l := range e.lis {
		errs = append(errs, l.Close())
	}
	return errors.Join(errs...)
}

// serverLedger sums the backends' counters after shutdown.
type serverLedger struct {
	dispatched, spans, lost, updates uint64
	received, rxDrops, rxSheds       uint64
	txInline                         uint64
}

func (e *liveEnv) ledger() serverLedger {
	var l serverLedger
	for _, lis := range e.lis {
		st := lis.Server().StatsSnapshot()
		l.dispatched += st.Dispatched
		l.spans += st.TraceSpans
		l.lost += st.TraceLost
		l.updates += st.Updates
		l.received += lis.Received()
		l.rxDrops += lis.RxDrops()
		l.rxSheds += lis.RxSheds()
		if t := lis.TCP(); t != nil {
			l.txInline += t.TxRingFull()
		}
		if u := lis.UDP(); u != nil {
			l.txInline += u.TxRingFull()
		}
	}
	return l
}

// livePass is one measured pass of a live workload.
type livePass struct {
	short, long []sample // latency samples of the measured phase
	good, total int      // measured requests answered correctly / attempted
	sentAll     int      // requests sent, whole run
	goodAll     int      // answered correctly, whole run
	failedAll   int      // not answered correctly, whole run
	wrong       int      // OK replies with a wrong payload
	strays      int      // replies to no request, or second replies
	lags        []float64
	rtt         []float64 // µs from actual send, correct replies
	outside     []float64 // rtt minus the trailer's queue and service
	measured    time.Duration
	proc        procDelta
	heapMB      float64
	spanLo      int // tracer span indices of the measured phase
	spanHi      int
	inputs      []reqInput // what the load generator sent, for the layer loops
}

// reqInput is one generated request.
type reqInput struct {
	class uint8
	key   uint32
}

// runPass drives the deployment for the warm-up plus measure.
func runPass(e *liveEnv, seed uint64, measure time.Duration) (*livePass, error) {
	p := &livePass{measured: measure}
	var snap0 procSnap
	onPhase := func(measuring bool) {
		e.flush()
		mark := 0
		if e.tr != nil {
			mark = e.tr.count()
		}
		if measuring {
			p.spanLo = mark
			snap0 = snapProc()
		} else {
			p.spanHi = mark
			p.proc = snap0.to(snapProc())
		}
	}
	spec := e.spec
	if spec.rate > 0 {
		ol := &openLoop{addr: e.target, rate: spec.rate, scanFrac: spec.scanFrac, seed: seed,
			warmup: liveWarmup, measure: measure, grace: liveGrace, onPhase: onPhase}
		res, err := ol.run()
		if err != nil {
			return nil, err
		}
		p.heapMB = liveHeapMB() - float64(res.retained())/(1<<20)
		p.fromOpenLoop(res, spec)
		return p, nil
	}
	cl := &closedLoop{addr: e.target, conns: spec.conns, depth: spec.depth, seed: seed,
		warmup: liveWarmup, measure: measure, onPhase: onPhase}
	res, err := cl.run()
	if err != nil {
		return nil, err
	}
	p.heapMB = liveHeapMB() - float64(res.retained())/(1<<20)
	p.fromClosedLoop(res)
	return p, nil
}

func (p *livePass) fromOpenLoop(res *olResult, spec liveSpec) {
	p.sentAll = res.attempts
	p.strays = int(res.strays)
	for _, q := range res.reqs {
		switch {
		case q.good:
			p.goodAll++
		case q.bad:
			p.wrong++
			p.failedAll++
		default: // no reply, or a non-OK status
			p.failedAll++
		}
		if q.dup {
			p.strays++
		}
	}
	m := res.measured()
	p.total = len(m)
	sched := make([]int64, len(m))
	sent := make([]int64, len(m))
	for i, q := range m {
		sched[i], sent[i] = q.sched, q.sent
		p.inputs = append(p.inputs, reqInput{q.class, q.key})
		if !q.good {
			continue
		}
		p.good++
		rtt := float64(q.recv-q.sent) / 1e3
		p.rtt = append(p.rtt, rtt)
		if q.hasTiming {
			p.outside = append(p.outside, rtt-float64(q.queue+q.service)/1e3)
		}
	}
	p.lags = sendLags(sched, sent)
	if spec.scanFrac > 0 {
		p.short = samplesOf(m, classGet)
		p.long = samplesOf(m, classScan)
	} else {
		p.short = samplesOf(m, -1)
		p.long = p.short
	}
}

func (p *livePass) fromClosedLoop(res *clResult) {
	for _, cc := range res.conns {
		p.sentAll += cc.sent
		p.strays += cc.strays
		p.goodAll += cc.good
		p.failedAll += cc.sent - cc.replies + cc.nonOK + cc.wrong
		p.wrong += cc.wrong
		for _, rep := range cc.done {
			p.total++
			p.inputs = append(p.inputs, reqInput{classGet, rep.key})
			if !rep.good {
				continue
			}
			p.good++
			rtt := float64(rep.recv-rep.sent) / 1e3
			p.rtt = append(p.rtt, rtt)
			if rep.hasTiming {
				p.outside = append(p.outside, rtt-float64(rep.queue+rep.service)/1e3)
			}
		}
	}
	p.short = res.samples()
	p.long = p.short
}
