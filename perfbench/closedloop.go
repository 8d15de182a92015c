package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand/v2"
	"net"
	"sync"
	"time"
	"unsafe"

	"repro/internal/proto"
	"repro/internal/psp"
)

// closedLoop drives GETs over pipelined TCP connections: each
// connection keeps depth requests outstanding and sends the next one
// as soon as a reply comes back, so the server's per-request cost
// sets the throughput.
type closedLoop struct {
	addr    string
	conns   int
	depth   int
	seed    uint64
	warmup  time.Duration
	measure time.Duration
	onPhase func(measuring bool)
}

// clReply is one completed request of the measured phase.
type clReply struct {
	sent, recv     int64 // ns since start
	key            uint32
	good           bool
	queue, service int64
	hasTiming      bool
}

// clConn is one connection's ledger over the whole run. Every reply
// lands in exactly one of good, nonOK and wrong; strays match no
// request.
type clConn struct {
	sent, replies      int
	good, nonOK, wrong int
	strays             int
	done               []clReply // the measured phase
}

// clResult is the outcome of one closed-loop run.
type clResult struct {
	conns   []*clConn
	start   time.Time
	warmEnd int64
	measEnd int64
}

// appendFrame encodes one length-prefixed request frame.
func appendFrame(dst []byte, id uint64, key uint32) []byte {
	at := len(dst)
	dst = append(dst, 0, 0, 0, 0)
	dst = appendRequest(dst, id, classGet, key)
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

func (c *closedLoop) run() (*clResult, error) {
	res := &clResult{warmEnd: int64(c.warmup), measEnd: int64(c.warmup + c.measure)}
	netConns := make([]net.Conn, c.conns)
	for i := range netConns {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			for _, d := range netConns[:i] {
				d.Close()
			}
			return nil, err
		}
		netConns[i] = nc
	}
	res.start = time.Now()
	errs := make([]error, c.conns)
	var wg sync.WaitGroup
	for i, nc := range netConns {
		cc := &clConn{}
		res.conns = append(res.conns, cc)
		wg.Add(1)
		go func(i int, nc net.Conn, cc *clConn) {
			defer wg.Done()
			defer nc.Close()
			errs[i] = c.drive(nc, cc, rand.New(rand.NewPCG(c.seed, uint64(i)+1)), res)
		}(i, nc, cc)
	}
	phaseDone := make(chan struct{})
	go func() {
		defer close(phaseDone)
		if c.onPhase == nil {
			return
		}
		time.Sleep(time.Until(res.start.Add(c.warmup)))
		c.onPhase(true)
		time.Sleep(time.Until(res.start.Add(c.warmup + c.measure)))
		c.onPhase(false)
	}()
	wg.Wait()
	<-phaseDone
	return res, errors.Join(errs...)
}

// drive runs one connection's closed loop until the measured phase is
// over and every outstanding reply is in.
func (c *closedLoop) drive(nc net.Conn, cc *clConn, r *rand.Rand, res *clResult) error {
	start := res.start
	type pending struct {
		sent int64
		key  uint32
	}
	var inflight []pending // indexed by id-1
	out := make([]byte, 0, 4096)
	issue := func() {
		key := uint32(r.IntN(kvKeys))
		inflight = append(inflight, pending{sent: int64(time.Since(start)), key: key})
		cc.sent++
		out = appendFrame(out, uint64(cc.sent), key)
	}
	for i := 0; i < c.depth; i++ {
		issue()
	}
	if _, err := nc.Write(out); err != nil {
		return fmt.Errorf("closed loop write: %w", err)
	}
	out = out[:0]
	var sc psp.FrameScanner
	buf := make([]byte, 64<<10)
	_ = nc.SetReadDeadline(start.Add(c.warmup + c.measure + 5*time.Second))
	for cc.replies < cc.sent {
		n, err := nc.Read(buf)
		if err != nil {
			return fmt.Errorf("closed loop read after %d of %d replies: %w", cc.replies, cc.sent, err)
		}
		now := int64(time.Since(start))
		stopping := now >= res.measEnd
		err = sc.Push(buf[:n], func(frame []byte) error {
			hdr, payload, perr := proto.DecodeHeader(frame)
			if perr != nil || hdr.RequestID == 0 || hdr.RequestID > uint64(len(inflight)) {
				cc.strays++
				return nil
			}
			cc.replies++
			p := inflight[hdr.RequestID-1]
			good := false
			switch {
			case hdr.Status != proto.StatusOK:
				cc.nonOK++
			case checkReply(classGet, p.key, payload):
				cc.good++
				good = true
			default:
				cc.wrong++
			}
			if p.sent >= res.warmEnd && p.sent < res.measEnd {
				rep := clReply{sent: p.sent, recv: now, key: p.key, good: good}
				if tm, ok := proto.DecodeTiming(frame, hdr); ok {
					rep.queue, rep.service, rep.hasTiming = int64(tm.Queue), int64(tm.Service), true
				}
				cc.done = append(cc.done, rep)
			}
			if !stopping {
				issue()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("closed loop stream: %w", err)
		}
		if len(out) > 0 {
			if _, err := nc.Write(out); err != nil {
				return fmt.Errorf("closed loop write: %w", err)
			}
			out = out[:0]
		}
	}
	return nil
}

// retained is the heap the result itself holds, which the live-heap
// metric leaves out: it is the load generator's, not the program's.
func (r *clResult) retained() uintptr {
	var n uintptr
	for _, cc := range r.conns {
		n += uintptr(cap(cc.done)) * unsafe.Sizeof(clReply{})
	}
	return n
}

// samples returns the measured replies as latency samples timed from
// their send time.
func (r *clResult) samples() []sample {
	var out []sample
	for _, cc := range r.conns {
		for _, rep := range cc.done {
			lat := failed
			if rep.good {
				lat = float64(rep.recv-rep.sent) / 1e3
			}
			out = append(out, sample{at: rep.sent, us: lat})
		}
	}
	return out
}
