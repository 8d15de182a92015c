package main

import (
	"encoding/binary"
	"math/rand/v2"
	"time"

	persephone "repro"
	"repro/internal/darc"
	"repro/internal/eventq"
	"repro/internal/proto"
	"repro/internal/spsc"
)

// Loops over each layer's public functions, fed with the workload's
// own inputs. Each loop runs a fixed number of iterations several
// times and reports the median time per iteration.

const loopReps = 5

// sinkInt keeps loop results live so the compiler cannot drop the
// measured calls.
var sinkInt int

func loopNs(n int, fn func(i int)) float64 {
	per := make([]float64, loopReps)
	for r := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn(i)
		}
		per[r] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(per)
}

// liveLayerLoops measures the layers a kv request crosses, over the
// requests the load generator made. svcShort and svcLong are the service
// times the DARC controller is fed, in µs.
func liveLayerLoops(rep *report, app *kvApp, in []reqInput, svcShort, svcLong float64) {
	if len(in) == 0 {
		return
	}
	payloads := make([][]byte, len(in))
	for i, q := range in {
		payloads[i] = appendPayload(nil, q.class, q.key)
	}
	at := func(i int) int { return i % len(in) }

	cl := persephone.FieldClassifier(0, 2)
	rep.add("classify.ns_per_call", loopNs(1_000_000, func(i int) { sinkInt += cl.Classify(payloads[at(i)]) }), 0)

	scanReply := make([]byte, 8)
	binary.LittleEndian.PutUint32(scanReply[0:4], scanLimit)
	binary.LittleEndian.PutUint32(scanReply[4:8], scanLimit*kvValueSize)
	reply := func(q reqInput) []byte {
		if q.class == classScan {
			return scanReply
		}
		return kvValues[q.key%kvKeys]
	}
	tm := proto.Timing{Queue: 3 * time.Microsecond, Service: time.Microsecond}
	buf := make([]byte, 0, 256)
	rep.add("proto.encode_ns", loopNs(500_000, func(i int) {
		q := in[at(i)]
		buf = proto.AppendResponse(buf[:0], proto.Header{RequestID: uint64(i)}, reply(q), tm)
		sinkInt += len(buf)
	}), 0)
	const encoded = 1024
	frames := make([][]byte, min(encoded, len(in)))
	for i := range frames {
		frames[i] = proto.AppendResponse(nil, proto.Header{RequestID: uint64(i)}, reply(in[i]), tm)
	}
	rep.add("proto.decode_ns", loopNs(500_000, func(i int) {
		f := frames[i%len(frames)]
		h, p, err := proto.DecodeHeader(f)
		if err == nil {
			t, _ := proto.DecodeTiming(f, h)
			sinkInt += len(p) + int(t.Queue)
		}
	}), 0)

	// The runtime's worker rings hold 8 requests; its ingress is an
	// MPSC ring filled in net-worker bursts of up to 32.
	ring := spsc.NewRing[*reqInput](8)
	rep.add("spsc.ring_ns", loopNs(1_000_000, func(i int) {
		ring.TryPut(&in[at(i)])
		v, _ := ring.TryGet()
		sinkInt += int(v.key)
	}), 0)
	mpsc := spsc.NewMPSC[*reqInput](8192)
	const burst = 32
	batch := make([]*reqInput, burst)
	rep.add("spsc.mpsc_batch_ns", loopNs(50_000, func(i int) {
		for j := range batch {
			batch[j] = &in[at(i*burst+j)]
		}
		n := mpsc.TryPutBatch(batch)
		for j := 0; j < n; j++ {
			v, _ := mpsc.TryGet()
			sinkInt += int(v.key)
		}
	})/burst, 0)

	cfg := darc.DefaultConfig(2)
	cfg.MinWindowSamples = 512
	if ctl, err := darc.NewController(cfg, 2); err == nil {
		svc := [2]time.Duration{time.Duration(svcShort * 1e3), time.Duration(svcLong * 1e3)}
		rep.add("darc.observe_ns", loopNs(200_000, func(i int) {
			q := in[at(i)]
			ctl.Observe(int(q.class), svc[q.class])
			if ctl.MaybeUpdate() {
				sinkInt++
			}
		}), 0)
	}

	rep.add("kvstore.get_ns", loopNs(200_000, func(i int) {
		v, _ := app.store.Get(app.keys[in[at(i)].key%kvKeys])
		sinkInt += len(v)
	}), 0)
	rep.add("kvstore.scan_us", loopNs(100, func(int) {
		n, _ := app.store.ScanCount(nil, scanLimit)
		sinkInt += n
	})/1e3, 0)
}

// eventqLoop measures one Push plus one Pop on the simulator's event
// list held at depth pending events, the way a run keeps it: each
// popped event schedules a successor a random gap later.
func eventqLoop(seed uint64, depth int) float64 {
	depth = max(depth, 1)
	r := rand.New(rand.NewPCG(seed, 0x6576656e747120))
	gaps := make([]time.Duration, 4096)
	for i := range gaps {
		gaps[i] = time.Duration(r.IntN(100_000))
	}
	var q eventq.Queue
	noop := func() {}
	for i := 0; i < depth; i++ {
		q.Push(gaps[i%len(gaps)], noop)
	}
	return loopNs(500_000, func(i int) {
		e := q.Pop()
		q.Push(e.At+gaps[i%len(gaps)], noop)
	})
}
