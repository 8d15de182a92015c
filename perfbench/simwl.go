package main

import (
	"fmt"
	"runtime"
	"time"

	persephone "repro"
	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/policy"
	"repro/internal/sim"
)

// The sim-bimodal workload: the paper's Figure 1 set-up — HighBimodal
// (1 µs / 100 µs, half each), 16 workers, 80% load — simulated under
// DARC and then c-FCFS, point after point until the run's time is up.
// The simulated latencies are outputs of the model, fixed by the seed;
// what a user of the simulator waits for is the wall-clock time to
// answer a point, so that is what the latency metrics report here.
const (
	simWorkers = 16
	simLoad    = 0.8
	simHorizon = 100 * time.Millisecond // simulated time per point
	simSetups  = 51
	// setupSeed fixes the set-up's probe simulation: set-up is the same
	// work for every seed, and a per-seed probe would make it vary.
	setupSeed = 1
)

var simPolicies = [2]string{"darc", "cfcfs"}

func simRate() float64 {
	return simLoad * persephone.HighBimodal().PeakLoad(simWorkers)
}

// simPolicy builds a policy constructor by name through the public
// spec grammar. DARC gets its profiling window scaled to half the
// warm-up's arrivals, as persephone.Simulate does, so profiling ends
// inside the discarded warm-up.
func simPolicy(name string, seed uint64, horizon time.Duration) (func() cluster.Policy, error) {
	spec, err := persephone.ParsePolicySpec(name)
	if err != nil {
		return nil, err
	}
	newPolicy, err := spec.Constructor(simWorkers, persephone.HighBimodal(), seed)
	if err != nil {
		return nil, err
	}
	if spec.Name != "darc" {
		return newPolicy, nil
	}
	window := uint64(simRate() * horizon.Seconds() * 0.1 * 0.5)
	window = min(50000, max(500, window))
	return func() cluster.Policy {
		cfg := darc.DefaultConfig(simWorkers)
		cfg.MinWindowSamples = window
		return policy.NewDARC(cfg, 2, 0)
	}, nil
}

// simPoint is one simulated run and what it produced.
type simPoint struct {
	arrived, completed, dropped uint64
	observed                    uint64 // completions seen through the OnComplete hook
	busy                        int    // workers busy at the horizon
	fired                       uint64
	wall                        time.Duration
	shortP50, shortP999         time.Duration
}

func runSimPoint(name string, seed uint64, horizon time.Duration, wrap func(cluster.Policy) cluster.Policy) (*simPoint, error) {
	newPolicy, err := simPolicy(name, seed, horizon)
	if err != nil {
		return nil, err
	}
	if wrap != nil {
		inner := newPolicy
		newPolicy = func() cluster.Policy { return wrap(inner()) }
	}
	p := &simPoint{}
	t0 := time.Now()
	res, err := cluster.Run(cluster.Config{
		Workers:        simWorkers,
		Mix:            persephone.HighBimodal(),
		Rate:           simRate(),
		Duration:       horizon,
		WarmupFraction: 0.1,
		Seed:           seed,
		NewPolicy:      newPolicy,
		OnComplete:     func(*cluster.Request, sim.Time) { p.observed++ },
	})
	p.wall = time.Since(t0)
	if err != nil {
		return nil, err
	}
	m := res.Machine
	p.arrived, p.completed, p.dropped = m.Arrived(), m.Completed(), m.Dropped()
	p.busy = len(m.Workers) - len(m.IdleWorkers())
	p.fired = m.Sim.Fired()
	short := res.Recorder.Type(0).Latency
	p.shortP50 = short.QuantileDuration(0.50)
	p.shortP999 = short.QuantileDuration(0.999)
	return p, nil
}

// gatePoint checks request conservation for one point: every arrival
// is completed, dropped or still in the machine, completions counted
// by the hook match the machine's, and at least the busy workers'
// requests are in flight.
func gatePoint(rep *report, name string, p *simPoint) {
	rep.gate(p.observed == p.completed, "%s: hook saw %d completions, machine %d", name, p.observed, p.completed)
	rep.gate(p.arrived >= p.completed+p.dropped && p.arrived-p.completed-p.dropped >= uint64(p.busy),
		"%s: arrived %d < completed %d + dropped %d + busy %d", name, p.arrived, p.completed, p.dropped, p.busy)
	rep.gate(p.completed > 0, "%s: nothing completed", name)
}

// simSeed derives the seed of point rep of a run.
func simSeed(seed uint64, rep int) uint64 { return seed*1_000_003 + uint64(rep) }

// simSetup times spec parsing and policy construction for both
// policies, then a 1 ms simulation whose completions are the first
// answer.
func simSetup(seed uint64) (time.Duration, error) {
	t0 := time.Now()
	for _, name := range simPolicies {
		p, err := runSimPoint(name, seed, time.Millisecond, nil)
		if err != nil {
			return 0, err
		}
		if p.completed == 0 || p.shortP50 < time.Microsecond {
			return 0, fmt.Errorf("sim set-up: %s produced no correct completion", name)
		}
	}
	return time.Since(t0), nil
}

// simE2E runs the end-to-end pass. Every wall-clock figure is scaled
// by the reference kernel's speed measured next to it (refkernel.go).
func simE2E(rep *report, seed uint64, seconds time.Duration) error {
	setups := make([]float64, simSetups)
	for i := range setups {
		runtime.GC()
		speed := hostSpeed()
		d, err := simSetup(setupSeed)
		if err != nil {
			return err
		}
		setups[i] = d.Seconds() * speed
	}
	rep.add("setup_s", median(setups), simSetups)

	pairs, err := simPoints(rep, seed, seconds)
	if err != nil {
		return err
	}
	// Wall-clock µs per point: DARC points are the short_* figures,
	// c-FCFS points the long_p99_us figure.
	var thr, darcWall, cfcfsWall, speeds []float64
	var simulated uint64
	for _, pr := range pairs {
		d, c := pr.pts[0], pr.pts[1]
		thr = append(thr, float64(d.completed+c.completed)/(d.wall+c.wall).Seconds()/pr.speed)
		darcWall = append(darcWall, us(d.wall)*pr.speed)
		cfcfsWall = append(cfcfsWall, us(c.wall)*pr.speed)
		speeds = append(speeds, pr.speed)
		simulated += d.arrived + c.arrived
	}
	rep.attempted = int(simulated)
	rep.add("throughput_rps", median(thr), len(thr))
	rep.add("short_p50_us", quantile(darcWall, 0.50), len(darcWall))
	rep.add("short_p99_us", quantile(darcWall, 0.99), len(darcWall))
	rep.add("long_p99_us", quantile(cfcfsWall, 0.99), len(cfcfsWall))
	rep.add("host_speed", median(speeds), len(speeds))
	rep.add("live_heap_mb", liveHeapMB(), 0)
	return nil
}

// simPair is one DARC point and one c-FCFS point at the same seed,
// with the host speed measured right after them.
type simPair struct {
	pts   [2]*simPoint
	speed float64
}

// simPoints simulates DARC then c-FCFS, point after point, until the
// time is up, gating every point and DARC's short tail against
// c-FCFS's over the median point; then repeats the first DARC point
// and requires an identical result.
func simPoints(rep *report, seed uint64, seconds time.Duration) ([]simPair, error) {
	var pairs []simPair
	var tails [2][]float64
	deadline := time.Now().Add(seconds)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		var pr simPair
		for j, name := range simPolicies {
			p, err := runSimPoint(name, simSeed(seed, i), simHorizon, nil)
			if err != nil {
				return nil, err
			}
			gatePoint(rep, name, p)
			pr.pts[j] = p
			tails[j] = append(tails[j], us(p.shortP999))
		}
		pr.speed = hostSpeed()
		pairs = append(pairs, pr)
	}
	d, c := median(tails[0]), median(tails[1])
	rep.gate(d < c, "DARC short p99.9 %.1fus not below c-FCFS %.1fus (median over points)", d, c)
	rep.add("sim.short_p999_us.darc", d, len(tails[0]))
	rep.add("sim.short_p999_us.cfcfs", c, len(tails[1]))
	again, err := runSimPoint(simPolicies[0], simSeed(seed, 0), simHorizon, nil)
	if err != nil {
		return nil, err
	}
	first := pairs[0].pts[0]
	rep.gate(again.completed == first.completed && again.fired == first.fired && again.shortP999 == first.shortP999,
		"repeat of point 0 differs: completed %d/%d, events %d/%d, short p99.9 %v/%v",
		first.completed, again.completed, first.fired, again.fired, first.shortP999, again.shortP999)
	return pairs, nil
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

// timedPolicy is a timing wrapper around a cluster.Policy. It also
// samples the event list's depth at every call.
type timedPolicy struct {
	inner    cluster.Policy
	m        *cluster.Machine
	ns       time.Duration
	calls    int64
	depthSum int64
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) Init(m *cluster.Machine) {
	p.m = m
	p.inner.Init(m)
}

func (p *timedPolicy) Arrive(r *cluster.Request) {
	t0 := time.Now()
	p.inner.Arrive(r)
	p.note(t0)
}

func (p *timedPolicy) WorkerFree(w *cluster.Worker) {
	t0 := time.Now()
	p.inner.WorkerFree(w)
	p.note(t0)
}

// Completed forwards completions to policies that profile them; the
// machine only sees the wrapper.
func (p *timedPolicy) Completed(w *cluster.Worker, r *cluster.Request) {
	if co, ok := p.inner.(cluster.CompletionObserver); ok {
		t0 := time.Now()
		co.Completed(w, r)
		p.note(t0)
	}
}

func (p *timedPolicy) note(t0 time.Time) {
	p.ns += time.Since(t0)
	p.calls++
	p.depthSum += int64(p.m.Sim.Pending())
}

// simTraced runs the traced pass: an untraced reference pass for the
// process counters and the overhead baseline, then the same points
// with the policy wrapper, then the event-list loop.
func simTraced(rep *report, seed uint64, seconds time.Duration) error {
	// Reference: plain points, with allocation counts per policy.
	var plainWall, tracedWall time.Duration
	var arrived [2]uint64
	var fired uint64
	var allocs, bytes [2]uint64
	before := snapProc()
	deadline := time.Now().Add(seconds / 2)
	points := 0
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		for j, name := range simPolicies {
			s0 := snapProc()
			p, err := runSimPoint(name, simSeed(seed, i), simHorizon, nil)
			if err != nil {
				return err
			}
			d := s0.to(snapProc())
			gatePoint(rep, name, p)
			allocs[j] += d.mallocs
			bytes[j] += d.allocBytes
			arrived[j] += p.arrived
			fired += p.fired
			plainWall += p.wall
		}
		points++
	}
	proc := before.to(snapProc())
	total := arrived[0] + arrived[1]
	rep.attempted = int(total)
	rep.add("sim.events_per_req", float64(fired)/float64(total), 0)
	for j, name := range simPolicies {
		rep.add("sim.allocs_per_req."+name, float64(allocs[j])/float64(arrived[j]), 0)
		rep.add("sim.alloc_bytes_per_req."+name, float64(bytes[j])/float64(arrived[j]), 0)
	}
	addProc(rep, proc, total)

	// Traced: the same points with the timing wrapper on the policy.
	var depthSum, calls int64
	var policyNs [2]time.Duration
	var policyCalls [2]int64
	for i := 0; i < points; i++ {
		for j, name := range simPolicies {
			var tp *timedPolicy
			wrap := func(inner cluster.Policy) cluster.Policy {
				tp = &timedPolicy{inner: inner}
				return tp
			}
			p, err := runSimPoint(name, simSeed(seed, i), simHorizon, wrap)
			if err != nil {
				return err
			}
			gatePoint(rep, name, p)
			tracedWall += p.wall
			policyNs[j] += tp.ns
			policyCalls[j] += tp.calls
			depthSum += tp.depthSum
			calls += tp.calls
		}
	}
	for j, name := range simPolicies {
		rep.add("policy.ns_per_call."+name, float64(policyNs[j])/float64(policyCalls[j]), 0)
	}
	rep.add("trace.overhead_pct", 100*(tracedWall.Seconds()-plainWall.Seconds())/plainWall.Seconds(), 0)
	rep.add("eventq.ns_per_op", eventqLoop(seed, int(depthSum/calls)), 0)
	return nil
}
