package policy

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/darc"
	"repro/internal/workload"
)

// figure1Policies builds the two policies of the Figure 1 set-up
// points, by name.
var figure1Policies = map[string]func() cluster.Policy{
	"darc": func() cluster.Policy {
		cfg := darc.DefaultConfig(16)
		cfg.MinWindowSamples = 500
		return NewDARC(cfg, 2, 0)
	},
	"cfcfs": func() cluster.Policy { return NewCFCFS(0) },
}

// figure1Run simulates the paper's Figure 1 set-up — HighBimodal, 16
// workers, 80% load — for the given horizon.
func figure1Run(t testing.TB, horizon time.Duration, newPolicy func() cluster.Policy) *cluster.Result {
	t.Helper()
	const workers = 16
	mix := workload.HighBimodal()
	res, err := cluster.Run(cluster.Config{
		Workers:        workers,
		Mix:            mix,
		Rate:           0.8 * mix.PeakLoad(workers),
		Duration:       horizon,
		WarmupFraction: 0.1,
		Seed:           1,
		NewPolicy:      newPolicy,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Machine.Arrived() == 0 || res.Machine.Completed() == 0 {
		t.Fatalf("nothing simulated: arrived %d, completed %d", res.Machine.Arrived(), res.Machine.Completed())
	}
	return res
}

// TestSimAllocBudget holds the simulator's per-request path to at most
// 0.1 heap objects per arrival under DARC and c-FCFS: event records are
// recycled, completion and arrival callbacks are built once, requests
// come from a slab, and the DARC controller dispatches without
// allocating. What remains is start-up and amortized growth.
func TestSimAllocBudget(t *testing.T) {
	const budget = 0.1
	for _, name := range []string{"darc", "cfcfs"} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res := figure1Run(t, 100*time.Millisecond, figure1Policies[name])
		runtime.ReadMemStats(&after)
		got := float64(after.Mallocs-before.Mallocs) / float64(res.Machine.Arrived())
		t.Logf("%s: %.4f allocations per arrival", name, got)
		if got > budget {
			t.Errorf("%s: %.3f allocations per arrival, budget %.1f", name, got, budget)
		}
	}
}

// BenchmarkSimFigure1Point times one 100 ms Figure 1 set-up point per
// iteration and reports simulated requests per wall-clock second.
func BenchmarkSimFigure1Point(b *testing.B) {
	for _, name := range []string{"darc", "cfcfs"} {
		b.Run(name, func(b *testing.B) {
			var arrived uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				arrived += figure1Run(b, 100*time.Millisecond, figure1Policies[name]).Machine.Arrived()
			}
			b.ReportMetric(float64(arrived)/b.Elapsed().Seconds(), "req/s")
		})
	}
}
