package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/workload"
)

var updateFigures = flag.Bool("update", false, "rewrite the simulator figure goldens under testdata/golden/")

// goldenOptions fixes the seed, loads and a short horizon so the pinned
// figures regenerate in seconds. Both loads run DARC past its profiling
// window, and the high one keeps TS-ideal interrupting requests
// (Figure 10), so every simulator path a figure uses is exercised.
func goldenOptions() Options {
	return Options{
		Duration:         20 * time.Millisecond,
		Loads:            []float64{0.5, 0.9},
		Seed:             42,
		MinWindowSamples: 500,
	}
}

// TestFigureGoldens pins the printed tables (rows and notes) of the
// simulated paper Figures 1, 3, 5a and 10 byte for byte. The simulator
// is deterministic, so any change in these files means a change in a
// paper figure; regenerate with
//
//	go test ./internal/experiments -run TestFigureGoldens -update
//
// only when a change is meant to move the figures.
func TestFigureGoldens(t *testing.T) {
	for _, name := range []string{"figure1", "figure3", "figure5a", "figure10"} {
		t.Run(name, func(t *testing.T) {
			var got bytes.Buffer
			if err := Run(name, goldenOptions(), &got); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, name+".txt", got.Bytes())
		})
	}
}

// TestSimPointGoldens pins what the printed figures round away: for
// every policy of Figures 1, 3, 5a and 10 at the golden options, the
// exact request counts, events fired, and per-type latency count, sum,
// minimum and maximum in nanoseconds. One scheduling decision that
// changes moves at least one of these numbers.
func TestSimPointGoldens(t *testing.T) {
	opt := goldenOptions()
	extreme, high := workload.ExtremeBimodal(), workload.HighBimodal()
	setups := []struct {
		name  string
		base  cluster.Config
		mix   workload.Mix
		specs []PolicySpec
	}{
		{"figure1", cluster.Config{Workers: 16}, extreme, []PolicySpec{
			specDFCFS(), specCFCFS(),
			{Name: "TS", New: func(RunCtx) cluster.Policy {
				return policy.NewTSSingleQueue(policy.TSConfig{Quantum: 5 * time.Microsecond, PreemptCost: time.Microsecond})
			}},
			specDARC(opt, 16, len(extreme.Types)),
		}},
		{"figure3", cluster.Config{Workers: 14, RTT: 10 * time.Microsecond}, high, []PolicySpec{
			specDARC(opt, 14, len(high.Types)), specCFCFS(), specDFCFS(),
		}},
		{"figure5a", cluster.Config{Workers: 14, RTT: 10 * time.Microsecond}, high, []PolicySpec{
			specShenangoDFCFS(), specShenango(), specShinjukuMQ(5*time.Microsecond, len(high.Types)),
		}},
		{"figure10", cluster.Config{Workers: 16}, extreme, []PolicySpec{
			specTSIdeal(0), specTSIdeal(time.Microsecond), specTSIdeal(4 * time.Microsecond),
		}},
	}
	var got bytes.Buffer
	for _, su := range setups {
		points, err := sweep(opt, su.base, su.mix, su.specs)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range points {
			m := p.Res.Machine
			fmt.Fprintf(&got, "%s %s load=%.2f arrived=%d completed=%d dropped=%d events=%d\n",
				su.name, p.Policy, p.Load, m.Arrived(), m.Completed(), m.Dropped(), m.Sim.Fired())
			rec := p.Res.Recorder
			for i := 0; i < rec.NumTypes(); i++ {
				writeStats(&got, rec.Type(i))
			}
			writeStats(&got, rec.All())
		}
	}
	checkGolden(t, "points.txt", got.Bytes())
}

func writeStats(b *bytes.Buffer, ts *metrics.TypeStats) {
	h := &ts.Latency
	fmt.Fprintf(b, "  %s n=%d sum=%.0f min=%d max=%d queue_sum=%.0f preempt=%d\n",
		ts.Name, h.Count(), h.Mean()*float64(h.Count()), h.Min(), h.Max(),
		ts.QueueDelay.Mean()*float64(ts.QueueDelay.Count()), ts.Preemptions)
}

// checkGolden compares got with testdata/golden/file, or rewrites the
// file under -update.
func checkGolden(t *testing.T, file string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", file)
	if *updateFigures {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("output differs from %s:\n--- got\n%s\n--- want\n%s", path, got, want)
	}
}
