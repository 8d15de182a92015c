package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects what one run prints: metrics with their sample
// counts, the request ledger and the correctness gates.
type report struct {
	metrics   map[string]metric
	samples   map[string]int
	attempted int
	failed    int
	gateFails []string
}

func newReport() *report {
	return &report{metrics: map[string]metric{}, samples: map[string]int{}}
}

// add records a metric with its catalogued unit; n is the number of
// samples behind it (0 when it is not a sample statistic). Names
// outside the catalogue are printed for reading but never enter the
// result.
func (r *report) add(name string, v float64, n int) {
	r.metrics[name] = metric{Value: v, Unit: units[name]}
	if n > 0 {
		r.samples[name] = n
	}
}

// gate records a correctness check; a failed gate fails the run.
func (r *report) gate(ok bool, format string, args ...any) {
	if !ok {
		r.gateFails = append(r.gateFails, fmt.Sprintf(format, args...))
	}
}

// check verifies that every metric the run must print is present and
// finite. A missing or non-finite value is a defect of the run, not a
// number to print.
func (r *report) check(want []string) error {
	for _, name := range want {
		m, ok := r.metrics[name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", name)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return nil
}

// print writes one human-readable line per metric, then the result
// object as the last line. Only the names in want go into the result.
func (r *report) print(w io.Writer, want []string) error {
	names := make([]string, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.metrics[name]
		if n := r.samples[name]; n > 0 {
			fmt.Fprintf(w, "%-34s %14.4f %-6s (n=%d)\n", name, m.Value, m.Unit, n)
		} else {
			fmt.Fprintf(w, "%-34s %14.4f %s\n", name, m.Value, m.Unit)
		}
	}
	out := make(map[string]metric, len(want))
	for _, name := range want {
		out[name] = r.metrics[name]
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.gateFails) == 0, r.attempted, r.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
