package cluster

import (
	"fmt"
	"time"
)

// runTrace executes a trace-replay run: arrivals come verbatim from
// the recorded sequence instead of a generator.
func runTrace(cfg Config) (*Result, error) {
	tr := cfg.Trace
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("cluster: empty trace")
	}
	numTypes := tr.NumTypes()
	var names []string
	if len(cfg.Mix.Types) >= numTypes {
		names = cfg.Mix.TypeNames()
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = tr.Duration() + time.Millisecond
	}

	s, m, series := newRun(cfg, numTypes, names, duration)

	// Replay lazily: each arrival schedules its successor, through one
	// callback, so the event queue stays small even for
	// multi-million-record traces.
	next := 0
	var arrive func()
	arrive = func() {
		r := tr.Records[next]
		m.Arrive(r.Type, r.Service)
		if next++; next < tr.Len() {
			s.At(tr.Records[next].Offset, arrive)
		}
	}
	s.At(tr.Records[0].Offset, arrive)

	s.RunUntil(duration)
	return result(m, series, tr.Rate(), duration), nil
}
