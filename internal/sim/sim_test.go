package sim

import (
	"testing"
	"time"
)

func TestClockAdvances(t *testing.T) {
	s := New()
	var at Time
	s.After(10*time.Microsecond, func() { at = s.Now() })
	s.Run()
	if at != 10*time.Microsecond {
		t.Fatalf("event saw time %v, want 10µs", at)
	}
	if s.Now() != 10*time.Microsecond {
		t.Fatalf("final time %v", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var order []int
	s.After(5, func() {
		order = append(order, 1)
		s.After(5, func() { order = append(order, 3) })
	})
	s.After(7, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
	if s.Fired() != 3 {
		t.Fatalf("fired %d", s.Fired())
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	fired := 0
	// Self-perpetuating process, like an open-loop arrival source.
	var tick func()
	tick = func() {
		fired++
		s.After(time.Millisecond, tick)
	}
	s.After(time.Millisecond, tick)
	s.RunUntil(10 * time.Millisecond)
	if fired != 10 {
		t.Fatalf("fired %d events, want 10", fired)
	}
	if s.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v, want horizon", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("pending %d, want the next tick", s.Pending())
	}
}

func TestRunUntilAdvancesIdleClock(t *testing.T) {
	s := New()
	s.RunUntil(time.Second)
	if s.Now() != time.Second {
		t.Fatalf("clock %v, want 1s", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.After(10, func() { fired = true })
	if !s.Cancel(e) {
		t.Fatal("cancel failed")
	}
	s.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestHalt(t *testing.T) {
	s := New()
	count := 0
	for i := 0; i < 10; i++ {
		s.After(Time(i), func() {
			count++
			if count == 3 {
				s.Halt()
			}
		})
	}
	s.Run()
	if count != 3 {
		t.Fatalf("ran %d events after halt, want 3", count)
	}
	// Run can resume after a halt.
	s.Run()
	if count != 10 {
		t.Fatalf("resume ran to %d, want 10", count)
	}
}

func TestStepReturnsFalseWhenEmpty(t *testing.T) {
	s := New()
	if s.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		s := New()
		var log []Time
		for i := 0; i < 100; i++ {
			d := Time((i * 37) % 50)
			s.After(d, func() { log = append(log, s.Now()) })
		}
		s.Run()
		return log
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestCancelAfterFireIsStale fires an event whose record the next
// scheduling reuses; cancelling through the fired event's handle must
// fail and leave the new event to fire.
func TestCancelAfterFireIsStale(t *testing.T) {
	s := New()
	old := s.After(1, func() {})
	s.Step()
	fired := false
	s.After(1, func() { fired = true })
	if s.Cancel(old) {
		t.Fatal("Cancel of a fired event reported success")
	}
	s.Run()
	if !fired {
		t.Fatal("event scheduled after the stale cancel did not fire")
	}
}

// TestStepZeroAlloc: a self-rescheduling event fires and reschedules
// without allocating.
func TestStepZeroAlloc(t *testing.T) {
	s := New()
	var tick func()
	tick = func() { s.After(time.Microsecond, tick) }
	s.After(0, tick)
	if avg := testing.AllocsPerRun(1000, func() { s.Step() }); avg != 0 {
		t.Fatalf("Step allocates %.2f objects per event, want 0", avg)
	}
}
