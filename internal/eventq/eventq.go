// Package eventq implements the future event list of the discrete-event
// simulator: a binary min-heap ordered by (time, sequence) so that
// events scheduled for the same instant fire in scheduling order, which
// keeps simulations deterministic.
//
// Event records are recycled: a record handed back with Release (the
// simulator does so for every event it fires) is reused by a later
// Push, so a steady-state simulation schedules events without
// allocating. A Handle, unlike the record pointer, goes stale once its
// event fired or was cancelled, which keeps cancellation safe against
// reuse.
package eventq

import "time"

// Event is a scheduled callback.
type Event struct {
	At  time.Duration // virtual time at which the event fires
	Seq uint64        // tie-breaker: schedule order, unique per Push
	Fn  func()        // action; never nil for queued events

	index int // heap index; notQueued after Pop/Cancel, released on the free list
}

const (
	notQueued = -1
	released  = -2
)

// Handle names one scheduling of an event. It is valid until the event
// fires or is cancelled; after that CancelHandle reports false, even if
// the record has been reused for a newer event. The zero Handle names
// no event.
type Handle struct {
	e   *Event
	seq uint64
}

// Handle returns a handle to the event's current scheduling.
func (e *Event) Handle() Handle { return Handle{e: e, seq: e.Seq} }

// Queue is a future event list. The zero value is ready to use.
// It is not safe for concurrent use; the simulator is single-threaded.
type Queue struct {
	heap []entry
	free []*Event // released records, reused by Push
	seq  uint64
}

// entry is one heap slot. It carries its event's ordering key, so
// sifting compares slots without dereferencing records.
type entry struct {
	at  time.Duration
	seq uint64
	e   *Event
}

func (a *entry) before(b *entry) bool {
	return a.at < b.at || a.at == b.at && a.seq < b.seq
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return len(q.heap) }

// Push schedules fn at the given virtual time and returns the event,
// which may later be passed to Cancel. The record is a released one
// when any is available, so it may be the same pointer an earlier,
// already fired Push returned.
func (q *Queue) Push(at time.Duration, fn func()) *Event {
	var e *Event
	if n := len(q.free); n > 0 {
		e = q.free[n-1]
		q.free[n-1] = nil
		q.free = q.free[:n-1]
		e.At, e.Seq, e.Fn = at, q.seq, fn
	} else {
		e = &Event{At: at, Seq: q.seq, Fn: fn}
	}
	q.seq++
	q.heap = append(q.heap, entry{})
	q.up(len(q.heap)-1, entry{at: at, seq: e.Seq, e: e})
	return e
}

// Pop removes and returns the earliest event, or nil if the queue is
// empty.
func (q *Queue) Pop() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	top := q.heap[0].e
	q.removeAt(0)
	top.index = notQueued
	return top
}

// Release hands a popped or cancelled event's record back for reuse by
// a later Push. The caller must not touch the record afterwards; a
// Handle to it stays safe. Releasing a queued or already released
// record panics.
func (q *Queue) Release(e *Event) {
	if e.index != notQueued {
		panic("eventq: Release of a queued or already released event")
	}
	e.index = released
	e.Fn = nil // drop the closure so the record does not keep it alive
	q.free = append(q.free, e)
}

// Peek returns the earliest event without removing it, or nil.
func (q *Queue) Peek() *Event {
	if len(q.heap) == 0 {
		return nil
	}
	return q.heap[0].e
}

// CancelHandle removes the event h names and releases its record. It
// reports whether the event was still queued; a handle whose event
// already fired or was cancelled reports false and leaves any newer
// event in the reused record alone.
func (q *Queue) CancelHandle(h Handle) bool {
	if h.e == nil || h.e.Seq != h.seq || !q.Cancel(h.e) {
		return false
	}
	q.Release(h.e)
	return true
}

// Cancel removes a pending event. It reports whether the event was
// still queued; cancelling an already-fired or already-cancelled event
// is a harmless no-op as long as its record was not released for
// reuse. Callers that release records cancel through CancelHandle.
func (q *Queue) Cancel(e *Event) bool {
	if e == nil || e.index < 0 || e.index >= len(q.heap) || q.heap[e.index].e != e {
		return false
	}
	q.removeAt(e.index)
	e.index = notQueued
	return true
}

// removeAt takes slot i out of the heap, refilling it with the last
// slot.
func (q *Queue) removeAt(i int) {
	n := len(q.heap) - 1
	last := q.heap[n]
	q.heap[n] = entry{}
	q.heap = q.heap[:n]
	if i < n && !q.down(i, last) {
		q.up(i, last)
	}
}

// set places x in slot i.
func (q *Queue) set(i int, x entry) {
	q.heap[i] = x
	x.e.index = i
}

// up moves the hole at slot i toward the root until x fits, and
// places x there.
func (q *Queue) up(i int, x entry) {
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(&q.heap[parent]) {
			break
		}
		q.set(i, q.heap[parent])
		i = parent
	}
	q.set(i, x)
}

// down moves the hole at slot i toward the leaves until x fits, places
// x there, and reports whether it moved.
func (q *Queue) down(i int, x entry) bool {
	start := i
	n := len(q.heap)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if right := child + 1; right < n && q.heap[right].before(&q.heap[child]) {
			child = right
		}
		if !q.heap[child].before(&x) {
			break
		}
		q.set(i, q.heap[child])
		i = child
	}
	q.set(i, x)
	return i > start
}
