package obs

import (
	"sync"
	"time"
)

// Trace collects Events in record order. The zero value is not usable; build
// one with NewTrace (unbounded) or NewRingTrace (bounded memory: the ring
// keeps the most recent capacity events and counts the rest as dropped).
// All methods are safe for concurrent use; a nil *Trace records nothing.
type Trace struct {
	mu      sync.Mutex
	start   time.Time
	seq     uint64
	events  []Event
	cap     int // ring capacity; 0 = unbounded
	next    int // ring write cursor, valid once len(events) == cap
	dropped uint64
}

// NewTrace builds an unbounded trace starting its clock now.
func NewTrace() *Trace {
	return &Trace{start: time.Now()}
}

// NewRingTrace builds a trace that keeps only the most recent capacity
// events, overwriting the oldest once full — bounded memory for long runs.
// Overwritten events count as dropped. Capacity < 1 panics.
func NewRingTrace(capacity int) *Trace {
	if capacity < 1 {
		panic("obs: ring trace capacity must be >= 1")
	}
	return &Trace{start: time.Now(), cap: capacity, events: make([]Event, 0, capacity)}
}

// record stamps and stores one event. Spans back-date TS by their duration
// so TS is the span's start; the stamp never goes below zero.
func (t *Trace) record(ev Event) {
	if t == nil {
		return
	}
	ts := time.Since(t.start) - ev.Dur
	if ts < 0 {
		ts = 0
	}
	ev.TS = ts
	t.mu.Lock()
	t.seq++
	ev.Seq = t.seq
	switch {
	case t.cap == 0:
		t.events = append(t.events, ev)
	case len(t.events) < t.cap:
		t.events = append(t.events, ev)
	default:
		t.events[t.next] = ev
		t.next = (t.next + 1) % t.cap
		t.dropped++
	}
	t.mu.Unlock()
}

// Events returns a copy of the recorded events in record order (oldest
// first, accounting for ring wraparound).
func (t *Trace) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.events))
	if t.cap > 0 && len(t.events) == t.cap {
		out = append(out, t.events[t.next:]...)
		out = append(out, t.events[:t.next]...)
	} else {
		out = append(out, t.events...)
	}
	return out
}

// Len reports the number of retained events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Dropped reports how many events the ring overwrote.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Start returns the trace's epoch: the wall instant TS offsets are relative
// to. No caller in this repository uses it; it stays as API of the Trace
// type the root package re-exports.
func (t *Trace) Start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.start
}

// Reset drops all retained events and dropped counts; the clock and
// sequence numbers keep running so resets never reorder later events. Only
// tests call it; it stays as API of the Trace type the root package
// re-exports.
func (t *Trace) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.next = 0
	t.dropped = 0
	t.mu.Unlock()
}
