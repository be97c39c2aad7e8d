package obs

import (
	"sync/atomic"
	"time"
)

// Tap is a live, bounded subscription to a Recorder's event stream: every
// Event and Span the recorder sees is offered to the tap's channel with a
// non-blocking send. The hot path (the device ledger records under its
// mutex) therefore never waits on a consumer — when the channel is full the
// event is dropped and counted instead. One subscriber at a time; Subscribe
// replaces any previous tap.
//
// With no tap attached the recorder's only extra cost is one atomic pointer
// load per event and zero allocations; the overhead with a subscriber
// attached is bounded by BenchmarkRunIteration_PipelinedTap (≤1% target).
type Tap struct {
	ch      chan Event
	start   time.Time
	seq     atomic.Uint64
	dropped atomic.Uint64
}

// DefaultTapBuffer is the subscription channel capacity Subscribe uses when
// given a non-positive buffer size.
const DefaultTapBuffer = 1 << 12

// Subscribe attaches a tap with the given channel capacity (buf < 1 uses
// DefaultTapBuffer) and returns it. A previously attached tap stops
// receiving events; its channel is left open (see Unsubscribe). Safe on a
// nil receiver, which returns a nil tap.
func (r *Recorder) Subscribe(buf int) *Tap {
	if r == nil {
		return nil
	}
	if buf < 1 {
		buf = DefaultTapBuffer
	}
	t := &Tap{ch: make(chan Event, buf), start: time.Now()}
	r.tap.Store(t)
	return t
}

// Unsubscribe detaches t if it is the recorder's current tap. The tap's
// channel is deliberately never closed: a concurrent recorder goroutine may
// have loaded the tap just before the detach and still complete one send, so
// closing would race. Consumers stop by selecting on their own done signal
// (see Meter) rather than on channel closure. Safe on nil receivers.
func (r *Recorder) Unsubscribe(t *Tap) {
	if r == nil || t == nil {
		return
	}
	r.tap.CompareAndSwap(t, nil)
}

// Events returns the subscription channel. Events carry the tap's own
// sequence numbers and timestamps (offsets from Subscribe time), assigned
// before the drop decision so gaps in Seq reveal where drops happened. Only
// tests read it; it stays as API of the Tap type the root package
// re-exports, which a live subscriber cannot do without.
func (t *Tap) Events() <-chan Event {
	if t == nil {
		return nil
	}
	return t.ch
}

// Dropped reports how many events were discarded because the subscriber was
// not keeping up.
func (t *Tap) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped.Load()
}

// offer stamps and delivers one event without ever blocking: full channel →
// drop and count. Called from the recorder hot path, possibly under the
// device ledger mutex, so it must stay non-blocking and allocation-free.
func (t *Tap) offer(ev Event) {
	ev.Seq = t.seq.Add(1)
	ts := time.Since(t.start) - ev.Dur
	if ts < 0 {
		ts = 0
	}
	ev.TS = ts
	select {
	case t.ch <- ev:
	default:
		t.dropped.Add(1)
	}
}
