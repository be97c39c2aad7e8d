package pipeline

import (
	"context"
	"fmt"
	"sync"

	"buffalo/internal/obs"
)

// Reorder is a bounded sequence-number resequencer between a pool of
// concurrent producers and one ordered consumer: producers complete items in
// whatever order they finish and Put them under the sequence number they were
// assigned at dispatch; Pop delivers items strictly in sequence-number order,
// starting at 0. It is what lets a plan-ahead planner pool run several
// K-searches concurrently while the training loop still consumes plans in the
// exact order the batches were sampled — the pool changes timing, never the
// stream.
//
// The window bounds how far completed items may run ahead of the consumer:
// Put blocks while seq >= next + window, pacing producers the way a bounded
// queue paces a single one. The item the consumer needs next (seq == next)
// is always admitted immediately, whatever the backlog, so a stalled window
// cannot deadlock: the blocking producers are by construction holding later
// sequence numbers than the one being waited for.
//
// Safe for any number of concurrent producers and one or more consumers. Like
// Queue it is never closed: producers and consumers stop by cancellation.
type Reorder[T any] struct {
	mu      sync.Mutex
	pending map[uint64]T
	next    uint64 // lowest sequence number not yet delivered
	window  uint64
	// wake is closed-and-replaced whenever state changes that blocked
	// waiters care about (an item arrived, the window advanced):
	// a broadcast without tracking individual waiters.
	wake  chan struct{}
	gauge *obs.Gauge
}

// NewReorder builds a resequencer admitting completed items up to window
// sequence numbers ahead of the next undelivered one (minimum 1). gauge may
// be nil; when set it tracks the number of buffered (completed, undelivered)
// items.
func NewReorder[T any](window int, gauge *obs.Gauge) *Reorder[T] {
	if window < 1 {
		window = 1
	}
	return &Reorder[T]{
		pending: make(map[uint64]T),
		window:  uint64(window),
		wake:    make(chan struct{}),
		gauge:   gauge,
	}
}

// Put inserts the item completed under seq, blocking while seq is more than
// window-1 ahead of the next undelivered sequence number. It returns
// ctx.Err() if the context is canceled while waiting, and a hard error for a
// duplicate or already-delivered seq (a producer-pool wiring bug).
func (r *Reorder[T]) Put(ctx context.Context, seq uint64, v T) error {
	for {
		r.mu.Lock()
		if seq < r.next {
			r.mu.Unlock()
			return fmt.Errorf("pipeline: reorder seq %d already delivered (next %d)", seq, r.next)
		}
		if _, dup := r.pending[seq]; dup {
			r.mu.Unlock()
			return fmt.Errorf("pipeline: duplicate reorder seq %d", seq)
		}
		if seq < r.next+r.window {
			r.pending[seq] = v
			n := int64(len(r.pending))
			r.broadcastLocked()
			r.mu.Unlock()
			r.gauge.Set(n)
			return nil
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// Pop delivers the next item in sequence order, blocking until it arrives.
// It returns ctx.Err() if the context is canceled while waiting.
func (r *Reorder[T]) Pop(ctx context.Context) (T, error) {
	var zero T
	for {
		r.mu.Lock()
		if v, ok := r.pending[r.next]; ok {
			delete(r.pending, r.next)
			r.next++
			n := int64(len(r.pending))
			r.broadcastLocked()
			r.mu.Unlock()
			r.gauge.Set(n)
			return v, nil
		}
		wake := r.wake
		r.mu.Unlock()
		select {
		case <-wake:
		case <-ctx.Done():
			return zero, ctx.Err()
		}
	}
}

// broadcastLocked wakes every blocked Put and Pop by closing the current wake
// channel and installing a fresh one. Callers hold r.mu.
func (r *Reorder[T]) broadcastLocked() {
	close(r.wake)
	r.wake = make(chan struct{})
}
