package pipeline

import (
	"context"
	"sync/atomic"

	"buffalo/internal/obs"
)

// Queue is a bounded FIFO hand-off between two pipeline stages. Push blocks
// when the queue is full and Pop when it is empty, which is what paces the
// producer: a sampler can run at most `capacity` items ahead of the
// consumer, bounding host memory and staged device memory alike.
//
// The queue is safe for any number of concurrent pushers and poppers. It is
// never closed: stages stop by cancellation, and a shutdown drains what is
// left with TryPop. An optional depth gauge tracks the current backlog so
// traces can show where the pipeline bottlenecks.
type Queue[T any] struct {
	ch    chan T
	depth atomic.Int64
	gauge *obs.Gauge
}

// NewQueue builds a queue holding at most capacity items (minimum 1).
// gauge may be nil; when set it is updated with the queue's depth on every
// push and pop.
func NewQueue[T any](capacity int, gauge *obs.Gauge) *Queue[T] {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue[T]{ch: make(chan T, capacity), gauge: gauge}
}

// Push enqueues v, blocking while the queue is full. It returns ctx.Err()
// if the context is canceled first.
func (q *Queue[T]) Push(ctx context.Context, v T) error {
	select {
	case q.ch <- v:
		q.gauge.Set(q.depth.Add(1))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Pop dequeues the oldest item, blocking while the queue is empty. It
// returns ctx.Err() if the context is canceled while waiting; an item that
// is already queued is delivered even then.
func (q *Queue[T]) Pop(ctx context.Context) (T, error) {
	select {
	case v := <-q.ch:
		q.gauge.Set(q.depth.Add(-1))
		return v, nil
	default:
	}
	select {
	case v := <-q.ch:
		q.gauge.Set(q.depth.Add(-1))
		return v, nil
	case <-ctx.Done():
		var zero T
		return zero, ctx.Err()
	}
}

// TryPop dequeues without blocking. It reports false when the queue is
// momentarily empty — used by shutdown paths to drain and release whatever
// the producer managed to stage before cancellation.
func (q *Queue[T]) TryPop() (T, bool) {
	select {
	case v := <-q.ch:
		q.gauge.Set(q.depth.Add(-1))
		return v, true
	default:
		var zero T
		return zero, false
	}
}
