// Package pipeline provides the concurrency substrate of Buffalo's
// asynchronous training loader (internal/train's sampler → planner pool →
// prefetcher stages): bounded hand-off queues, a stage group with
// first-error-wins failure, and a degree-aware device-resident feature cache
// that the serving path shares.
//
// Streams never end on their own: the loader stops every stage by
// cancellation (Pipeline.Close) and then drains its lanes with
// Queue.TryPop, so the package has no end-of-stream protocol. Stages are
// plain functions and items are type parameters. Everything is stdlib-only
// and race-clean: queues are channels, the cache is a mutex-guarded slab of
// per-degree LRU lists, and no code path calls into the device ledger while
// holding a package lock.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// Pipeline owns a set of stage goroutines sharing one cancellation scope.
// The first stage error cancels every other stage; Close is idempotent and
// returns that first error. The zero value is not usable; build with New.
type Pipeline struct {
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu  sync.Mutex
	err error
}

// New builds a pipeline whose stages are canceled when parent is canceled,
// when a stage fails, or when Close is called.
func New(parent context.Context) *Pipeline {
	if parent == nil {
		parent = context.Background()
	}
	ctx, cancel := context.WithCancel(parent)
	return &Pipeline{ctx: ctx, cancel: cancel}
}

// Context returns the pipeline's cancellation scope, for stages that block
// on work outside the queues.
func (p *Pipeline) Context() context.Context { return p.ctx }

// Go launches one stage. The stage runs until its function returns; a
// non-cancellation error is recorded (first error wins) and cancels the
// whole pipeline. Returning context.Canceled (or nil) is a clean exit —
// stages unwinding from a Close must not masquerade as failures.
func (p *Pipeline) Go(name string, fn func(ctx context.Context) error) {
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		if err := fn(p.ctx); err != nil && !errors.Is(err, context.Canceled) {
			p.fail(fmt.Errorf("pipeline: stage %s: %w", name, err))
		}
	}()
}

// fail records err as the pipeline's failure (first error wins) and cancels
// every stage.
func (p *Pipeline) fail(err error) {
	p.mu.Lock()
	if p.err == nil {
		p.err = err
	}
	p.mu.Unlock()
	p.cancel()
}

// Err returns the first stage failure, or nil. A canceled-but-healthy
// pipeline reports nil: cancellation is a lifecycle event, not an error.
func (p *Pipeline) Err() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.err
}

// Close cancels every stage, waits for all of them to unwind, and returns
// the first failure (nil on a clean shutdown). It is idempotent and safe to
// call concurrently; every call observes the fully-drained state.
func (p *Pipeline) Close() error {
	p.cancel()
	p.wg.Wait()
	return p.Err()
}
