package pipeline

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"

	"buffalo/internal/obs"
)

// TestQueueFIFOAndDepthGauge: items come out in order and the depth gauge
// tracks the backlog.
func TestQueueFIFOAndDepthGauge(t *testing.T) {
	m := obs.NewMetrics()
	g := m.Gauge("pipeline/queue/test")
	q := NewQueue[int](4, g)
	ctx := context.Background()
	for i := 1; i <= 3; i++ {
		if err := q.Push(ctx, i); err != nil {
			t.Fatal(err)
		}
	}
	if g.Value() != 3 {
		t.Fatalf("depth gauge = %d; want 3", g.Value())
	}
	for i := 1; i <= 3; i++ {
		v, err := q.Pop(ctx)
		if err != nil || v != i {
			t.Fatalf("pop = %d, %v; want %d", v, err, i)
		}
	}
	if g.Value() != 0 {
		t.Fatalf("gauge after drain = %d, want 0", g.Value())
	}
}

// TestQueuePushBlocksAtCapacity: a full queue exerts backpressure — the
// producer blocks until the consumer pops.
func TestQueuePushBlocksAtCapacity(t *testing.T) {
	q := NewQueue[int](1, nil)
	ctx := context.Background()
	if err := q.Push(ctx, 1); err != nil {
		t.Fatal(err)
	}
	pushed := make(chan error, 1)
	go func() { pushed <- q.Push(ctx, 2) }()
	select {
	case err := <-pushed:
		t.Fatalf("push to full queue returned early: %v", err)
	case <-time.After(10 * time.Millisecond):
	}
	if _, err := q.Pop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := <-pushed; err != nil {
		t.Fatalf("unblocked push failed: %v", err)
	}
}

// TestQueueCancellationUnblocks: a canceled context releases both blocked
// producers and blocked consumers with ctx.Err().
func TestQueueCancellationUnblocks(t *testing.T) {
	q := NewQueue[int](1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(2)
	errs := make(chan error, 2)
	go func() { // blocked consumer: queue empty
		defer wg.Done()
		_, err := q.Pop(ctx)
		errs <- err
	}()
	go func() { // blocked producer: fill then overfill
		defer wg.Done()
		time.Sleep(time.Millisecond)
		_ = q.Push(context.Background(), 1)
		// This push blocks only if the consumer already gave up; either
		// outcome is fine — the point is cancellation can't deadlock it.
		errs <- q.Push(ctx, 2)
	}()
	time.Sleep(5 * time.Millisecond)
	cancel()
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			t.Fatalf("want nil or context.Canceled, got %v", err)
		}
	}
}

// TestQueueCloseDrains: after Pipeline.Close has stopped the producer, the
// backlog it staged drains with TryPop, in order, and TryPop then reports
// false — the shutdown drain of the training loader's lanes.
func TestQueueCloseDrains(t *testing.T) {
	p := New(context.Background())
	q := NewQueue[string](2, nil)
	p.Go("producer", func(ctx context.Context) error {
		for _, s := range []string{"a", "b", "c"} {
			if err := q.Push(ctx, s); err != nil {
				return err // "c" never fits: canceled by Close
			}
		}
		return nil
	})
	deadline := time.Now().Add(2 * time.Second)
	for len(q.ch) < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("Close() = %v, want nil", err)
	}
	for _, want := range []string{"a", "b"} {
		if v, ok := q.TryPop(); !ok || v != want {
			t.Fatalf("drain TryPop = %q, %v; want %q", v, ok, want)
		}
	}
	if v, ok := q.TryPop(); ok {
		t.Fatalf("TryPop on drained queue returned %v", v)
	}
}

// TestQueueCloseUnblocksWaiters: stages parked in Pop on an empty queue and
// in Push on a full one wake when Pipeline.Close cancels them, rather than
// hanging — the shutdown path must never leak a goroutine parked on a queue.
func TestQueueCloseUnblocksWaiters(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(context.Background())
	empty := NewQueue[int](1, nil)
	full := NewQueue[int](1, nil)
	if err := full.Push(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	p.Go("popper", func(ctx context.Context) error {
		_, err := empty.Pop(ctx)
		errs <- err
		return err
	})
	p.Go("pusher", func(ctx context.Context) error {
		err := full.Push(ctx, 1)
		errs <- err
		return err
	})
	time.Sleep(time.Millisecond)
	closed := make(chan error, 1)
	go func() { closed <- p.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close() = %v, want nil", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close did not unblock the parked stages")
	}
	for i := 0; i < 2; i++ {
		if err := <-errs; !errors.Is(err, context.Canceled) {
			t.Fatalf("parked stage returned %v, want context.Canceled", err)
		}
	}
	waitForGoroutines(t, before)
}

// waitForGoroutines polls until the goroutine count returns to the given
// baseline (scheduling makes an instantaneous check flaky).
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("goroutines leaked: now %d, baseline %d", runtime.NumGoroutine(), baseline)
}
