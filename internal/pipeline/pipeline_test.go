package pipeline

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestPipelineProducerConsumer: a two-stage pipeline moves every item in
// order, and Close then shuts it down with no leaked goroutines.
func TestPipelineProducerConsumer(t *testing.T) {
	before := runtime.NumGoroutine()
	p := New(context.Background())
	q := NewQueue[int](2, nil)
	const n = 50
	p.Go("producer", func(ctx context.Context) error {
		for i := 0; i < n; i++ {
			if err := q.Push(ctx, i); err != nil {
				return err
			}
		}
		return nil
	})
	got := make([]int, 0, n)
	done := make(chan struct{})
	p.Go("consumer", func(ctx context.Context) error {
		defer close(done)
		for len(got) < n {
			v, err := q.Pop(ctx)
			if err != nil {
				return err
			}
			got = append(got, v)
		}
		return nil
	})
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("consumer did not receive every item")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d items, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("item %d = %d, out of order", i, v)
		}
	}
	waitForGoroutines(t, before)
}

// TestPipelineStageErrorCancelsAll: one stage failing cancels its peers,
// and Close reports that first error.
func TestPipelineStageErrorCancelsAll(t *testing.T) {
	before := runtime.NumGoroutine()
	boom := errors.New("boom")
	p := New(context.Background())
	q := NewQueue[int](1, nil)
	p.Go("stuck", func(ctx context.Context) error {
		_, err := q.Pop(ctx) // blocks until a peer's failure cancels ctx
		return err
	})
	p.Go("failing", func(ctx context.Context) error { return boom })
	err := p.Close()
	if !errors.Is(err, boom) {
		t.Fatalf("Close() = %v, want the stage error", err)
	}
	if !strings.Contains(err.Error(), "stage failing") {
		t.Fatalf("error %q does not name the failing stage", err)
	}
	if err2 := p.Close(); !errors.Is(err2, boom) {
		t.Fatalf("second Close() = %v, want the same error", err2)
	}
	waitForGoroutines(t, before)
}

// TestPipelineCleanCancellation: stages that unwind with context.Canceled
// after an external cancel are not failures.
func TestPipelineCleanCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New(ctx)
	p.Go("waiter", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	cancel()
	if err := p.Close(); err != nil {
		t.Fatalf("clean cancellation reported error: %v", err)
	}
}

// TestPipelineCloseIdempotentConcurrent: racing Close calls all return and
// agree on the outcome.
func TestPipelineCloseIdempotentConcurrent(t *testing.T) {
	p := New(context.Background())
	p.Go("sleeper", func(ctx context.Context) error {
		<-ctx.Done()
		return ctx.Err()
	})
	errs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() { errs <- p.Close() }()
	}
	for i := 0; i < 3; i++ {
		select {
		case err := <-errs:
			if err != nil {
				t.Fatalf("Close() = %v, want nil", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("Close did not return")
		}
	}
}
