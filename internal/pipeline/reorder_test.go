package pipeline

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"
)

// TestReorderDeliversInSequence: items Put in a scrambled order come out in
// sequence order.
func TestReorderDeliversInSequence(t *testing.T) {
	r := NewReorder[int](16, nil)
	ctx := context.Background()
	order := rand.New(rand.NewSource(7)).Perm(16)
	for _, seq := range order {
		if err := r.Put(ctx, uint64(seq), seq*10); err != nil {
			t.Fatal(err)
		}
	}
	for want := 0; want < 16; want++ {
		v, err := r.Pop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v != want*10 {
			t.Fatalf("pop %d = %d, want %d", want, v, want*10)
		}
	}
}

// TestReorderWindowBounds: a Put more than window-1 ahead of the undelivered
// front blocks until the consumer advances; the next-in-order seq is always
// admitted immediately.
func TestReorderWindowBounds(t *testing.T) {
	r := NewReorder[int](2, nil)
	ctx := context.Background()
	// seq 0 and 1 fit the window; seq 2 must wait for Pop(0).
	if err := r.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	blocked := make(chan error, 1)
	go func() { blocked <- r.Put(ctx, 2, 2) }()
	select {
	case err := <-blocked:
		t.Fatalf("Put(2) returned early (%v): window not enforced", err)
	case <-time.After(20 * time.Millisecond):
	}
	if v, err := r.Pop(ctx); err != nil || v != 0 {
		t.Fatalf("Pop = %d, %v; want 0", v, err)
	}
	if err := <-blocked; err != nil {
		t.Fatalf("Put(2) after window advance: %v", err)
	}
}

// TestReorderNextNeverBlocks: even with the window full of later items, the
// sequence number the consumer needs next is admitted — the no-deadlock
// guarantee of the plan-ahead pool.
func TestReorderNextNeverBlocks(t *testing.T) {
	r := NewReorder[int](2, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := r.Put(ctx, 1, 1); err != nil {
		t.Fatal(err)
	}
	// Window is [0,2): seq 0 must insert without blocking even though the
	// buffer already holds an item.
	if err := r.Put(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	for want := 0; want < 2; want++ {
		if v, err := r.Pop(ctx); err != nil || v != want {
			t.Fatalf("Pop = %d, %v; want %d", v, err, want)
		}
	}
}

// TestReorderPoolRace drives a producer pool against one consumer under the
// race detector: dispatch order is the sequence order, completion order is
// scrambled by scheduling, delivery order must equal dispatch order.
func TestReorderPoolRace(t *testing.T) {
	const items, workers = 200, 4
	r := NewReorder[uint64](workers, nil)
	ctx := context.Background()
	feed := make(chan uint64, items)
	for i := uint64(0); i < items; i++ {
		feed <- i
	}
	close(feed)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seq := range feed {
				if err := r.Put(ctx, seq, seq); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for want := uint64(0); want < items; want++ {
		v, err := r.Pop(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if v != want {
			t.Fatalf("delivery out of order: got %d, want %d", v, want)
		}
	}
	wg.Wait()
}

// TestReorderErrors: duplicate and already-delivered sequence numbers are
// wiring bugs and fail loudly.
func TestReorderErrors(t *testing.T) {
	r := NewReorder[int](4, nil)
	ctx := context.Background()
	if err := r.Put(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, 0, 0); err == nil {
		t.Fatal("duplicate seq must fail")
	}
	if _, err := r.Pop(ctx); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(ctx, 0, 0); err == nil {
		t.Fatal("already-delivered seq must fail")
	}
}

// TestReorderCtxCancel: canceled contexts unblock both a Pop waiting on a
// missing item and a Put blocked on the window.
func TestReorderCtxCancel(t *testing.T) {
	r := NewReorder[int](1, nil)
	ctx, cancel := context.WithCancel(context.Background())
	popErr := make(chan error, 1)
	putErr := make(chan error, 1)
	go func() {
		_, err := r.Pop(ctx)
		popErr <- err
	}()
	go func() {
		// seq 1 is outside window [0,1): blocks until canceled.
		putErr <- r.Put(ctx, 1, 1)
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	if err := <-popErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("Pop under canceled ctx = %v, want context.Canceled", err)
	}
	if err := <-putErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("blocked Put under canceled ctx = %v, want context.Canceled", err)
	}
}
