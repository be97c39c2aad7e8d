package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsTapReceivesEvents(t *testing.T) {
	r := NewRecorder(nil, NewMetrics())
	tap := r.Subscribe(16)
	r.Event(KindAlloc, "gpu-0", "features", 4096, 4096, 0)
	r.Span(KindForward, "gpu-0", "fwd", time.Millisecond, 0, 0)
	r.Event(KindFree, "gpu-0", "features", 4096, 0, 0)
	r.Unsubscribe(tap)

	var evs []Event
	for i := 0; i < 3; i++ {
		select {
		case ev := <-tap.Events():
			evs = append(evs, ev)
		default:
			t.Fatalf("only %d events buffered, want 3", len(evs))
		}
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d: seq %d", i, ev.Seq)
		}
	}
	if evs[0].Kind != KindAlloc || evs[0].Live != 4096 {
		t.Errorf("first event: %+v", evs[0])
	}
	if evs[1].Kind != KindForward || evs[1].Dur != time.Millisecond {
		t.Errorf("span event: %+v", evs[1])
	}
	if tap.Dropped() != 0 {
		t.Errorf("dropped = %d", tap.Dropped())
	}
}

// TestObsTapNeverBlocks pins the slow-consumer contract: a full subscription
// channel drops (and counts) events instead of stalling the recorder.
func TestObsTapNeverBlocks(t *testing.T) {
	r := NewRecorder(nil, nil)
	tap := r.Subscribe(2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			r.Event(KindAlloc, "g", "t", 1, 1, 0)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recorder blocked on a full tap")
	}
	if got := tap.Dropped(); got != 8 {
		t.Fatalf("dropped = %d, want 8", got)
	}
	// Sequence numbers were assigned before the drop decision, so the two
	// delivered events reveal the gap.
	first := <-tap.Events()
	if first.Seq != 1 {
		t.Errorf("first delivered seq = %d", first.Seq)
	}
}

func TestObsTapUnsubscribeStopsDelivery(t *testing.T) {
	r := NewRecorder(nil, nil)
	tap := r.Subscribe(16)
	r.Event(KindMark, "", "a", 0, 0, 0)
	r.Unsubscribe(tap)
	r.Event(KindMark, "", "b", 0, 0, 0)
	if len(tap.ch) != 1 {
		t.Fatalf("%d events buffered after unsubscribe, want 1", len(tap.ch))
	}
	// Unsubscribing a stale tap must not detach a newer one.
	fresh := r.Subscribe(16)
	r.Unsubscribe(tap)
	r.Event(KindMark, "", "c", 0, 0, 0)
	if len(fresh.ch) != 1 {
		t.Fatal("stale Unsubscribe detached the fresh tap")
	}
	r.Unsubscribe(fresh)

	// Nil safety.
	var nilR *Recorder
	if nilR.Subscribe(4) != nil {
		t.Error("nil recorder Subscribe != nil")
	}
	nilR.Unsubscribe(nil)
	var nilTap *Tap
	if nilTap.Events() != nil || nilTap.Dropped() != 0 {
		t.Error("nil tap accessors not zero-valued")
	}
}

// TestObsTapNoSubscriberZeroAllocs pins the unsubscribed cost: recording
// with metrics on but no trace and no tap must not allocate (the Event
// struct is only built once a sink wants it).
func TestObsTapNoSubscriberZeroAllocs(t *testing.T) {
	r := NewRecorder(nil, NewMetrics())
	allocs := testing.AllocsPerRun(1000, func() {
		r.Event(KindAlloc, "gpu-0", "features", 4096, 8192, 0)
		r.Span(KindForward, "gpu-0", "fwd", time.Millisecond, 0, 0)
	})
	if allocs != 0 {
		t.Fatalf("unsubscribed recorder allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestObsTapConcurrent exercises subscribe/record/consume/unsubscribe under
// the race detector (scripts/check.sh runs this package with -race -run Obs).
func TestObsTapConcurrent(t *testing.T) {
	r := NewRecorder(NewRingTrace(64), NewMetrics())
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				r.Event(KindAlloc, "g", "t", int64(i), int64(i), 0)
				r.Span(KindForward, "g", "f", time.Microsecond, 0, 0)
			}
		}()
	}
	// Churn subscriptions while recorders run, consuming as we go.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			tap := r.Subscribe(32)
			for drained := false; !drained; {
				select {
				case <-tap.Events():
				default:
					drained = true
				}
			}
			r.Unsubscribe(tap)
		}
		close(stop)
	}()
	<-stop
	wg.Wait()
}

func TestObsMeterRendersAndStops(t *testing.T) {
	r := NewRecorder(nil, NewMetrics())
	var buf bytes.Buffer
	m := NewMeter(r, &buf, 10*time.Millisecond)
	r.Event(KindAlloc, "gpu-0", "features", 4096, 4096, 0)
	r.Event(KindAlloc, "gpu-1", "model", 1<<20, 1<<20, 0)
	r.Span(KindForward, "gpu-0", "fwd", 3*time.Millisecond, 0, 0)
	r.Span(KindBackward, "gpu-0", "bwd", time.Millisecond, 0, 0)
	r.Span(KindBucketReduce, "", "bucket", time.Millisecond, 4096, 0)
	r.Span(KindReduceScatter, "", "reducescatter", time.Millisecond, 4096, 1)
	r.Span(KindAllGather, "", "allgather", time.Millisecond, 4096, 2)
	r.Span(KindIteration, "gpu-0", "iter", 5*time.Millisecond, 4096, 1)
	m.Stop()
	m.Stop() // idempotent

	out := buf.String()
	for _, want := range []string{"gpu-0", "gpu-1", "1.0MB", "it/s", "forward",
		"bucketreduce", "reducescatter", "allgather"} {
		if !strings.Contains(out, want) {
			t.Errorf("meter output missing %q:\n%q", want, out)
		}
	}
	if r.tap.Load() != nil {
		t.Error("meter left its tap attached")
	}
	var nilM *Meter
	nilM.Stop()
	if NewMeter(nil, &buf, 0) != nil {
		t.Error("NewMeter(nil recorder) != nil")
	}
}
