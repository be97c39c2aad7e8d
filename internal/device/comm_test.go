package device

import (
	"sync"
	"testing"
	"time"
)

// TestRingReduceDurationPinned pins the ring all-reduce cost model to the
// formula the paper's interconnect analysis uses: 2(n-1) exchange steps,
// each moving one size/n chunk over the slowest link plus the per-message
// latency. Every all-reduce launch prices through this one function, so this
// test guards the volume accounting for the whole-payload and the bucketed
// reduce alike.
func TestRingReduceDurationPinned(t *testing.T) {
	c, err := NewCluster("gpu", 4, GB)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(1 << 20)
	// steps = 2(4-1) = 6, chunk = size/4, link = 10e9 B/s, latency = 25µs.
	steps := 6
	chunk := float64(size) / 4
	want := time.Duration(float64(steps)*(chunk/10e9)*float64(time.Second)) +
		time.Duration(steps)*25*time.Microsecond
	if got := c.RingReduceDuration(size); got != want {
		t.Fatalf("RingReduceDuration(%d) = %v, want %v", size, got, want)
	}
	// A reduce with nothing to hide behind charges exactly the formula,
	// fully exposed.
	if got := syncReduce(c, size); got != want {
		t.Fatalf("exposed all-reduce of %d = %v, want %v", size, got, want)
	}
	if c.CommTime() != want {
		t.Fatalf("comm clock after an exposed reduce: busy %v, want %v", c.CommTime(), want)
	}
}

// TestShardedCollectivesPinned pins the sharded-collective cost model: a
// ring reduce-scatter and a ring all-gather each cost (n-1) steps of one
// size/n chunk plus the per-step latency — (n-1)/n·size of wire volume —
// and the two back to back equal RingReduceDuration EXACTLY, by
// construction, for every cluster size and payload. The sharded path's comm
// accounting is therefore directly comparable to the all-reduce path's.
func TestShardedCollectivesPinned(t *testing.T) {
	for _, n := range []int{2, 3, 4, 8} {
		c, err := NewCluster("gpu", n, GB)
		if err != nil {
			t.Fatal(err)
		}
		for _, size := range []int64{1, 4096, 1 << 20, 123456789} {
			steps := n - 1
			chunk := float64(size) / float64(n)
			want := time.Duration(float64(steps)*(chunk/10e9)*float64(time.Second)) +
				time.Duration(steps)*25*time.Microsecond
			if got := c.ReduceScatterDuration(size); got != want {
				t.Fatalf("n=%d: ReduceScatterDuration(%d) = %v, want %v", n, size, got, want)
			}
			if got := c.AllGatherDuration(size); got != want {
				t.Fatalf("n=%d: AllGatherDuration(%d) = %v, want %v", n, size, got, want)
			}
			rs, ag, ar := c.ReduceScatterDuration(size), c.AllGatherDuration(size), c.RingReduceDuration(size)
			if rs+ag != ar {
				t.Fatalf("n=%d size=%d: RS %v + AG %v != all-reduce %v", n, size, rs, ag, ar)
			}
		}
	}
}

// TestShardedCollectivesAsync drives one ZeRO-style window: two bucket
// reduce-scatters launched behind compute, then one all-gather of the
// updated parameters. The collectives book on the same comm engine as
// AllReduceAsync (serializing on the one interconnect), the breakdown
// counters split busy time by family, and WaitReduce accounts stalls the
// same way.
func TestShardedCollectivesAsync(t *testing.T) {
	c, err := NewCluster("gpu", 2, GB)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(4 << 20)
	d := c.ReduceScatterDuration(size)
	if d <= 0 {
		t.Fatal("want a positive collective duration")
	}
	// Both buckets ready at the origin: they queue back to back.
	if done := c.ReduceScatterAsync(size, 0); done != d {
		t.Fatalf("RS bucket 0 completion = %v, want %v", done, d)
	}
	if done := c.ReduceScatterAsync(size, 0); done != 2*d {
		t.Fatalf("RS bucket 1 completion = %v, want %v", done, 2*d)
	}
	// Shards stepped by 3d; the all-gather starts then (engine free since 2d).
	if done := c.AllGatherAsync(size, 3*d); done != 4*d {
		t.Fatalf("AG completion = %v, want %v", done, 4*d)
	}
	if stall := c.WaitReduce(3 * d); stall != d {
		t.Fatalf("exposed stall = %v, want %v (only the all-gather tail)", stall, d)
	}
	if busy := c.CommTime(); busy != 3*d {
		t.Fatalf("comm busy = %v, want %v", busy, 3*d)
	}
	bd := c.Collectives()
	if bd.ReduceScatterTime != 2*d || bd.AllGatherTime != d {
		t.Fatalf("breakdown times RS %v AG %v, want %v and %v", bd.ReduceScatterTime, bd.AllGatherTime, 2*d, d)
	}
	if bd.ReduceScatterCount != 2 || bd.AllGatherCount != 1 {
		t.Fatalf("breakdown counts RS %d AG %d, want 2 and 1", bd.ReduceScatterCount, bd.AllGatherCount)
	}
}

// TestRingReduceSingleGPU: a single-device cluster has nothing to reduce.
func TestRingReduceSingleGPU(t *testing.T) {
	c, err := NewCluster("gpu", 1, GB)
	if err != nil {
		t.Fatal(err)
	}
	if d := c.RingReduceDuration(1 << 20); d != 0 {
		t.Fatalf("single-GPU ring duration = %v, want 0", d)
	}
	if d := syncReduce(c, 1<<20); d != 0 {
		t.Fatalf("single-GPU exposed all-reduce = %v, want 0", d)
	}
	if done := c.AllReduceAsync(1<<20, 5*time.Millisecond); done != 5*time.Millisecond {
		t.Fatalf("single-GPU AllReduceAsync must pass ready through, got %v", done)
	}
	if done := c.ReduceScatterAsync(1<<20, 5*time.Millisecond); done != 5*time.Millisecond {
		t.Fatalf("single-GPU ReduceScatterAsync must pass ready through, got %v", done)
	}
	if done := c.AllGatherAsync(1<<20, 5*time.Millisecond); done != 5*time.Millisecond {
		t.Fatalf("single-GPU AllGatherAsync must pass ready through, got %v", done)
	}
	if stall := c.WaitReduce(time.Millisecond); stall != 0 {
		t.Fatalf("single-GPU WaitReduce stall = %v, want 0", stall)
	}
}

// TestAllReduceAsyncOverlap drives the comm engine through one bucketed
// window: two buckets launched while compute is still running. The first
// bucket hides completely behind the compute tail; the exposed stall is only
// what spills past it, and busy = exposed + hidden holds on the clocks.
func TestAllReduceAsyncOverlap(t *testing.T) {
	c, err := NewCluster("gpu", 2, GB)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(4 << 20)
	d := c.RingReduceDuration(size)
	if d <= 0 {
		t.Fatal("want a positive ring duration")
	}
	// Bucket 0 is ready early; bucket 1 becomes ready exactly when compute
	// ends, so its whole duration (plus any queueing) is exposed.
	computeEnd := 3 * d
	done0 := c.AllReduceAsync(size, d)
	if done0 != 2*d {
		t.Fatalf("bucket 0 completion = %v, want %v", done0, 2*d)
	}
	done1 := c.AllReduceAsync(size, computeEnd)
	if done1 != computeEnd+d {
		t.Fatalf("bucket 1 completion = %v, want %v (engine was free at its ready time)", done1, computeEnd+d)
	}
	stall := c.WaitReduce(computeEnd)
	if stall != d {
		t.Fatalf("exposed stall = %v, want %v (bucket 1 fully exposed, bucket 0 fully hidden)", stall, d)
	}
	if busy := c.CommTime(); busy != 2*d {
		t.Fatalf("comm busy time = %v, want %v", busy, 2*d)
	}
}

// TestAllReduceAsyncSerializesOnInterconnect: back-to-back buckets ready at
// the same instant queue on the one interconnect — completions stack.
func TestAllReduceAsyncSerializesOnInterconnect(t *testing.T) {
	c, err := NewCluster("gpu", 4, GB)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(1 << 20)
	d := c.RingReduceDuration(size)
	var last time.Duration
	for i := 1; i <= 3; i++ {
		last = c.AllReduceAsync(size, 0)
		if want := time.Duration(i) * d; last != want {
			t.Fatalf("bucket %d completion = %v, want %v", i-1, last, want)
		}
	}
	// Waiting from the origin exposes the full window.
	if stall := c.WaitReduce(0); stall != last {
		t.Fatalf("stall from origin = %v, want %v", stall, last)
	}
	// The window front rewound: a new window starts at the origin again.
	if done := c.AllReduceAsync(size, 0); done != d {
		t.Fatalf("first bucket of the next window completes at %v, want %v", done, d)
	}
	c.WaitReduce(0)
}

// TestWaitReduceFullyHidden: compute tails longer than the whole reduce
// window expose nothing.
func TestWaitReduceFullyHidden(t *testing.T) {
	c, err := NewCluster("gpu", 2, GB)
	if err != nil {
		t.Fatal(err)
	}
	size := int64(1 << 20)
	d := c.RingReduceDuration(size)
	c.AllReduceAsync(size, 0)
	if stall := c.WaitReduce(10 * d); stall != 0 {
		t.Fatalf("stall = %v, want 0 (reduce finished behind compute)", stall)
	}
	if busy := c.CommTime(); busy != d {
		t.Fatalf("busy comm = %v, want %v", busy, d)
	}
}

// TestCommClockConcurrentReaders: observers may read the comm clocks while
// the trainer drives reduce windows; run under -race this guards the lock
// discipline.
func TestCommClockConcurrentReaders(t *testing.T) {
	c, err := NewCluster("gpu", 2, GB)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = c.CommTime()
				_ = c.Collectives()
			}
		}
	}()
	var exposed time.Duration
	for i := 0; i < 200; i++ {
		c.AllReduceAsync(1<<16, 0)
		c.AllReduceAsync(1<<16, time.Millisecond)
		exposed += c.WaitReduce(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if c.CommTime() < exposed {
		t.Fatalf("busy %v < exposed %v", c.CommTime(), exposed)
	}
}
