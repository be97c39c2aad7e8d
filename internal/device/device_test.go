package device

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestAllocFreeLedger(t *testing.T) {
	g := NewGPU("test", 100)
	a, err := g.Alloc("x", 60)
	if err != nil {
		t.Fatal(err)
	}
	if g.Live() != 60 || g.Peak() != 60 {
		t.Fatalf("live=%d peak=%d", g.Live(), g.Peak())
	}
	b, err := g.Alloc("y", 40)
	if err != nil {
		t.Fatal(err)
	}
	if g.Live() != 100 {
		t.Fatalf("live=%d", g.Live())
	}
	a.Free()
	if g.Live() != 40 || g.Peak() != 100 {
		t.Fatalf("after free live=%d peak=%d", g.Live(), g.Peak())
	}
	b.Free()
	if g.Live() != 0 {
		t.Fatal("ledger should be empty")
	}
	if len(g.LiveAllocations()) != 0 {
		t.Fatal("no live allocations expected")
	}
}

func TestOOMExactBoundary(t *testing.T) {
	g := NewGPU("test", 100)
	if _, err := g.Alloc("fits", 100); err != nil {
		t.Fatalf("exactly-at-capacity must succeed: %v", err)
	}
	_, err := g.Alloc("overflow", 1)
	if err == nil {
		t.Fatal("want OOM")
	}
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want *OOMError, got %T", err)
	}
	if oom.Requested != 1 || oom.Live != 100 || oom.Capacity != 100 || oom.Tag != "overflow" {
		t.Fatalf("OOM details wrong: %+v", oom)
	}
	if !IsOOM(err) {
		t.Fatal("IsOOM must detect direct OOMError")
	}
	if !IsOOM(fmt.Errorf("iteration failed: %w", err)) {
		t.Fatal("IsOOM must unwrap")
	}
	if IsOOM(errors.New("other")) || IsOOM(nil) {
		t.Fatal("IsOOM false positives")
	}
}

func TestNegativeAlloc(t *testing.T) {
	g := NewGPU("test", 100)
	if _, err := g.Alloc("neg", -1); err == nil {
		t.Fatal("want error for negative size")
	}
}

func TestDoubleFreePanics(t *testing.T) {
	g := NewGPU("test", 10)
	a, _ := g.Alloc("x", 5)
	a.Free()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on double free")
		}
	}()
	a.Free()
}

func TestAllocIntoReusesAFreedRecord(t *testing.T) {
	g := NewGPU("test", 10)
	var a Allocation
	for i, size := range []int64{4, 7, 10} {
		if err := g.AllocInto(&a, "slot", size); err != nil {
			t.Fatal(err)
		}
		if g.Live() != size || a.Bytes != size || a.Tag != "slot" {
			t.Fatalf("reservation %d: live %d, record %+v", i, g.Live(), a)
		}
		a.Free()
	}
	if err := g.AllocInto(&a, "big", 11); !IsOOM(err) || a.Tag != "slot" || g.Live() != 0 {
		t.Fatalf("want OOM leaving the freed record alone, got %v, %+v, live %d", err, a, g.Live())
	}
	if err := g.AllocInto(&a, "slot", 3); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic reserving into a live record")
		}
	}()
	_ = g.AllocInto(&a, "again", 1)
}

func TestFreeNilIsNoop(t *testing.T) {
	var a *Allocation
	a.Free() // must not panic
}

func TestResetPeak(t *testing.T) {
	g := NewGPU("test", 100)
	a, _ := g.Alloc("x", 80)
	a.Free()
	if g.Peak() != 80 {
		t.Fatal("peak not tracked")
	}
	g.ResetPeak()
	if g.Peak() != 0 {
		t.Fatalf("peak after reset = %d", g.Peak())
	}
}

func TestTransferModel(t *testing.T) {
	g := NewGPU("test", GB, WithBandwidth(1e9), WithLatency(time.Millisecond))
	d := g.TransferH2D(1e9)
	// 1 GB at 1 GB/s + 1ms latency ~ 1.001s.
	if d < time.Second || d > 1100*time.Millisecond {
		t.Fatalf("transfer duration = %v", d)
	}
	st := g.Stats()
	if st.Transferred != 1e9 || st.TransferTime != d {
		t.Fatalf("stats = %+v", st)
	}
	g.AddComputeTime(2 * time.Second)
	if g.Stats().ComputeTime != 2*time.Second {
		t.Fatal("compute clock wrong")
	}
	g.ResetClocks()
	st = g.Stats()
	if st.Transferred != 0 || st.TransferTime != 0 || st.ComputeTime != 0 {
		t.Fatalf("clocks not reset: %+v", st)
	}
}

func TestStatsSnapshot(t *testing.T) {
	g := NewGPU("gpu0", 50)
	a, _ := g.Alloc("x", 30)
	st := g.Stats()
	if st.Name != "gpu0" || st.Capacity != 50 || st.Live != 30 || st.Peak != 30 {
		t.Fatalf("stats = %+v", st)
	}
	a.Free()
}

func TestConcurrentAllocFree(t *testing.T) {
	g := NewGPU("test", 1<<30)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				a, err := g.Alloc("w", int64(rng.Intn(1000)))
				if err != nil {
					t.Errorf("unexpected OOM: %v", err)
					return
				}
				a.Free()
			}
		}(int64(w))
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("ledger leaked %d bytes", g.Live())
	}
}

func TestClusterBasics(t *testing.T) {
	c, err := NewCluster("a100", 2, 80*MB)
	if err != nil {
		t.Fatal(err)
	}
	if c.Size() != 2 {
		t.Fatalf("size = %d", c.Size())
	}
	if c.GPU(0).Name() == c.GPU(1).Name() {
		t.Fatal("GPU names must differ")
	}
	if c.GPU(0).Capacity() != 80*MB {
		t.Fatal("capacity not propagated")
	}
	if _, err := NewCluster("x", 0, 1); err == nil {
		t.Fatal("want error for empty cluster")
	}
}

// syncReduce books one all-reduce launched at the window origin and closes
// the window there: nothing hides it, so it is exposed in full.
func syncReduce(c *Cluster, size int64) time.Duration {
	c.AllReduceAsync(size, 0)
	return c.WaitReduce(0)
}

func TestAllReduce(t *testing.T) {
	single, _ := NewCluster("s", 1, GB)
	if d := syncReduce(single, 1<<20); d != 0 {
		t.Fatalf("single-GPU all-reduce should be free, got %v", d)
	}
	dual, _ := NewCluster("d", 2, GB)
	d2 := syncReduce(dual, 1<<20)
	if d2 <= 0 {
		t.Fatal("dual-GPU all-reduce must take time")
	}
	quad, _ := NewCluster("q", 4, GB)
	d4 := syncReduce(quad, 1<<20)
	if d4 <= d2 {
		t.Fatalf("4-GPU ring (%v) should cost more than 2-GPU (%v) for same bytes", d4, d2)
	}
	if dual.CommTime() != d2 {
		t.Fatal("comm clock wrong")
	}
	dual.ResetClocks()
	if dual.CommTime() != 0 {
		t.Fatal("comm clock not reset")
	}
}

// Property: the ledger never exceeds capacity and peak >= live at all times,
// under a random alloc/free sequence.
func TestQuickLedgerInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := int64(1000 + rng.Intn(10000))
		g := NewGPU("q", capacity)
		var live []*Allocation
		for i := 0; i < 200; i++ {
			if rng.Intn(2) == 0 && len(live) > 0 {
				j := rng.Intn(len(live))
				live[j].Free()
				live = append(live[:j], live[j+1:]...)
			} else {
				a, err := g.Alloc("q", int64(rng.Intn(2000)))
				if err == nil {
					live = append(live, a)
				} else if !IsOOM(err) {
					return false
				}
			}
			if g.Live() > capacity || g.Peak() < g.Live() {
				return false
			}
		}
		var sum int64
		for _, a := range live {
			sum += a.Bytes
		}
		return sum == g.Live()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
