package device

import (
	"math/rand"
	"sync"
	"testing"
)

// TestLedgerStressExactAccounting hammers one GPU ledger from many
// goroutines and checks the live/peak accounting stays exact at every
// quiescent point. Run it under -race: the phases are fenced with
// WaitGroups so any unsynchronized counter update inside GPU is a detected
// race, and any lost update shows up as an accounting mismatch.
func TestLedgerStressExactAccounting(t *testing.T) {
	const (
		workers   = 16
		perWorker = 200
	)
	g := NewGPU("stress", 1<<40)

	// Phase 1: every worker w holds perWorker allocations of size w+1.
	// The ledger grows monotonically, so at the barrier both live and peak
	// must equal the closed-form total exactly.
	allocs := make([][]*Allocation, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			size := int64(w + 1)
			for i := 0; i < perWorker; i++ {
				a, err := g.Alloc("stress", size)
				if err != nil {
					t.Errorf("worker %d: unexpected OOM: %v", w, err)
					return
				}
				allocs[w] = append(allocs[w], a)
			}
		}(w)
	}
	wg.Wait()
	var want int64
	for w := 0; w < workers; w++ {
		want += int64(perWorker) * int64(w+1)
	}
	if g.Live() != want {
		t.Fatalf("phase 1: live = %d, want exactly %d", g.Live(), want)
	}
	if g.Stats().Peak != want {
		t.Fatalf("phase 1: peak = %d, want exactly %d (growth was monotonic)", g.Stats().Peak, want)
	}
	if n := len(g.LiveAllocations()); n != workers*perWorker {
		t.Fatalf("phase 1: %d live allocations, want %d", n, workers*perWorker)
	}

	// Phase 2: free everything concurrently; the ledger must return to
	// exactly zero and peak must not move.
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, a := range allocs[w] {
				a.Free()
			}
		}(w)
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("phase 2: live = %d, want 0", g.Live())
	}
	if g.Stats().Peak != want {
		t.Fatalf("phase 2: peak = %d, want %d (frees must not move the high-water mark)", g.Stats().Peak, want)
	}
	if n := len(g.LiveAllocations()); n != 0 {
		t.Fatalf("phase 2: %d allocations still live", n)
	}

	// Phase 3: random churn with per-worker outstanding sets, then a full
	// drain. Whatever interleaving the scheduler picked, the final ledger
	// must be exactly empty and peak bounded by the aggregate worst case.
	g.ResetPeak()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			var held []*Allocation
			for i := 0; i < perWorker; i++ {
				if rng.Intn(3) == 0 && len(held) > 0 {
					j := rng.Intn(len(held))
					held[j].Free()
					held = append(held[:j], held[j+1:]...)
					continue
				}
				a, err := g.Alloc("churn", int64(rng.Intn(4096)+1))
				if err != nil {
					t.Errorf("worker %d: unexpected OOM: %v", w, err)
					return
				}
				held = append(held, a)
			}
			for _, a := range held {
				a.Free()
			}
		}(w)
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("phase 3: live = %d after full drain, want 0", g.Live())
	}
	maxPeak := int64(workers) * int64(perWorker) * 4096
	if g.Stats().Peak <= 0 || g.Stats().Peak > maxPeak {
		t.Fatalf("phase 3: peak = %d outside (0, %d]", g.Stats().Peak, maxPeak)
	}
	if g.Stats().Peak < 4096/2 {
		t.Logf("suspiciously low churn peak: %d", g.Stats().Peak)
	}
}

// TestLedgerStressCapacityBoundary drives a small-capacity ledger to OOM
// from many goroutines: successful reservations plus rejections must
// conserve bytes — at no quiescent point can live exceed capacity, and a
// full drain must restore zero.
func TestLedgerStressCapacityBoundary(t *testing.T) {
	const (
		workers  = 8
		capacity = int64(1 << 16)
	)
	g := NewGPU("boundary", capacity)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var held []*Allocation
			for i := 0; i < 500; i++ {
				a, err := g.Alloc("boundary", int64(rng.Intn(int(capacity/4))+1))
				switch {
				case err == nil:
					held = append(held, a)
				case IsOOM(err):
					// Expected under pressure: free something and go on.
					if len(held) > 0 {
						held[0].Free()
						held = held[1:]
					}
				default:
					t.Errorf("worker %d: non-OOM failure: %v", w, err)
					return
				}
			}
			for _, a := range held {
				a.Free()
			}
		}(w)
	}
	wg.Wait()
	if g.Live() != 0 {
		t.Fatalf("live = %d after drain, want 0", g.Live())
	}
	if g.Stats().Peak > capacity {
		t.Fatalf("peak = %d exceeds capacity %d: the ledger admitted an over-capacity reservation", g.Stats().Peak, capacity)
	}
}
