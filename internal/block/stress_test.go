package block

import (
	"reflect"
	"sync"
	"testing"
)

// TestGenerateConcurrentStress hammers the block generator from many
// goroutines over one shared batch, a scratch each. Under -race this
// exercises the batch's supposedly read-only shared state (positions,
// frontiers, the hop-0 index), while the result comparison proves every
// interleaving produces bit-identical blocks.
func TestGenerateConcurrentStress(t *testing.T) {
	b := randomBatch(t, 42, 4000, 512, []int{8, 4})
	ref, err := Generate(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}

	const (
		goroutines = 12
		rounds     = 8
	)
	var wg sync.WaitGroup
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				mb, err := Generate(b, b.Seeds)
				if err != nil {
					t.Errorf("goroutine %d round %d: %v", gi, r, err)
					return
				}
				if len(mb.Blocks) != len(ref.Blocks) {
					t.Errorf("goroutine %d: %d blocks, want %d", gi, len(mb.Blocks), len(ref.Blocks))
					return
				}
				for l, blk := range mb.Blocks {
					want := ref.Blocks[l]
					if !reflect.DeepEqual(blk.Dst, want.Dst) ||
						!reflect.DeepEqual(blk.Src, want.Src) ||
						!reflect.DeepEqual(blk.Adj, want.Adj) {
						t.Errorf("goroutine %d round %d: block %d differs from reference", gi, r, l)
						return
					}
				}
			}
		}(gi)
	}
	wg.Wait()
}

// TestGenerateDisjointOutputsConcurrent mirrors the multi-GPU trainer's
// real pattern: concurrent micro-batch generation for disjoint output
// slices of the same batch.
func TestGenerateDisjointOutputsConcurrent(t *testing.T) {
	b := randomBatch(t, 7, 2000, 256, []int{6, 3})
	const parts = 8
	chunk := (len(b.Seeds) + parts - 1) / parts
	var wg sync.WaitGroup
	results := make([]*MicroBatch, parts)
	for pi := 0; pi < parts; pi++ {
		lo := pi * chunk
		hi := lo + chunk
		if hi > len(b.Seeds) {
			hi = len(b.Seeds)
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(pi, lo, hi int) {
			defer wg.Done()
			mb, err := Generate(b, b.Seeds[lo:hi])
			if err != nil {
				t.Errorf("part %d: %v", pi, err)
				return
			}
			results[pi] = mb
		}(pi, lo, hi)
	}
	wg.Wait()
	// Every part's output layer must cover exactly its seed slice, and the
	// per-part results must agree with a sequential regeneration.
	for pi, mb := range results {
		if mb == nil {
			continue
		}
		lo := pi * chunk
		hi := lo + chunk
		if hi > len(b.Seeds) {
			hi = len(b.Seeds)
		}
		want, err := Generate(b, b.Seeds[lo:hi])
		if err != nil {
			t.Fatalf("sequential part %d: %v", pi, err)
		}
		if !reflect.DeepEqual(mb.Outputs, want.Outputs) {
			t.Fatalf("part %d outputs differ from sequential run", pi)
		}
		for l := range mb.Blocks {
			if !reflect.DeepEqual(mb.Blocks[l].Adj, want.Blocks[l].Adj) {
				t.Fatalf("part %d block %d adjacency differs from sequential run", pi, l)
			}
		}
	}
}
