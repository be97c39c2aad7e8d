//go:build tensordebug

package gnn

import (
	"math"
	"testing"

	"buffalo/internal/tensor"
)

// TestPoisonReachesMeanAggregate: a released (poisoned) xsrc makes every
// element of every non-isolated aggAll row NaN — the kernel reads each
// neighbor row it averages and skips none for being zero or repeated, so a
// use-after-release of the layer input cannot hide in the aggregate.
func TestPoisonReachesMeanAggregate(t *testing.T) {
	blk := meanHandBlock()
	p := tensor.NewPool()
	xsrc := p.Get(blk.NumSrc(), 5)
	p.Put(xsrc) // use after release
	aggAll := tensor.New(blk.NumDst(), 5)
	meanFused(aggAll, bucketizeBlock(blk), blk, xsrc, nil, nil)
	for r, nbrs := range blk.Adj {
		for j, v := range aggAll.Row(r) {
			if isNaN := math.IsNaN(float64(v)); isNaN != (len(nbrs) > 0) {
				t.Fatalf("aggAll[%d][%d] = %v at degree %d", r, j, v, len(nbrs))
			}
		}
	}
}
