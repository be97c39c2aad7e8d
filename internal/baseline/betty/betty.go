// Package betty reimplements the Betty baseline (Yang et al., ASPLOS'23)
// that the paper compares against: batch-level partitioning that first
// embeds node-redundancy information into a graph over the output nodes
// (the REG — edge weight between two output nodes is the number of sampled
// 1-hop neighbors they share), then partitions the REG with METIS.
//
// The training engine times the two construction phases separately because
// Fig 11 reports them separately ("REG construction" and "METIS
// partition"); together they are the ~46.8% of Betty's end-to-end time
// Buffalo eliminates. Betty's memory estimation is bucket-local and linear
// — it does not model redundancy between grouped buckets (the paper's §IV-D
// critique) — so the engine's K search, pricing Betty's parts with it,
// overshoots relative to Buffalo's.
package betty

import (
	"slices"

	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/partition"
	"buffalo/internal/sampling"
)

// Plan is Betty's partitioning result for one batch.
type Plan struct {
	K     int
	Parts [][]graph.NodeID
}

// regPairCap bounds the shared-neighbor pair enumeration per input node.
// Hub input nodes are sampled by thousands of output nodes; enumerating all
// O(|list|^2) pairs there is what makes real REG construction take minutes
// on billion-scale graphs. We keep the quadratic behaviour (it is the
// phenomenon Fig 11 measures) but cap a single hub's contribution so
// reproduction runs terminate; the cap is documented in DESIGN.md.
const regPairCap = 128

// BuildREG constructs the redundancy-embedded graph over the batch's output
// nodes: weight(u, v) = number of shared sampled 1-hop neighbors, computed
// via an inverted index from input node to the output nodes that sampled it.
// The index is an array over Frontier(1) positions walked in position order,
// so the REG's edge order — which METIS's result depends on — is a function
// of the batch alone.
func BuildREG(b *sampling.Batch) *partition.WGraph {
	// Inverted index in CSR form: outs[start[q]:start[q+1]] are the output
	// rows that sampled the node at position q, in row order.
	hop := &b.Hops[0]
	start := make([]int32, len(b.Frontier(1))+1)
	edges := 0
	for _, row := range hop.NbrPos {
		for _, q := range row {
			start[q+1]++
		}
		edges += len(row)
	}
	for q := 1; q < len(start); q++ {
		start[q] += start[q-1]
	}
	outs, fill := make([]int32, edges), slices.Clone(start)
	for i, row := range hop.NbrPos {
		for _, q := range row {
			outs[fill[q]] = int32(i)
			fill[q]++
		}
	}
	reg := partition.NewWGraph(len(b.Seeds))
	for q := 0; q+1 < len(start); q++ {
		by := outs[start[q]:start[q+1]]
		by = by[:min(len(by), regPairCap)]
		for i := range by {
			for _, o := range by[i+1:] {
				reg.AddEdge(by[i], o, 1)
			}
		}
	}
	return reg
}

// Partition builds the REG and METIS-partitions it into at most k
// non-empty parts. The engine's K-search builds the REG once and
// partitions it at every K with partition.Parts.
func Partition(b *sampling.Batch, k int, seed int64) (*Plan, error) {
	parts, err := partition.Parts(b, BuildREG(b), k, seed)
	if err != nil {
		return nil, err
	}
	return &Plan{K: len(parts), Parts: parts}, nil
}

// EstimatePart is Betty's linear memory model: the sum of per-bucket
// estimates over the part's output nodes, with no redundancy correction.
func EstimatePart(b *sampling.Batch, est *memest.Estimator, part []graph.NodeID) int64 {
	hop := &b.Hops[0]
	var byDeg []int // output count per sampled hop-0 degree
	for _, v := range part {
		if r, ok := b.Position(v); ok && int(r) < len(hop.Dst) {
			d := len(hop.Nbrs[r])
			for d >= len(byDeg) {
				byDeg = append(byDeg, 0)
			}
			byDeg[d]++
		}
	}
	var total int64
	for d, volume := range byDeg {
		total += est.BucketMem(volume, d)
	}
	return total
}
