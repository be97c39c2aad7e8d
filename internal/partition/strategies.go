package partition

import (
	"fmt"
	"math/rand"
	"sort"

	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

// Random, Range and Metis each split a batch's output nodes into k parts
// (§V-H: all four strategies, Betty's included, operate on the subgraph
// that contains only output nodes).

// Random deals the output nodes into k even parts after a seeded shuffle.
type Random struct{}

// Partition splits b's outputs into k parts.
func (Random) Partition(b *sampling.Batch, k int, seed int64) ([][]graph.NodeID, error) {
	if err := checkK(b, k); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	shuffled := append([]graph.NodeID(nil), b.Seeds...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	return chunk(shuffled, k), nil
}

// Range splits the sorted 1-D space of output-node IDs into k even chunks.
type Range struct{}

// Partition splits b's outputs into k parts.
func (Range) Partition(b *sampling.Batch, k int, _ int64) ([][]graph.NodeID, error) {
	if err := checkK(b, k); err != nil {
		return nil, err
	}
	sorted := append([]graph.NodeID(nil), b.Seeds...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return chunk(sorted, k), nil
}

// Metis partitions the output nodes with the multilevel partitioner over
// the subgraph induced on them (edges = original-graph edges between
// seeds). This is the strategy DGL/PyG-style systems use for batch-level
// partitioning, and what Fig 5 measures as the expensive per-iteration
// phase.
type Metis struct{}

// Partition splits b's outputs into at most k non-empty parts. It checks k
// before it builds the output graph.
func (Metis) Partition(b *sampling.Batch, k int, seed int64) ([][]graph.NodeID, error) {
	if err := checkK(b, k); err != nil {
		return nil, err
	}
	return Parts(b, OutputGraph(b), k, seed)
}

// Parts k-way partitions g, a weighted graph over b's outputs in b.Seeds
// order, and returns the outputs of each non-empty part. KWay only reads
// g, so one graph serves every k of a search.
func Parts(b *sampling.Batch, g *WGraph, k int, seed int64) ([][]graph.NodeID, error) {
	if err := checkK(b, k); err != nil {
		return nil, err
	}
	part, err := KWay(g, k, seed)
	if err != nil {
		return nil, err
	}
	return collect(b.Seeds, part, k), nil
}

// OutputGraph builds the weighted graph over output nodes whose edges are
// original-graph edges between seeds.
func OutputGraph(b *sampling.Batch) *WGraph {
	index := make(map[graph.NodeID]int32, len(b.Seeds))
	for i, s := range b.Seeds {
		index[s] = int32(i)
	}
	wg := NewWGraph(len(b.Seeds))
	for i, s := range b.Seeds {
		for _, u := range b.Graph.Neighbors(s) {
			if j, ok := index[u]; ok && int32(i) < j {
				wg.AddEdge(int32(i), j, 1)
			}
		}
	}
	return wg
}

// collect groups seeds by part id, dropping empty parts.
func collect(seeds []graph.NodeID, part []int, k int) [][]graph.NodeID {
	parts := make([][]graph.NodeID, k)
	for i, p := range part {
		parts[p] = append(parts[p], seeds[i])
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

// chunk splits nodes into k near-even contiguous slices, dropping empties.
func chunk(nodes []graph.NodeID, k int) [][]graph.NodeID {
	n := len(nodes)
	var out [][]graph.NodeID
	for i := 0; i < k; i++ {
		lo, hi := i*n/k, (i+1)*n/k
		if hi > lo {
			out = append(out, nodes[lo:hi])
		}
	}
	return out
}

func checkK(b *sampling.Batch, k int) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if k > len(b.Seeds) {
		return fmt.Errorf("partition: k=%d exceeds %d output nodes", k, len(b.Seeds))
	}
	return nil
}
