// Package graph provides the compressed sparse row (CSR) graph storage used
// throughout the Buffalo reproduction: degree queries, adjacency iteration,
// induced subgraphs, and the graph statistics (average degree, clustering
// coefficient, power-law tail detection) that drive Buffalo's analytical
// memory model.
//
// Node identifiers are dense int32 indices in [0, NumNodes). Adjacency lists
// are sorted ascending, which makes edge lookups O(log d) and lets higher
// layers (bucketing, block generation) merge neighbor sets cheaply.
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// NodeID identifies a node inside one Graph. IDs are dense: a graph with n
// nodes uses exactly the IDs 0..n-1.
type NodeID = int32

// Graph is an immutable graph in CSR form. For GNN message passing the
// adjacency list of v holds the message *sources* of v: Neighbors(v) are the
// nodes whose features are aggregated into v. Datasets in this repository are
// symmetric (both directions stored), matching how DGL materializes OGB
// graphs for GraphSAGE/GAT training.
type Graph struct {
	offsets []int64 // len = n+1; adjacency of v is adj[offsets[v]:offsets[v+1]]
	adj     []NodeID
	loc     locality
}

// FromAdjacency builds a Graph from per-node neighbor lists. Each list is
// copied, sorted (unless it already is), and deduplicated; self-loops are
// preserved if present.
func FromAdjacency(lists [][]NodeID) *Graph {
	n := len(lists)
	offsets := make([]int64, n+1)
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	adj := make([]NodeID, 0, total)
	for v, l := range lists {
		start := len(adj)
		adj = append(adj, l...)
		seg := adj[start:]
		if !slices.IsSorted(seg) {
			slices.Sort(seg)
		}
		// Deduplicate in place.
		w := 0
		for i := range seg {
			if i == 0 || seg[i] != seg[i-1] {
				seg[w] = seg[i]
				w++
			}
		}
		adj = adj[:start+w]
		offsets[v+1] = int64(len(adj))
	}
	return &Graph{offsets: offsets, adj: adj}
}

// FromEdges builds a Graph with n nodes from parallel edge endpoint slices.
// Each edge (src[i], dst[i]) makes src[i] a neighbor (message source) of
// dst[i]. When undirected is true the reverse direction is added too.
// Duplicate edges collapse to one. Only tests call it: it is the builder the
// tests of several packages share for small hand-written graphs.
func FromEdges(n int, src, dst []NodeID, undirected bool) (*Graph, error) {
	if len(src) != len(dst) {
		return nil, fmt.Errorf("graph: src/dst length mismatch: %d vs %d", len(src), len(dst))
	}
	lists := make([][]NodeID, n)
	for i := range src {
		for _, v := range [2]NodeID{src[i], dst[i]} {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: node %d out of range [0,%d)", v, n)
			}
		}
		lists[dst[i]] = append(lists[dst[i]], src[i])
		if undirected {
			lists[src[i]] = append(lists[src[i]], dst[i])
		}
	}
	return FromAdjacency(lists), nil
}

// NumNodes reports the number of nodes.
func (g *Graph) NumNodes() int { return len(g.offsets) - 1 }

// NumEdges reports the number of stored directed adjacency entries.
// A symmetric graph therefore reports twice its undirected edge count.
func (g *Graph) NumEdges() int64 { return g.offsets[len(g.offsets)-1] }

// Degree reports the number of neighbors (message sources) of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted neighbor list of v. The returned slice aliases
// the graph's storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasEdge reports whether u is a neighbor (message source) of v. Only tests
// call it: it is the edge oracle the tests of several packages share.
func (g *Graph) HasEdge(v, u NodeID) bool {
	nb := g.Neighbors(v)
	i := sort.Search(len(nb), func(i int) bool { return nb[i] >= u })
	return i < len(nb) && nb[i] == u
}

// MaxDegree reports the largest degree in the graph, or 0 for an empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumNodes(); v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// AvgDegree reports the mean degree.
func (g *Graph) AvgDegree() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	return float64(g.NumEdges()) / float64(n)
}

// DegreeHistogram returns counts[d] = number of nodes with degree d,
// for d in [0, MaxDegree].
func (g *Graph) DegreeHistogram() []int64 {
	counts := make([]int64, g.MaxDegree()+1)
	for v := 0; v < g.NumNodes(); v++ {
		counts[g.Degree(NodeID(v))]++
	}
	return counts
}
