package graph

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"buffalo/internal/stamp"
)

// pairScanClustering is the pair scan localClustering replaced: it copies v's
// self-loop-free list and binary-searches every later neighbour of each
// neighbour u in N(u), O(d² log d) per node. It stays as the oracle the
// stamped count is held to.
func pairScanClustering(g *Graph, v NodeID) float64 {
	nb := g.Neighbors(v)
	d := len(nb)
	filtered := nb
	for _, u := range nb {
		if u == v {
			filtered = make([]NodeID, 0, d-1)
			for _, w := range nb {
				if w != v {
					filtered = append(filtered, w)
				}
			}
			break
		}
	}
	d = len(filtered)
	if d < 2 {
		return 0
	}
	links := 0
	for i, u := range filtered {
		un := g.Neighbors(u)
		for _, w := range filtered[i+1:] {
			j := sort.Search(len(un), func(k int) bool { return un[k] >= w })
			if j < len(un) && un[j] == w {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}

// randomClusteringGraph builds a graph with the shapes the two counting
// branches and the self-loop filter must agree on: isolated nodes, a hub
// linked to most nodes, dense local triangles, self-loops, and (when directed)
// neighbour lists that do not mirror each other.
func randomClusteringGraph(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(80)
	var src, dst []NodeID
	add := func(u, v int) { src, dst = append(src, NodeID(u)), append(dst, NodeID(v)) }
	isolated := rng.Intn(n + 1)
	live := n - isolated // nodes [live, n) stay isolated unless a self-loop lands there
	if live > 0 {
		for e := rng.Intn(4 * n); e > 0; e-- {
			u := rng.Intn(live)
			add(u, (u+1+rng.Intn(1+rng.Intn(live)))%live)
		}
		for hubs := rng.Intn(3); hubs > 0; hubs-- {
			h := rng.Intn(live)
			for u := 0; u < live; u++ {
				if rng.Intn(4) != 0 {
					add(h, u)
				}
			}
		}
	}
	for loops := rng.Intn(n/4 + 1); loops > 0; loops-- {
		u := rng.Intn(n)
		add(u, u)
	}
	g, err := FromEdges(n, src, dst, rng.Intn(4) != 0)
	if err != nil {
		panic(err)
	}
	return g
}

// TestLocalClusteringMatchesPairScan holds the stamped count to the pair scan
// for every node of 500 random graphs, bit for bit, with one table reused
// across nodes and graphs of every size; and the whole-graph mean to the
// oracle's.
func TestLocalClusteringMatchesPairScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var marks stamp.Table
	for trial := 0; trial < 500; trial++ {
		g := randomClusteringGraph(rng)
		total := 0.0
		for v := 0; v < g.NumNodes(); v++ {
			want := pairScanClustering(g, NodeID(v))
			total += want
			if got := g.localClustering(NodeID(v), &marks); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d node %d (degree %d): C = %v, pair scan %v", trial, v, g.Degree(NodeID(v)), got, want)
			}
		}
		if got, want := g.ClusteringCoefficient(), total/float64(g.NumNodes()); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: mean C = %v, pair scan %v", trial, got, want)
		}
	}
}
