package partition

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

// EdgeCut computes the total weight of edges crossing parts.
func (g *WGraph) EdgeCut(part []int) int64 {
	var cut int64
	for u := range g.Adj {
		for _, e := range g.Adj[u] {
			if int32(u) < e.To && part[u] != part[e.To] {
				cut += e.Weight
			}
		}
	}
	return cut
}

// Balance reports max part node-weight over ideal (1.0 is perfect).
func Balance(g *WGraph, part []int, k int) float64 {
	weights := make([]int64, k)
	for v, p := range part {
		weights[p] += g.NodeWeight[v]
	}
	var mx int64
	for _, w := range weights {
		if w > mx {
			mx = w
		}
	}
	ideal := float64(g.TotalNodeWeight()) / float64(k)
	if ideal == 0 {
		return 1
	}
	return float64(mx) / ideal
}

// sortedParts returns the part sizes, descending.
func sortedParts(part []int, k int) []int {
	sizes := make([]int, k)
	for _, p := range part {
		sizes[p]++
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}

// gridGraph builds a w x h grid: a classic partitioning benchmark with a
// known good cut (a straight line).
func gridGraph(w, h int) *WGraph {
	g := NewWGraph(w * h)
	id := func(x, y int) int32 { return int32(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.AddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				g.AddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return g
}

func TestWGraphBasics(t *testing.T) {
	g := NewWGraph(3)
	g.AddEdge(0, 1, 2)
	g.AddEdge(0, 1, 3) // accumulates
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 2, 9) // self loop ignored
	if len(g.Adj[0]) != 1 || g.Adj[0][0].Weight != 5 {
		t.Fatalf("edge accumulation wrong: %+v", g.Adj[0])
	}
	if len(g.Adj[2]) != 1 {
		t.Fatal("self loop must be ignored")
	}
	if g.TotalNodeWeight() != 3 {
		t.Fatalf("total node weight = %d", g.TotalNodeWeight())
	}
	part := []int{0, 0, 1}
	if cut := g.EdgeCut(part); cut != 1 {
		t.Fatalf("cut = %d, want 1", cut)
	}
}

func TestKWayBisectionGrid(t *testing.T) {
	g := gridGraph(16, 16)
	part, err := KWay(g, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if bal := Balance(g, part, 2); bal > 1.15 {
		t.Fatalf("balance %.3f too poor", bal)
	}
	cut := g.EdgeCut(part)
	// The optimal straight cut of a 16x16 grid is 16; random halves would cut
	// ~240. Multilevel should land well under 4x optimal.
	if cut > 64 {
		t.Fatalf("cut = %d, want a near-line cut (<= 64)", cut)
	}
}

func TestKWayFourParts(t *testing.T) {
	g := gridGraph(16, 16)
	part, err := KWay(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := sortedParts(part, 4)
	if sizes[0] > 90 || sizes[3] < 40 {
		t.Fatalf("part sizes unbalanced: %v", sizes)
	}
	if cut := g.EdgeCut(part); cut > 140 {
		t.Fatalf("4-way cut = %d too high", cut)
	}
}

func TestKWayBeatsRandomCut(t *testing.T) {
	// On a clustered graph (two cliques joined by one edge), METIS must find
	// the obvious cut while random assignment does not.
	g := NewWGraph(40)
	for i := int32(0); i < 20; i++ {
		for j := i + 1; j < 20; j++ {
			g.AddEdge(i, j, 1)
			g.AddEdge(i+20, j+20, 1)
		}
	}
	g.AddEdge(5, 25, 1)
	part, err := KWay(g, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if cut := g.EdgeCut(part); cut != 1 {
		t.Fatalf("cut = %d, want the single bridge edge", cut)
	}
}

func TestKWayEdgeCases(t *testing.T) {
	g := gridGraph(4, 4)
	if _, err := KWay(g, 0, 1); err == nil {
		t.Fatal("want error for k=0")
	}
	part, err := KWay(g, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range part {
		if p != 0 {
			t.Fatal("k=1 must assign everything to part 0")
		}
	}
	// Edgeless graph: still balanced.
	empty := NewWGraph(10)
	part, err = KWay(empty, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	sizes := sortedParts(part, 3)
	if sizes[0]-sizes[2] > 1 {
		t.Fatalf("edgeless partition unbalanced: %v", sizes)
	}
}

func batchFor(t testing.TB, name string, seeds int) *sampling.Batch {
	t.Helper()
	ds, err := datagen.Load(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	sd, err := sampling.UniformSeeds(ds.Graph, seeds, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, sd, []int{5, 5}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func assertPartition(t *testing.T, b *sampling.Batch, parts [][]graph.NodeID) {
	t.Helper()
	seen := map[graph.NodeID]bool{}
	total := 0
	for _, p := range parts {
		if len(p) == 0 {
			t.Fatal("empty part emitted")
		}
		for _, v := range p {
			if seen[v] {
				t.Fatalf("node %d in two parts", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != len(b.Seeds) {
		t.Fatalf("parts cover %d, want %d", total, len(b.Seeds))
	}
}

func TestStrategies(t *testing.T) {
	b := batchFor(t, "cora", 400)
	for _, s := range []Strategy{Random{}, Range{}, Metis{}} {
		parts, err := s.Partition(b, 4, 7)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		assertPartition(t, b, parts)
		if len(parts) != 4 {
			t.Fatalf("%s: %d parts, want 4", s.Name(), len(parts))
		}
		for _, p := range parts {
			if len(p) < 50 || len(p) > 150 {
				t.Fatalf("%s: part size %d far from 100", s.Name(), len(p))
			}
		}
	}
}

func TestRangeIsSorted(t *testing.T) {
	b := batchFor(t, "cora", 100)
	parts, err := Range{}.Partition(b, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	maxFirst := parts[0][len(parts[0])-1]
	for _, v := range parts[1] {
		if v <= maxFirst {
			t.Fatal("range parts must be contiguous in ID space")
		}
	}
}

func TestStrategyErrors(t *testing.T) {
	b := batchFor(t, "cora", 10)
	for _, s := range []Strategy{Random{}, Range{}, Metis{}} {
		if _, err := s.Partition(b, 0, 1); err == nil {
			t.Errorf("%s: want error for k=0", s.Name())
		}
		if _, err := s.Partition(b, 11, 1); err == nil {
			t.Errorf("%s: want error for k > seeds", s.Name())
		}
	}
}

func TestMetisCutBeatsRandomOnClusteredBatch(t *testing.T) {
	// products-mini is strongly clustered; METIS should find cheaper cuts
	// than random partitioning of the same output graph.
	b := batchFor(t, "ogbn-products", 600)
	wg := OutputGraph(b)
	metisParts, err := KWay(wg, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	randomParts := make([]int, wg.NumNodes())
	for i := range randomParts {
		randomParts[i] = rng.Intn(4)
	}
	mc, rc := wg.EdgeCut(metisParts), wg.EdgeCut(randomParts)
	if mc >= rc {
		t.Fatalf("metis cut %d not better than random cut %d", mc, rc)
	}
}

// Property: KWay output is always a valid assignment with every part
// non-empty (when k <= n) and balance within 2x ideal.
func TestQuickKWayValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(60)
		g := NewWGraph(n)
		for i := 0; i < n*2; i++ {
			g.AddEdge(int32(rng.Intn(n)), int32(rng.Intn(n)), int64(1+rng.Intn(3)))
		}
		k := 2 + rng.Intn(4)
		if k > n {
			k = n
		}
		part, err := KWay(g, k, seed)
		if err != nil {
			return false
		}
		counts := make([]int, k)
		for _, p := range part {
			if p < 0 || p >= k {
				return false
			}
			counts[p]++
		}
		for _, c := range counts {
			if c == 0 {
				return false
			}
		}
		// Balance bound: 2.2x ideal with enough granularity; tiny graphs
		// where k approaches n cannot do better than integer rounding
		// compounded across recursion levels.
		bound := 2.2
		if n < 4*k {
			bound = 3.0
		}
		return Balance(g, part, k) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
