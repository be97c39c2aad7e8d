package sampling

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
)

// ring builds a symmetric ring of n nodes with k nearest neighbors per side.
func ring(t *testing.T, n, k int) *graph.Graph {
	t.Helper()
	var src, dst []graph.NodeID
	for v := 0; v < n; v++ {
		for j := 1; j <= k; j++ {
			src = append(src, graph.NodeID(v))
			dst = append(dst, graph.NodeID((v+j)%n))
		}
	}
	g, err := graph.FromEdges(n, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestSampleBatchStructure(t *testing.T) {
	g := ring(t, 20, 2) // degree 4 everywhere
	rng := rand.New(rand.NewSource(1))
	seeds := []graph.NodeID{0, 5, 10}
	b, err := SampleBatch(g, seeds, []int{3, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if b.Layers() != 2 || b.NumOutputNodes() != 3 {
		t.Fatalf("layers=%d outputs=%d", b.Layers(), b.NumOutputNodes())
	}
	if len(b.Hops) != 2 {
		t.Fatalf("hops = %d", len(b.Hops))
	}
	// Hop 0 destinations are exactly the seeds.
	for i, s := range seeds {
		if b.Hops[0].Dst[i] != s {
			t.Fatalf("hop0 dst[%d] = %d, want %d", i, b.Hops[0].Dst[i], s)
		}
		if d := len(b.Hops[0].Nbrs[i]); d > 3 || d < 1 {
			t.Fatalf("sampled degree %d outside [1,3]", d)
		}
	}
	// All sampled neighbors are true graph neighbors and distinct.
	for h := range b.Hops {
		fanout := b.Fanouts[h]
		for i, v := range b.Hops[h].Dst {
			nbrs := b.Hops[h].Nbrs[i]
			if len(nbrs) > fanout {
				t.Fatalf("hop %d: %d neighbors exceeds fanout %d", h, len(nbrs), fanout)
			}
			seen := map[graph.NodeID]bool{}
			for _, u := range nbrs {
				if !g.HasEdge(v, u) {
					t.Fatalf("sampled non-edge %d->%d", v, u)
				}
				if seen[u] {
					t.Fatalf("duplicate sampled neighbor %d of %d", u, v)
				}
				seen[u] = true
			}
		}
	}
}

func TestSampleBatchFullDegreeKept(t *testing.T) {
	g := ring(t, 10, 2) // degree 4
	rng := rand.New(rand.NewSource(2))
	b, err := SampleBatch(g, []graph.NodeID{0}, []int{10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := len(b.Hops[0].Nbrs[0]); d != 4 {
		t.Fatalf("fanout above degree must keep all 4 neighbors, got %d", d)
	}
	if p, ok := b.Position(0); !ok || p != 0 {
		t.Fatalf("Position(seed) = %d, %v; want row 0", p, ok)
	}
	for _, v := range []graph.NodeID{5, 99, -1} { // unsampled, beyond the graph, negative
		if p, ok := b.Position(v); ok {
			t.Fatalf("Position(%d) = %d for a node outside the batch", v, p)
		}
	}
}

func TestFrontiers(t *testing.T) {
	g := ring(t, 30, 1) // plain cycle, degree 2
	rng := rand.New(rand.NewSource(3))
	b, err := SampleBatch(g, []graph.NodeID{0}, []int{2, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	f0 := b.Frontier(0)
	if len(f0) != 1 || f0[0] != 0 {
		t.Fatalf("frontier0 = %v", f0)
	}
	f1 := b.Frontier(1)
	// Seed 0 carries over, plus its two ring neighbors {1, 29}.
	if len(f1) != 3 || f1[0] != 0 {
		t.Fatalf("frontier1 = %v, want [0 1 29]", f1)
	}
	f2 := b.Frontier(2)
	// f1 carries over plus neighbors of {0,1,29} = {1,29,0,2,28,0}:
	// distinct union {0,1,29,2,28}.
	if len(f2) != 5 {
		t.Fatalf("frontier2 = %v", f2)
	}
	if b.NumEdges() != 2+6 {
		t.Fatalf("NumEdges = %d, want 8", b.NumEdges())
	}
}

func TestMergedAdjacency(t *testing.T) {
	g := ring(t, 12, 1)
	rng := rand.New(rand.NewSource(4))
	b, err := SampleBatch(g, []graph.NodeID{0, 6}, []int{2, 2}, rng)
	if err != nil {
		t.Fatal(err)
	}
	merged := b.MergedAdjacency()
	// Every hop edge appears in the merged view.
	for h := range b.Hops {
		for i, v := range b.Hops[h].Dst {
			for _, u := range b.Hops[h].Nbrs[i] {
				found := false
				for _, w := range merged[v] {
					if w == u {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("merged adjacency missing %d->%d", v, u)
				}
			}
		}
	}
	// Sorted and deduped.
	for v, nbrs := range merged {
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("merged[%d] not strictly sorted: %v", v, nbrs)
			}
		}
	}
}

func TestSampleBatchErrors(t *testing.T) {
	g := ring(t, 10, 1)
	rng := rand.New(rand.NewSource(5))
	if _, err := SampleBatch(g, []graph.NodeID{0}, nil, rng); err == nil {
		t.Error("want error for no fanouts")
	}
	if _, err := SampleBatch(g, []graph.NodeID{0}, []int{0}, rng); err == nil {
		t.Error("want error for zero fanout")
	}
	if _, err := SampleBatch(g, nil, []int{2}, rng); err == nil {
		t.Error("want error for no seeds")
	}
	if _, err := SampleBatch(g, []graph.NodeID{0, 0}, []int{2}, rng); err == nil {
		t.Error("want error for duplicate seeds")
	}
	if _, err := SampleBatch(g, []graph.NodeID{99}, []int{2}, rng); err == nil {
		t.Error("want error for out-of-range seed")
	}
}

func TestUniformSeeds(t *testing.T) {
	g := ring(t, 50, 1)
	rng := rand.New(rand.NewSource(6))
	seeds, err := UniformSeeds(g, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != 10 {
		t.Fatalf("got %d seeds", len(seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range seeds {
		if seen[s] {
			t.Fatal("duplicate seed")
		}
		seen[s] = true
	}
	if _, err := UniformSeeds(g, 0, rng); err == nil {
		t.Error("want error for count 0")
	}
	if _, err := UniformSeeds(g, 51, rng); err == nil {
		t.Error("want error for count > n")
	}
}

// Property: sampled degrees never exceed min(fanout, true degree), and
// every destination of hop h+1... every sampled neighbor of hop h appears
// as a potential destination of hop h+1 (frontier propagation is complete).
func TestQuickSamplingInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(40)
		var src, dst []graph.NodeID
		for i := 0; i < n*3; i++ {
			src = append(src, graph.NodeID(rng.Intn(n)))
			dst = append(dst, graph.NodeID(rng.Intn(n)))
		}
		g, err := graph.FromEdges(n, src, dst, true)
		if err != nil {
			return false
		}
		seeds, err := UniformSeeds(g, 1+rng.Intn(5), rng)
		if err != nil {
			return false
		}
		fanouts := []int{1 + rng.Intn(4), 1 + rng.Intn(4)}
		b, err := SampleBatch(g, seeds, fanouts, rng)
		if err != nil {
			return false
		}
		for h := range b.Hops {
			for i, v := range b.Hops[h].Dst {
				limit := fanouts[h]
				if d := g.Degree(v); d < limit {
					limit = d
				}
				if len(b.Hops[h].Nbrs[i]) != limit {
					return false
				}
			}
		}
		checkPositions(t, b)
		// Frontier propagation: hop1 destinations == hop0 destinations
		// plus distinct hop0 neighbors.
		want := map[graph.NodeID]bool{}
		for _, d := range b.Hops[0].Dst {
			want[d] = true
		}
		for _, nbrs := range b.Hops[0].Nbrs {
			for _, u := range nbrs {
				want[u] = true
			}
		}
		if len(want) != len(b.Hops[1].Dst) {
			return false
		}
		for _, d := range b.Hops[1].Dst {
			if !want[d] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// checkPositions holds the batch's numbering on every hop of b: NbrPos's two
// invariants, and Position(Frontier(h)[p]) == p for every frontier.
func checkPositions(t *testing.T, b *Batch) {
	t.Helper()
	for h := 0; h <= b.Layers(); h++ {
		for p, v := range b.Frontier(h) {
			if got, ok := b.Position(v); !ok || int(got) != p {
				t.Fatalf("Position(Frontier(%d)[%d] = %d) = %d, %v", h, p, v, got, ok)
			}
		}
	}
	for h := range b.Hops {
		hop, next := &b.Hops[h], b.Frontier(h+1)
		for i, v := range hop.Dst {
			if next[i] != v {
				t.Fatalf("hop %d: Frontier(%d)[%d] = %d, Dst[%d] = %d", h, h+1, i, next[i], i, v)
			}
			if len(hop.NbrPos[i]) != len(hop.Nbrs[i]) {
				t.Fatalf("hop %d row %d: %d positions for %d neighbors", h, i, len(hop.NbrPos[i]), len(hop.Nbrs[i]))
			}
			for j, u := range hop.Nbrs[i] {
				if q := hop.NbrPos[i][j]; next[q] != u {
					t.Fatalf("hop %d row %d: Frontier(%d)[%d] = %d, neighbor %d", h, i, h+1, q, next[q], u)
				}
			}
		}
	}
}

func TestAssignPositions(t *testing.T) {
	dst0 := []graph.NodeID{10, 11, 12}
	dst1 := []graph.NodeID{10, 11, 12, 20, 21}
	build := func() *Batch {
		return &Batch{
			Seeds:   dst0,
			Fanouts: []int{2, 2},
			Hops: []HopAdj{
				{Dst: dst0, Nbrs: [][]graph.NodeID{{11, 20}, {}, {20, 21}}},
				{Dst: dst1, Nbrs: [][]graph.NodeID{{11}, {30}, {}, {30, 10}, {31}}},
			},
		}
	}
	b := build()
	if err := b.AssignPositions(); err != nil {
		t.Fatal(err)
	}
	checkPositions(t, b)
	want := []graph.NodeID{10, 11, 12, 20, 21, 30, 31}
	if got := b.Frontier(2); !reflect.DeepEqual(got, want) {
		t.Fatalf("innermost frontier %v, want %v", got, want)
	}

	for _, v := range []graph.NodeID{13, 32, -1} {
		if p, ok := b.Position(v); ok {
			t.Fatalf("Position(%d) = %d for a node outside the batch", v, p)
		}
	}

	b = build()
	b.Hops[0].Nbrs[0][1] = 22 // hop 1 does not list it
	if err := b.AssignPositions(); err == nil {
		t.Error("want error for a neighbor absent from the next hop's Dst")
	}
	b = build()
	b.Hops[0].Nbrs[0][1] = 30 // in the batch, but only from the innermost frontier on
	if err := b.AssignPositions(); err == nil {
		t.Error("want error for a hop-0 neighbor that only a deeper frontier lists")
	}
	b = build()
	b.Hops[1].Dst = []graph.NodeID{10, 11, 12, 20, 20}
	if err := b.AssignPositions(); err == nil {
		t.Error("want error for a destination listed twice")
	}
	b = build()
	b.Hops[1].Nbrs[4][0] = -3
	if err := b.AssignPositions(); err == nil {
		t.Error("want error for a negative neighbor")
	}
	b = build()
	b.Hops[1].Dst = []graph.NodeID{11, 10, 12, 20, 21} // not Dst-first
	if err := b.AssignPositions(); err == nil {
		t.Error("want error when a hop's destinations are not a prefix of the next hop's")
	}
}

// UniformSeedsInto must consume the RNG exactly as rand.Perm does: same
// seeds, and the same next draw, batch after batch — every seeded loss and K
// sequence in the repository rests on it.
func TestUniformSeedsIntoMatchesUniformSeeds(t *testing.T) {
	g := ring(t, 257, 2)
	ref := rand.New(rand.NewSource(11))
	rng := rand.New(rand.NewSource(11))
	var buf []graph.NodeID
	for batch := 0; batch < 100; batch++ {
		count := 1 + batch%64
		var want []graph.NodeID
		for _, p := range ref.Perm(g.NumNodes())[:count] {
			want = append(want, graph.NodeID(p))
		}
		got, err := UniformSeedsInto(buf, g, count, rng)
		if err != nil {
			t.Fatal(err)
		}
		buf = got
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("batch %d: seeds %v, want %v", batch, got, want)
		}
		if a, b := rng.Int63(), ref.Int63(); a != b {
			t.Fatalf("batch %d: RNG streams diverged after the draw", batch)
		}
	}
	if _, err := UniformSeedsInto(buf, g, 0, rng); err == nil {
		t.Error("want error for count 0")
	}
	if _, err := UniformSeedsInto(buf, g, 258, rng); err == nil {
		t.Error("want error for count > n")
	}
	if allocs := testing.AllocsPerRun(10, func() {
		buf, _ = UniformSeedsInto(buf, g, 32, rng)
	}); allocs != 0 {
		t.Fatalf("warm UniformSeedsInto allocates %v times per run, want 0", allocs)
	}
}

// A Batch recycled across graphs of different size must not read a stamp an
// earlier fill left in its dedup table, including across the epoch
// wrap-around: alternate a large and a small graph through one Batch with the
// epoch parked just below the wrap and hold each fill against a fresh one.
func TestSampleBatchIntoStaleBatch(t *testing.T) {
	graphs := []*graph.Graph{ring(t, 500, 6), ring(t, 30, 2)}
	var recycled Batch
	recycled.seen.Epoch = math.MaxUint32 - 1
	for round := 0; round < 6; round++ {
		for gi, g := range graphs {
			seed := int64(10*round + gi)
			rng, ref := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			seeds, err := UniformSeeds(g, 5+3*gi+round, rng)
			if err != nil {
				t.Fatal(err)
			}
			ref.Perm(g.NumNodes())
			fanouts := []int{3, 2 + gi}
			if err := SampleBatchInto(&recycled, g, seeds, fanouts, rng); err != nil {
				t.Fatal(err)
			}
			fresh, err := SampleBatch(g, seeds, fanouts, ref)
			if err != nil {
				t.Fatal(err)
			}
			for h := range fresh.Hops {
				got, want := &recycled.Hops[h], &fresh.Hops[h]
				if !reflect.DeepEqual(got.Dst, want.Dst) || !reflect.DeepEqual(got.Nbrs, want.Nbrs) ||
					!reflect.DeepEqual(got.NbrPos, want.NbrPos) {
					t.Fatalf("round %d graph %d hop %d: recycled fill differs from a fresh one", round, gi, h)
				}
			}
			checkPositions(t, &recycled)
			// Every node of the larger graph and one past each end: a fill on
			// the small graph must not see what the large one's left, inside
			// or beyond its own range.
			for v := graph.NodeID(-1); int(v) <= graphs[0].NumNodes(); v++ {
				got, gotOK := recycled.Position(v)
				want, wantOK := fresh.Position(v)
				if got != want || gotOK != wantOK {
					t.Fatalf("round %d graph %d: recycled Position(%d) = %d, %v; fresh %d, %v", round, gi, v, got, gotOK, want, wantOK)
				}
			}
		}
	}
	if recycled.seen.Epoch > 100 {
		t.Fatalf("epoch %d: the rounds should have crossed the wrap-around", recycled.seen.Epoch)
	}
}

func TestSampleBatchIntoWarmZeroAllocs(t *testing.T) {
	ds, err := datagen.Load("ogbn-arxiv", 7)
	if err != nil {
		t.Fatal(err)
	}
	s := NewStream(ds.Graph, 1024, []int{10, 25}, 7)
	var b Batch
	// Frontier sizes vary batch to batch; a few fills grow every backing
	// array (and the hop indexes) to the shape's ceiling.
	for i := 0; i < 30; i++ {
		if err := s.NextInto(&b); err != nil {
			t.Fatal(err)
		}
	}
	// Refill with one fixed batch so no fill can be a new record size.
	seeds := append([]graph.NodeID(nil), b.Seeds...)
	rng := rand.New(rand.NewSource(3))
	allocs := testing.AllocsPerRun(10, func() {
		rng.Seed(3)
		if err := SampleBatchInto(&b, ds.Graph, seeds, []int{10, 25}, rng); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SampleBatchInto allocates %v times per run, want 0", allocs)
	}
	checkPositions(t, &b)
}
