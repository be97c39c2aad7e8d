package block

import (
	"math/rand"
	"testing"
	"testing/quick"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/sampling"
)

// randomBatch builds a random symmetric graph and samples a batch from it.
func randomBatch(t testing.TB, seed int64, n, seedCount int, fanouts []int) *sampling.Batch {
	rng := rand.New(rand.NewSource(seed))
	var src, dst []graph.NodeID
	for i := 0; i < n*4; i++ {
		src = append(src, graph.NodeID(rng.Intn(n)))
		dst = append(dst, graph.NodeID(rng.Intn(n)))
	}
	g, err := graph.FromEdges(n, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := sampling.UniformSeeds(g, seedCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(g, seeds, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateStructure(t *testing.T) {
	b := randomBatch(t, 1, 60, 8, []int{3, 2})
	mb, err := Generate(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(mb.Blocks) != 2 {
		t.Fatalf("blocks = %d", len(mb.Blocks))
	}
	out := mb.Blocks[1]
	// Output-layer block destinations are exactly the outputs.
	if len(out.Dst) != len(b.Seeds) {
		t.Fatalf("output dst = %d, want %d", len(out.Dst), len(b.Seeds))
	}
	for i, s := range b.Seeds {
		if out.Dst[i] != s {
			t.Fatalf("dst[%d] = %d, want %d", i, out.Dst[i], s)
		}
	}
	// Prefix convention: Src begins with Dst.
	for _, blk := range mb.Blocks {
		for i, d := range blk.Dst {
			if blk.Src[i] != d {
				t.Fatal("src prefix violated")
			}
		}
		// Adjacency indices in range and pointing at the right nodes.
		for i, adj := range blk.Adj {
			for _, li := range adj {
				if li < 0 || int(li) >= len(blk.Src) {
					t.Fatalf("adj index %d out of range", li)
				}
				// Edge must exist in the original graph.
				if !b.Graph.HasEdge(blk.Dst[i], blk.Src[li]) {
					t.Fatalf("block edge %d->%d not in graph", blk.Dst[i], blk.Src[li])
				}
			}
		}
	}
	// Frontier sharing: inner dst == outer src.
	if len(mb.Blocks[0].Dst) != len(mb.Blocks[1].Src) {
		t.Fatal("frontier sharing violated")
	}
	if got := mb.InputNodes(); len(got) != mb.Blocks[0].NumSrc() {
		t.Fatal("InputNodes must be the innermost src frontier")
	}
	if mb.NumNodes() <= 0 || mb.Blocks[0].NumEdges() <= 0 {
		t.Fatal("counts must be positive")
	}
}

func TestGenerateDegreeRespectsSampling(t *testing.T) {
	b := randomBatch(t, 2, 80, 10, []int{4, 3})
	mb, err := Generate(b, b.Seeds[:4])
	if err != nil {
		t.Fatal(err)
	}
	// The output block (hop 0) degrees equal the batch's sampled degrees.
	out := mb.Blocks[len(mb.Blocks)-1]
	for i, d := range out.Dst {
		r, ok := b.Position(d)
		if !ok {
			t.Fatalf("output %d has no position in the batch", d)
		}
		if got, want := len(out.Adj[i]), len(b.Hops[0].Nbrs[r]); got != want {
			t.Fatalf("degree of %d: %d, want %d", d, got, want)
		}
	}
	if out.MaxDegree() > 4 {
		t.Fatalf("max degree %d exceeds fanout", out.MaxDegree())
	}
}

func TestNaiveMatchesFast(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		b := randomBatch(t, seed, 70, 12, []int{3, 2})
		subset := b.Seeds[:6]
		fast, err := Generate(b, subset)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := GenerateNaive(b, subset)
		if err != nil {
			t.Fatal(err)
		}
		assertEqualMicroBatches(t, fast, naive)
	}
}

func assertEqualMicroBatches(t testing.TB, a, b *MicroBatch) {
	t.Helper()
	if len(a.Blocks) != len(b.Blocks) {
		t.Fatalf("block counts %d vs %d", len(a.Blocks), len(b.Blocks))
	}
	for l := range a.Blocks {
		ba, bb := a.Blocks[l], b.Blocks[l]
		if len(ba.Src) != len(bb.Src) || len(ba.Dst) != len(bb.Dst) {
			t.Fatalf("layer %d: frontier sizes differ", l)
		}
		for i := range ba.Src {
			if ba.Src[i] != bb.Src[i] {
				t.Fatalf("layer %d: src[%d] %d vs %d", l, i, ba.Src[i], bb.Src[i])
			}
		}
		for i := range ba.Adj {
			if len(ba.Adj[i]) != len(bb.Adj[i]) {
				t.Fatalf("layer %d dst %d: degree %d vs %d", l, i, len(ba.Adj[i]), len(bb.Adj[i]))
			}
			for j := range ba.Adj[i] {
				if ba.Adj[i][j] != bb.Adj[i][j] {
					t.Fatalf("layer %d dst %d edge %d differs", l, i, j)
				}
			}
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	b := randomBatch(t, 3, 40, 5, []int{2})
	if _, err := Generate(b, nil); err == nil {
		t.Error("want error for empty outputs")
	}
	if _, err := Generate(b, []graph.NodeID{b.Seeds[0], b.Seeds[0]}); err == nil {
		t.Error("want error for duplicate outputs")
	}
	// A node that is not a seed.
	var notSeed graph.NodeID = -1
	seedSet := map[graph.NodeID]bool{}
	for _, s := range b.Seeds {
		seedSet[s] = true
	}
	for v := 0; v < 40; v++ {
		if !seedSet[graph.NodeID(v)] {
			notSeed = graph.NodeID(v)
			break
		}
	}
	if _, err := Generate(b, []graph.NodeID{notSeed}); err == nil {
		t.Error("want error for non-seed output")
	}
	if _, err := GenerateNaive(b, []graph.NodeID{notSeed}); err == nil {
		t.Error("want error for non-seed output (naive)")
	}
	if _, err := GenerateNaive(b, []graph.NodeID{b.Seeds[1], b.Seeds[1]}); err == nil {
		t.Error("want error for duplicate outputs (naive)")
	}

	// A hand-built batch: neighbors but no positions is an error, not a
	// panic and not a slower second path; AssignPositions makes it usable.
	dst0 := []graph.NodeID{10, 11, 12}
	hand := &sampling.Batch{
		Seeds:   dst0,
		Fanouts: []int{2},
		Hops: []sampling.HopAdj{{
			Dst:  dst0,
			Nbrs: [][]graph.NodeID{{11, 20}, {}, {20, 21}},
		}},
	}
	if _, err := Generate(hand, dst0); err == nil {
		t.Error("want error for a batch with Nbrs but no NbrPos")
	}
	if err := hand.AssignPositions(); err != nil {
		t.Fatal(err)
	}
	fast, err := Generate(hand, dst0[1:])
	if err != nil {
		t.Fatal(err)
	}
	naive, err := GenerateNaive(hand, dst0[1:])
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMicroBatches(t, fast, naive)
	// A position past the next frontier (5 nodes: 10 11 12 20 21).
	for _, bad := range []int32{5, -1} {
		hand.Hops[0].NbrPos[2][1] = bad
		if _, err := Generate(hand, dst0); err == nil {
			t.Errorf("want error for neighbor position %d out of range", bad)
		}
	}
}

func TestMicroBatchUnionCoversBatch(t *testing.T) {
	// Splitting the outputs across micro-batches: union of outputs == seeds
	// and each micro-batch only references nodes present in the batch.
	b := randomBatch(t, 4, 90, 12, []int{3, 2})
	half := len(b.Seeds) / 2
	mb1, err := Generate(b, b.Seeds[:half])
	if err != nil {
		t.Fatal(err)
	}
	mb2, err := Generate(b, b.Seeds[half:])
	if err != nil {
		t.Fatal(err)
	}
	batchNodes := map[graph.NodeID]bool{}
	for _, v := range b.AllNodes() {
		batchNodes[v] = true
	}
	for _, mb := range []*MicroBatch{mb1, mb2} {
		for _, blk := range mb.Blocks {
			for _, v := range blk.Src {
				if !batchNodes[v] {
					t.Fatalf("micro-batch references node %d outside the batch", v)
				}
			}
		}
	}
	if len(mb1.Outputs)+len(mb2.Outputs) != len(b.Seeds) {
		t.Fatal("outputs do not partition the seeds")
	}
}

// Property: fast and naive generators agree on random graphs, fanouts and
// output subsets.
func TestQuickFastNaiveEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		b := randomBatch(t, seed, n, 2+rng.Intn(6), []int{1 + rng.Intn(4), 1 + rng.Intn(4)})
		k := 1 + rng.Intn(len(b.Seeds))
		subset := b.Seeds[:k]
		fast, err1 := Generate(b, subset)
		naive, err2 := GenerateNaive(b, subset)
		if err1 != nil || err2 != nil {
			return false
		}
		if len(fast.Blocks) != len(naive.Blocks) {
			return false
		}
		for l := range fast.Blocks {
			fa, na := fast.Blocks[l], naive.Blocks[l]
			if len(fa.Src) != len(na.Src) || fa.NumEdges() != na.NumEdges() {
				return false
			}
			for i := range fa.Src {
				if fa.Src[i] != na.Src[i] {
					return false
				}
			}
			for i := range fa.Adj {
				for j := range fa.Adj[i] {
					if fa.Adj[i][j] != na.Adj[i][j] {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// The fast generator must match the naive result on frontiers of thousands
// of nodes too (the size at which it used to fan its gather out).
func TestParallelPathLargeFrontier(t *testing.T) {
	b := randomBatch(t, 9, 3000, 600, []int{5, 5})
	fast, err := Generate(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := GenerateNaive(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	assertEqualMicroBatches(t, fast, naive)
}

// With a recorder, one KindFanout span per hop and the call's totals on the
// block/src_nodes and block/edges counters.
func TestGenerateTracedSpansAndCounters(t *testing.T) {
	b := randomBatch(t, 6, 80, 10, []int{4, 3})
	m := obs.NewMetrics()
	rec := obs.NewRecorder(obs.NewTrace(), m)
	var srcNodes, edges int64
	for _, outputs := range [][]graph.NodeID{b.Seeds[:4], b.Seeds[4:]} {
		mb, err := GenerateInto(new(GenScratch), b, outputs, rec)
		if err != nil {
			t.Fatal(err)
		}
		for _, blk := range mb.Blocks {
			srcNodes += int64(blk.NumSrc())
			edges += blk.NumEdges()
		}
	}
	if got := m.Counter("fanout/count").Value(); got != 4 {
		t.Fatalf("fanout spans = %d, want one per hop per call (4)", got)
	}
	for _, ev := range rec.Trace().Events() {
		if ev.Kind == obs.KindFanout && ev.Aux != 1 {
			t.Fatalf("fanout span %q reports %d workers, want 1", ev.Name, ev.Aux)
		}
	}
	if got := m.Counter("block/src_nodes").Value(); got != srcNodes {
		t.Fatalf("block/src_nodes = %d, want %d", got, srcNodes)
	}
	if got := m.Counter("block/edges").Value(); got != edges {
		t.Fatalf("block/edges = %d, want %d", got, edges)
	}
}
