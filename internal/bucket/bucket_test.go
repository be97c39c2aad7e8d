package bucket

import (
	"math/rand"
	"testing"
	"testing/quick"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

func arxivBatch(t testing.TB, seedCount int, fanouts []int) *sampling.Batch {
	t.Helper()
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	seeds, err := sampling.UniformSeeds(ds.Graph, seedCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, seeds, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestBucketizePartitionsOutputs(t *testing.T) {
	b := arxivBatch(t, 2000, []int{10, 25})
	bk := Bucketize(b)
	if bk.F != 10 {
		t.Fatalf("F = %d, want 10", bk.F)
	}
	if bk.TotalNodes() != len(b.Seeds) {
		t.Fatalf("buckets hold %d nodes, want %d", bk.TotalNodes(), len(b.Seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, bucket := range bk.Buckets {
		if bucket.Volume() == 0 {
			t.Fatalf("empty bucket %s emitted", bucket.Label())
		}
		if bucket.Degree < 1 || bucket.Degree > 10 {
			t.Fatalf("bucket degree %d outside [1,10]", bucket.Degree)
		}
		for i, v := range bucket.Nodes {
			if seen[v] {
				t.Fatalf("node %d in two buckets", v)
			}
			seen[v] = true
			r, ok := b.Position(v)
			if !ok || r != bucket.Rows[i] {
				t.Fatalf("node %d: row %d, Position %d (%v)", v, bucket.Rows[i], r, ok)
			}
			if d := len(b.Hops[0].Nbrs[r]); d != bucket.Degree {
				t.Fatalf("node %d sampled degree %d in bucket %d", v, d, bucket.Degree)
			}
		}
	}
	// Buckets are in ascending degree order.
	for i := 1; i < len(bk.Buckets); i++ {
		if bk.Buckets[i-1].Degree >= bk.Buckets[i].Degree {
			t.Fatal("buckets not sorted by degree")
		}
	}
}

func TestExplosionOnPowerLawGraph(t *testing.T) {
	// arxiv-mini has avg degree ~14 > F=10: the cut-off bucket explodes,
	// reproducing Fig 4.b.
	b := arxivBatch(t, 2000, []int{10, 25})
	bk := Bucketize(b)
	exploded, ok := bk.DetectExplosion()
	if !ok {
		t.Fatalf("expected explosion; volumes = %v", bk.Volumes())
	}
	if exploded.Degree != 10 {
		t.Fatalf("exploded bucket degree %d, want the cut-off 10 (volumes %v)",
			exploded.Degree, bk.Volumes())
	}
}

func TestNoExplosionOnBalancedGraph(t *testing.T) {
	// Cora-mini (Watts-Strogatz, narrow degrees, avg ~4) with F above the
	// max degree: balanced buckets like Fig 4.a.
	ds, err := datagen.Load("cora", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	seeds, err := sampling.UniformSeeds(ds.Graph, 1500, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, seeds, []int{25, 25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	bk := Bucketize(b)
	if _, ok := bk.DetectExplosion(); ok {
		t.Fatalf("cora should not explode; volumes = %v", bk.Volumes())
	}
}

func TestDetectExplosionSmallCases(t *testing.T) {
	bk := &Bucketing{F: 5, Buckets: []*Bucket{{Degree: 5, Nodes: make([]graph.NodeID, 100)}}}
	if _, ok := bk.DetectExplosion(); !ok {
		t.Fatal("a single cut-off bucket holding everything is the maximal explosion")
	}
	empty := &Bucketing{F: 5}
	if _, ok := empty.DetectExplosion(); ok {
		t.Fatal("empty bucketing cannot explode")
	}
}

func TestSplitBucketEven(t *testing.T) {
	b := &Bucket{Degree: 10, Nodes: []graph.NodeID{1, 2, 3, 4, 5, 6, 7}}
	parts, err := SplitBucket(b, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	var rejoined []graph.NodeID
	for i, p := range parts {
		if !p.Split || p.Part != i || p.Degree != 10 {
			t.Fatalf("part metadata wrong: %+v", p)
		}
		if p.Volume() < 2 || p.Volume() > 3 {
			t.Fatalf("uneven split: %d", p.Volume())
		}
		rejoined = append(rejoined, p.Nodes...)
	}
	for i, v := range rejoined {
		if b.Nodes[i] != v {
			t.Fatal("split must preserve node order")
		}
	}
}

func TestSplitBucketEdgeCases(t *testing.T) {
	b := &Bucket{Degree: 3, Nodes: []graph.NodeID{1, 2}}
	if _, err := SplitBucket(b, 0, nil); err == nil {
		t.Error("want error for k=0")
	}
	parts, err := SplitBucket(b, 5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 2 {
		t.Fatalf("k above volume must clamp: got %d parts", len(parts))
	}
}

func TestReplaceWithSplit(t *testing.T) {
	a := &Bucket{Degree: 1, Nodes: []graph.NodeID{1}}
	target := &Bucket{Degree: 5, Nodes: []graph.NodeID{2, 3, 4, 5}}
	bk := &Bucketing{F: 5, Buckets: []*Bucket{a, target}}
	out, err := bk.ReplaceWithSplit(target, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Buckets) != 3 {
		t.Fatalf("buckets = %d, want 3", len(out.Buckets))
	}
	if out.Buckets[0] != a {
		t.Fatal("non-target buckets must be preserved")
	}
	if out.TotalNodes() != 5 {
		t.Fatalf("total nodes = %d", out.TotalNodes())
	}
	other := &Bucket{Degree: 9}
	if _, err := bk.ReplaceWithSplit(other, 2, nil); err == nil {
		t.Error("want error for absent target")
	}
}

func TestGroup(t *testing.T) {
	g := &Group{Buckets: []*Bucket{
		{Degree: 2, Nodes: []graph.NodeID{1, 2}},
		{Degree: 5, Nodes: []graph.NodeID{3}, Split: true, Part: 1},
	}}
	if g.Volume() != 3 {
		t.Fatalf("volume = %d", g.Volume())
	}
	nodes := g.Nodes()
	if len(nodes) != 3 || nodes[2] != 3 {
		t.Fatalf("nodes = %v", nodes)
	}
	labels := g.Labels()
	if labels[0] != "deg-2" || labels[1] != "deg-5/part1" {
		t.Fatalf("labels = %v", labels)
	}
}

// Property: splitting preserves the node multiset and balances sizes
// within 1 for any k.
func TestQuickSplitInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(200)
		nodes := make([]graph.NodeID, n)
		for i := range nodes {
			nodes[i] = graph.NodeID(rng.Intn(10000))
		}
		b := &Bucket{Degree: 7, Nodes: nodes}
		k := 1 + rng.Intn(12)
		parts, err := SplitBucket(b, k, nil)
		if err != nil {
			return false
		}
		var re []graph.NodeID
		min, max := n+1, -1
		for _, p := range parts {
			re = append(re, p.Nodes...)
			if p.Volume() < min {
				min = p.Volume()
			}
			if p.Volume() > max {
				max = p.Volume()
			}
		}
		if len(re) != n || max-min > 1 {
			return false
		}
		for i := range re {
			if re[i] != nodes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestSplitCutsInLocalityOrder: on a real batch, a split's parts partition
// the bucket, their sizes differ by at most one, each part ascends in the
// graph's locality order and keeps every member's row; cutting a part again
// keeps its members where they are.
func TestSplitCutsInLocalityOrder(t *testing.T) {
	b := arxivBatch(t, 2000, []int{10, 25})
	target, ok := Bucketize(b).DetectExplosion()
	if !ok {
		t.Fatal("expected explosion")
	}
	members := map[graph.NodeID]bool{}
	for _, v := range target.Nodes {
		members[v] = true
	}
	rank, _ := b.Graph.Locality()
	var sc Scratch
	for _, k := range []int{2, 3, 7, 16} {
		parts := AppendSplit(&sc, nil, target, k, b.Graph)
		seen := map[graph.NodeID]bool{}
		smallest, largest := target.Volume(), 0
		for _, p := range parts {
			smallest, largest = min(smallest, p.Volume()), max(largest, p.Volume())
			for i, v := range p.Nodes {
				if !members[v] || seen[v] {
					t.Fatalf("k=%d: node %d is not the bucket's or is in two parts", k, v)
				}
				seen[v] = true
				if r, _ := b.Position(v); r != p.Rows[i] {
					t.Fatalf("k=%d: node %d carries row %d, Position %d", k, v, p.Rows[i], r)
				}
				if i > 0 && rank[p.Nodes[i-1]] >= rank[v] {
					t.Fatalf("k=%d: part %d does not ascend in locality order", k, p.Part)
				}
			}
		}
		if len(seen) != len(members) || largest-smallest > 1 {
			t.Fatalf("k=%d: parts cover %d of %d nodes, sizes %d..%d", k, len(seen), len(members), smallest, largest)
		}
		part := parts[0]
		before := append([]graph.NodeID(nil), part.Nodes...)
		AppendSplit(&sc, nil, &part, 2, b.Graph)
		for i, v := range part.Nodes {
			if before[i] != v {
				t.Fatalf("k=%d: re-cutting a part reordered it", k)
			}
		}
	}
}

// TestLocalityCutSharesFrontiers: on the clustered power-law generator, over
// 20 batches, cutting the explosion bucket in locality order gives parts
// whose 2-hop sampled subgraphs hold fewer nodes in sum than cutting it in
// hop-0 order.
func TestLocalityCutSharesFrontiers(t *testing.T) {
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	var hop0, local int
	for i := 0; i < 20; i++ {
		seeds, err := sampling.UniformSeeds(ds.Graph, 512, rng)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sampling.SampleBatch(ds.Graph, seeds, []int{10, 25}, rng)
		if err != nil {
			t.Fatal(err)
		}
		target, ok := Bucketize(b).DetectExplosion()
		if !ok {
			t.Fatal("expected explosion")
		}
		// The hop-0 cut first: the locality cut sorts target in place.
		for _, p := range AppendSplit(nil, nil, target, 4, nil) {
			hop0 += subgraphNodes(b, &p)
		}
		for _, p := range AppendSplit(nil, nil, target, 4, ds.Graph) {
			local += subgraphNodes(b, &p)
		}
	}
	t.Logf("summed micro-batch nodes: hop-0 cut %d, locality cut %d", hop0, local)
	if local >= hop0 {
		t.Fatalf("locality cut holds %d nodes, hop-0 cut %d", local, hop0)
	}
}

// subgraphNodes counts the distinct nodes of p's sampled subgraph: its
// members and every node its members reach through the batch's hops.
func subgraphNodes(b *sampling.Batch, p *Bucket) int {
	seen := map[graph.NodeID]bool{}
	rows := append([]int32(nil), p.Rows...)
	for _, v := range p.Nodes {
		seen[v] = true
	}
	for h := range b.Hops {
		var next []int32
		for _, r := range rows {
			for j, u := range b.Hops[h].Nbrs[r] {
				seen[u] = true
				next = append(next, b.Hops[h].NbrPos[r][j])
			}
		}
		rows = next
	}
	return len(seen)
}
