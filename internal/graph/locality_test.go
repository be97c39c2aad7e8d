package graph

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// checkOrder fails unless rank is a permutation of the nodes and order its
// inverse.
func checkOrder(t *testing.T, g *Graph) (rank []int32, order []NodeID) {
	t.Helper()
	rank, order = g.Locality()
	n := g.NumNodes()
	if len(rank) != n || len(order) != n {
		t.Fatalf("rank %d / order %d entries for %d nodes", len(rank), len(order), n)
	}
	for v, r := range rank {
		if r < 0 || int(r) >= n || order[r] != NodeID(v) {
			t.Fatalf("node %d: rank %d does not map back through order", v, r)
		}
	}
	return rank, order
}

// ringLattice links node i to every node within ring distance h.
func ringLattice(n, h int) [][]NodeID {
	lists := make([][]NodeID, n)
	for i := range lists {
		for d := 1; d <= h; d++ {
			lists[i] = append(lists[i], NodeID((i+d)%n), NodeID((i-d+n)%n))
		}
	}
	return lists
}

func TestLocalityValidOnEdgeCases(t *testing.T) {
	// Twelve hubs linked only to each other, among isolated nodes: no hub
	// has a neighbour the search reaches.
	clique := make([][]NodeID, 112)
	for u := 0; u < 12; u++ {
		for v := 0; v < 12; v++ {
			if u != v {
				clique[u] = append(clique[u], NodeID(v))
			}
		}
	}
	star := make([][]NodeID, 201)
	for leaf := 1; leaf < len(star); leaf++ {
		star[0] = append(star[0], NodeID(leaf))
		star[leaf] = []NodeID{0}
	}
	cases := map[string][][]NodeID{
		"empty":      {},
		"isolated":   {{}, {}, {}},
		"self-loops": {{0, 1}, {0, 1, 2}, {1, 2}, {3}},
		"star":       star,
		"components": {{1}, {0, 2}, {1}, {4}, {3}, {}, {7}, {6}},
		"hub-clique": clique,
	}
	for name, lists := range cases {
		t.Run(name, func(t *testing.T) {
			checkOrder(t, FromAdjacency(lists))
		})
	}
	rank, _ := checkOrder(t, FromAdjacency(clique))
	for u := 0; u < 12; u++ {
		if rank[u] != NodeID(100+u) {
			t.Errorf("unreachable hub %d has rank %d, want %d (after every reached node)", u, rank[u], 100+u)
		}
	}
	// The star's hub is the only node whose degree exceeds the local
	// cut-off, so every leaf is a component of its own and the hub sorts
	// right after its median leaf.
	rank, _ = checkOrder(t, FromAdjacency(star))
	if got, want := rank[0], rank[100]+1; got != want {
		t.Errorf("hub rank %d, want %d (after the median leaf)", got, want)
	}
}

func TestLocalityStableAndSafeConcurrently(t *testing.T) {
	lists := ringLattice(500, 3)
	ref := FromAdjacency(lists)
	wantRank, wantOrder := checkOrder(t, ref)
	again, _ := ref.Locality()
	if &again[0] != &wantRank[0] {
		t.Fatal("a second call recomputed the order")
	}
	g := FromAdjacency(lists)
	var wg sync.WaitGroup
	ranks := make([][]int32, 8)
	for i := range ranks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ranks[i], _ = g.Locality()
		}()
	}
	wg.Wait()
	_, order := g.Locality()
	for i, r := range ranks {
		if &r[0] != &ranks[0][0] {
			t.Fatalf("goroutine %d got its own order", i)
		}
	}
	for i := range wantOrder {
		if order[i] != wantOrder[i] {
			t.Fatalf("order differs from an identical graph's at %d", i)
		}
	}
}

// TestLocalityFollowsALattice: on an unrelabelled lattice the order follows
// the geometry. A breadth-first search on a closed ring grows two fronts, so
// its visit order alternates between them level by level; what it keeps is a
// narrow band — ring neighbours stay within two levels, 4h ranks, of each
// other. On the ring cut open into a path, the search starts at an end and
// walks the path.
func TestLocalityFollowsALattice(t *testing.T) {
	const n, h = 600, 3
	lists := ringLattice(n, h)
	rank, _ := checkOrder(t, FromAdjacency(lists))
	for i := 0; i < n; i++ {
		for d := 1; d <= h; d++ {
			j := (i + d) % n
			if diff := int(rank[i]) - int(rank[j]); diff > 4*h || diff < -4*h {
				t.Fatalf("ring neighbours %d and %d sit %d ranks apart", i, j, diff)
			}
		}
	}

	for i := range lists { // cut the ring between nodes n-1 and 0
		kept := lists[i][:0]
		for _, u := range lists[i] {
			if d := int(u) - i; d <= h && d >= -h {
				kept = append(kept, u)
			}
		}
		lists[i] = kept
	}
	_, order := checkOrder(t, FromAdjacency(lists))
	seams := 0
	for i := 1; i < n; i++ {
		if d := int(order[i]) - int(order[i-1]); d > h || d < -h {
			seams++
		}
	}
	if seams > 2 {
		t.Fatalf("%d seams along the path, want at most 2", seams)
	}
}

func TestQuickLocalityIsAPermutation(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(60)
		lists := make([][]NodeID, n)
		for v := range lists {
			for e := rng.Intn(4); e > 0; e-- {
				u := NodeID(rng.Intn(n))
				lists[v] = append(lists[v], u)
				lists[u] = append(lists[u], NodeID(v))
			}
		}
		if n > 0 && rng.Intn(2) == 0 { // a hub touching most nodes
			for u := 1; u < n; u++ {
				lists[0] = append(lists[0], NodeID(u))
				lists[u] = append(lists[u], 0)
			}
		}
		checkOrder(t, FromAdjacency(lists))
	}
}

func TestNthMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 500; trial++ {
		a := make([]int32, 1+rng.Intn(40))
		for i := range a {
			a[i] = int32(rng.Intn(1 + rng.Intn(30)))
		}
		sorted := slices.Clone(a)
		slices.Sort(sorted)
		k := rng.Intn(len(a))
		if got := nth(a, k); got != sorted[k] {
			t.Fatalf("nth(%v, %d) = %d, want %d", sorted, k, got, sorted[k])
		}
	}
}
