package graph

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// triangle returns the symmetric triangle graph 0-1-2-0.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g, err := FromEdges(3, []NodeID{0, 1, 2}, []NodeID{1, 2, 0}, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	return g
}

func TestFromEdgesBasic(t *testing.T) {
	g := triangle(t)
	if g.NumNodes() != 3 {
		t.Fatalf("NumNodes = %d, want 3", g.NumNodes())
	}
	if g.NumEdges() != 6 {
		t.Fatalf("NumEdges = %d, want 6", g.NumEdges())
	}
	for v := NodeID(0); v < 3; v++ {
		if d := g.Degree(v); d != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, d)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("expected symmetric edge 0-1")
	}
	if g.HasEdge(0, 0) {
		t.Error("unexpected self loop")
	}
}

func TestFromEdgesDirected(t *testing.T) {
	g, err := FromEdges(3, []NodeID{0, 1}, []NodeID{2, 2}, false)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.Degree(2) != 2 {
		t.Fatalf("Degree(2) = %d, want 2", g.Degree(2))
	}
	if g.Degree(0) != 0 || g.Degree(1) != 0 {
		t.Fatal("directed graph should have no reverse entries")
	}
	if !g.HasEdge(2, 0) || g.HasEdge(0, 2) {
		t.Fatal("edge direction wrong")
	}
}

func TestFromEdgesDeduplicates(t *testing.T) {
	g, err := FromEdges(2, []NodeID{0, 0, 0}, []NodeID{1, 1, 1}, true)
	if err != nil {
		t.Fatalf("FromEdges: %v", err)
	}
	if g.Degree(1) != 1 || g.Degree(0) != 1 {
		t.Fatalf("duplicates not removed: degrees %d,%d", g.Degree(0), g.Degree(1))
	}
}

func TestFromEdgesRangeErrors(t *testing.T) {
	if _, err := FromEdges(2, []NodeID{0}, []NodeID{5}, false); err == nil {
		t.Error("want error for out-of-range dst")
	}
	if _, err := FromEdges(2, []NodeID{-1}, []NodeID{0}, false); err == nil {
		t.Error("want error for negative src")
	}
	if _, err := FromEdges(2, []NodeID{0, 1}, []NodeID{1}, false); err == nil {
		t.Error("want error for length mismatch")
	}
}

func TestFromAdjacencySortsAndDedups(t *testing.T) {
	g := FromAdjacency([][]NodeID{{2, 1, 2, 0}, {}, {0}})
	nb := g.Neighbors(0)
	if len(nb) != 3 || nb[0] != 0 || nb[1] != 1 || nb[2] != 2 {
		t.Fatalf("Neighbors(0) = %v, want [0 1 2]", nb)
	}
	if g.Degree(1) != 0 {
		t.Fatalf("Degree(1) = %d, want 0", g.Degree(1))
	}
}

func TestDegreeHistogram(t *testing.T) {
	// Star: center 0 with 4 leaves.
	g, err := FromEdges(5, []NodeID{1, 2, 3, 4}, []NodeID{0, 0, 0, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	h := g.DegreeHistogram()
	if h[1] != 4 || h[4] != 1 {
		t.Fatalf("histogram = %v, want 4 nodes of degree 1, 1 of degree 4", h)
	}
	if g.MaxDegree() != 4 {
		t.Fatalf("MaxDegree = %d, want 4", g.MaxDegree())
	}
	if got := g.AvgDegree(); got != 8.0/5 {
		t.Fatalf("AvgDegree = %v, want 1.6", got)
	}
}

func TestClusteringCoefficientTriangle(t *testing.T) {
	g := triangle(t)
	if c := g.ClusteringCoefficient(); c != 1 {
		t.Fatalf("triangle C = %v, want 1", c)
	}
}

func TestClusteringCoefficientPath(t *testing.T) {
	g, err := FromEdges(3, []NodeID{0, 1}, []NodeID{1, 2}, true)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.ClusteringCoefficient(); c != 0 {
		t.Fatalf("path C = %v, want 0", c)
	}
}

func TestClusteringCoefficientMixed(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	g, err := FromEdges(4, []NodeID{0, 1, 2, 0}, []NodeID{1, 2, 0, 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	// C(0) = 1/(3 choose 2) = 1/3; C(1)=C(2)=1; C(3)=0. Mean = 7/12.
	want := (1.0/3 + 1 + 1 + 0) / 4
	if c := g.ClusteringCoefficient(); c < want-1e-12 || c > want+1e-12 {
		t.Fatalf("C = %v, want %v", c, want)
	}
}

func TestApproxClusteringCoefficientFallsBackToExact(t *testing.T) {
	g := triangle(t)
	if c := g.ApproxClusteringCoefficient(1, 0); c != 1 {
		t.Fatalf("approx(0 samples) = %v, want exact 1", c)
	}
	if c := g.ApproxClusteringCoefficient(1, 100); c != 1 {
		t.Fatalf("approx(100 samples of 3 nodes) = %v, want exact 1", c)
	}
}

func TestPowerLawDetection(t *testing.T) {
	// A graph where one hub connects to everything and the rest form a ring:
	// heavy tail relative to the mean.
	n := 2000
	var src, dst []NodeID
	for i := 1; i < n; i++ {
		src = append(src, 0)
		dst = append(dst, NodeID(i))
	}
	// Ring among 1..n-1 to give everyone degree 3.
	for i := 1; i < n; i++ {
		j := i + 1
		if j == n {
			j = 1
		}
		src = append(src, NodeID(i))
		dst = append(dst, NodeID(j))
	}
	g, err := FromEdges(n, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	if g.MaxDegree() != n-1 {
		t.Fatalf("hub degree = %d", g.MaxDegree())
	}
	// The ring graph alone is not power law.
	ringOnly, err := FromEdges(4, []NodeID{0, 1, 2, 3}, []NodeID{1, 2, 3, 0}, true)
	if err != nil {
		t.Fatal(err)
	}
	if ringOnly.IsPowerLaw() {
		t.Error("ring misclassified as power law")
	}
}

func TestPowerLawAlphaEmptyTail(t *testing.T) {
	g := triangle(t)
	if alpha, tail := g.PowerLawAlpha(100); alpha != 0 || tail != 0 {
		t.Fatalf("alpha,tail = %v,%d; want 0,0", alpha, tail)
	}
}

func TestComputeStats(t *testing.T) {
	g := triangle(t)
	s := g.ComputeStats(7, 0)
	if s.Nodes != 3 || s.Edges != 6 || s.MaxDegree != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.AvgCoef != 1 {
		t.Fatalf("AvgCoef = %v, want 1", s.AvgCoef)
	}
}

// Property: every neighbor list is sorted, deduped, in range; and HasEdge
// agrees with membership.
func TestQuickCSRInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m := rng.Intn(200)
		src := make([]NodeID, m)
		dst := make([]NodeID, m)
		for i := 0; i < m; i++ {
			src[i] = NodeID(rng.Intn(n))
			dst[i] = NodeID(rng.Intn(n))
		}
		g, err := FromEdges(n, src, dst, rng.Intn(2) == 0)
		if err != nil {
			return false
		}
		seen := int64(0)
		for v := 0; v < n; v++ {
			nb := g.Neighbors(NodeID(v))
			seen += int64(len(nb))
			for i, u := range nb {
				if u < 0 || int(u) >= n {
					return false
				}
				if i > 0 && nb[i-1] >= u {
					return false // must be strictly increasing
				}
				if !g.HasEdge(NodeID(v), u) {
					return false
				}
			}
		}
		return seen == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
