package graph

import (
	"math"
	"math/bits"
	"math/rand"
	"slices"

	"buffalo/internal/stamp"
)

// ClusteringCoefficient computes the exact average local clustering
// coefficient: mean over all nodes of (links among v's neighbors) /
// (deg(v) choose 2). Nodes with degree < 2 contribute 0, matching the
// convention of the network-effects formula the paper cites (Kemper, p.142).
//
// Cost is O(sum_v sum_{u in N(v)} min(deg(u), deg(v) log deg(u))); use
// ApproxClusteringCoefficient for graphs with heavy tails when an estimate
// suffices.
func (g *Graph) ClusteringCoefficient() float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var marks stamp.Table
	total := 0.0
	for v := 0; v < n; v++ {
		total += g.localClustering(NodeID(v), &marks)
	}
	return total / float64(n)
}

// ApproxClusteringCoefficient estimates the average local clustering
// coefficient from a uniform sample of nodes. samples <= 0 or >= NumNodes
// falls back to the exact computation.
func (g *Graph) ApproxClusteringCoefficient(seed int64, samples int) float64 {
	n := g.NumNodes()
	if samples <= 0 || samples >= n {
		return g.ClusteringCoefficient()
	}
	rng := rand.New(rand.NewSource(seed))
	var marks stamp.Table
	total := 0.0
	for i := 0; i < samples; i++ {
		total += g.localClustering(NodeID(rng.Intn(n)), &marks)
	}
	return total / float64(samples)
}

// localClustering computes the local clustering coefficient of v: the number
// of neighbour pairs u < w of v, self-loop excluded, with w in N(u), over
// (d choose 2). marks is scratch: it marks v's neighbours.
//
// Lists are sorted, so the later neighbours of u are exactly the marked nodes
// of N(u) in (u, last neighbour of v]. That slice is scanned against the marks
// unless binary-searching each later neighbour in it is cheaper; both count
// the same set, so C does not depend on the choice.
func (g *Graph) localClustering(v NodeID, marks *stamp.Table) float64 {
	nb := g.Neighbors(v)
	// Self-loops would distort the neighbor-pair count; drop v itself. Lists
	// are deduplicated, so v appears at most once.
	d := len(nb)
	if _, self := slices.BinarySearch(nb, v); self {
		d--
	}
	if d < 2 {
		return 0
	}
	cells, ep := marks.Begin(g.NumNodes())
	for _, u := range nb {
		if u != v {
			cells[u] = stamp.Cell{Epoch: ep}
		}
	}
	last := nb[len(nb)-1]
	links, later := 0, d
	for k, u := range nb {
		if u == v {
			continue
		}
		later--
		un := g.Neighbors(u)
		lo, _ := slices.BinarySearch(un, u+1)
		hi, _ := slices.BinarySearch(un, last+1)
		un = un[lo:hi]
		if len(un) > later*bits.Len(uint(len(un))) {
			for _, w := range nb[k+1:] {
				if _, ok := slices.BinarySearch(un, w); ok && w != v {
					links++
				}
			}
			continue
		}
		for _, w := range un {
			if cells[w].Epoch == ep {
				links++
			}
		}
	}
	return 2 * float64(links) / float64(d*(d-1))
}

// PowerLawAlpha fits the discrete power-law exponent alpha of the degree
// distribution by maximum likelihood over degrees >= dmin (Clauset et al.'s
// continuous approximation alpha = 1 + n / sum ln(d / (dmin - 0.5))).
// It returns alpha and the number of tail nodes used. Graphs with no node of
// degree >= dmin return (0, 0).
func (g *Graph) PowerLawAlpha(dmin int) (alpha float64, tail int) {
	if dmin < 1 {
		dmin = 1
	}
	sum := 0.0
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(NodeID(v))
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			tail++
		}
	}
	if tail == 0 || sum == 0 {
		return 0, 0
	}
	return 1 + float64(tail)/sum, tail
}

// IsPowerLaw reports whether the degree distribution has the heavy tail that
// triggers bucket explosion. The heuristic mirrors what Figure 1 of the paper
// shows: a power-law graph concentrates most nodes at low degrees while its
// maximum degree is far above the mean. We require max degree >= tailRatio x
// avg degree and a tail-fitted alpha in a loose (1.2, 8) band.
func (g *Graph) IsPowerLaw() bool {
	avg := g.AvgDegree()
	if avg == 0 {
		return false
	}
	const tailRatio = 8
	if float64(g.MaxDegree()) < tailRatio*avg {
		return false
	}
	// Fit the exponent on the tail only (degrees above twice the mean):
	// real graphs are power law in the tail while their bulk can follow any
	// shape, and it is the tail that causes bucket explosion.
	dmin := int(2 * avg)
	if dmin < 2 {
		dmin = 2
	}
	alpha, tail := g.PowerLawAlpha(dmin)
	return tail >= g.NumNodes()/200 && alpha > 1.2 && alpha < 8
}

// Stats bundles the Table II characteristics of a graph.
type Stats struct {
	Nodes       int
	Edges       int64   // directed adjacency entries (2x undirected edges)
	AvgDegree   float64 // mean in-neighbor count
	AvgCoef     float64 // average local clustering coefficient
	MaxDegree   int
	PowerLaw    bool
	PowerAlpha  float64
	CoefSamples int // 0 means exact
}

// ComputeStats gathers the Table II characteristics. coefSamples bounds the
// clustering-coefficient estimation cost; pass 0 to compute it exactly.
func (g *Graph) ComputeStats(seed int64, coefSamples int) Stats {
	s := Stats{
		Nodes:       g.NumNodes(),
		Edges:       g.NumEdges(),
		AvgDegree:   g.AvgDegree(),
		MaxDegree:   g.MaxDegree(),
		PowerLaw:    g.IsPowerLaw(),
		CoefSamples: coefSamples,
	}
	s.AvgCoef = g.ApproxClusteringCoefficient(seed, coefSamples)
	dmin := int(s.AvgDegree)
	if dmin < 2 {
		dmin = 2
	}
	s.PowerAlpha, _ = g.PowerLawAlpha(dmin)
	return s
}
