package partition

import (
	"math/rand"
	"slices"
	"testing"
)

// refineScan is the pass refine replaced: before each of up to 400 moves it
// rescans every unmoved node, checks for an edge to the other side and
// recomputes the gain from scratch, keeping the first strictly greater one.
// It stays as the oracle refine's incremental gains are held to.
func refineScan(g *WGraph, side []int, targetFrac float64) {
	n := g.NumNodes()
	total := g.TotalNodeWeight()
	target0 := int64(targetFrac * float64(total))
	tolerance := total/20 + 1

	weight0 := int64(0)
	for v := 0; v < n; v++ {
		if side[v] == 0 {
			weight0 += g.NodeWeight[v]
		}
	}
	gain := func(v int) int64 {
		var internal, external int64
		for _, e := range g.Adj[v] {
			if side[e.To] == side[v] {
				internal += e.Weight
			} else {
				external += e.Weight
			}
		}
		return external - internal
	}
	moved := make([]bool, n)
	type move struct {
		v        int
		cumGain  int64
		balanced bool
	}
	var moves []move
	var cum int64
	passes := n
	if passes > 400 {
		passes = 400
	}
	for step := 0; step < passes; step++ {
		bestV, bestG := -1, int64(-1<<62)
		for v := 0; v < n; v++ {
			if moved[v] {
				continue
			}
			// Only consider boundary nodes (others cannot improve the cut).
			onBoundary := false
			for _, e := range g.Adj[v] {
				if side[e.To] != side[v] {
					onBoundary = true
					break
				}
			}
			if !onBoundary {
				continue
			}
			if gv := gain(v); gv > bestG {
				bestG = gv
				bestV = v
			}
		}
		if bestV < 0 {
			break
		}
		moved[bestV] = true
		if side[bestV] == 0 {
			weight0 -= g.NodeWeight[bestV]
			side[bestV] = 1
		} else {
			weight0 += g.NodeWeight[bestV]
			side[bestV] = 0
		}
		cum += bestG
		balanced := weight0 >= target0-tolerance && weight0 <= target0+tolerance
		moves = append(moves, move{v: bestV, cumGain: cum, balanced: balanced})
	}
	// Keep the best balanced prefix; roll back the rest.
	bestIdx := -1
	var bestGain int64 = 0
	for i, m := range moves {
		if m.balanced && m.cumGain >= bestGain {
			bestGain = m.cumGain
			bestIdx = i
		}
	}
	for i := len(moves) - 1; i > bestIdx; i-- {
		v := moves[i].v
		side[v] = 1 - side[v]
	}
}

// TestRefineMatchesScan holds refine to the rescanning oracle on 400 random
// weighted graphs: sizes past the 400-move cap, unit weights (every gain a
// tie), zero-weight edges (boundary nodes whose gain a move leaves alone),
// isolated nodes, hubs, and starting sides from a random split or from
// growPartition.
func TestRefineMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(700)
		g := NewWGraph(n)
		maxW := int64(1 + rng.Intn(4)) // 1: unit weights, every gain tie-prone
		edges := rng.Intn(4*n + 1)
		for e := 0; e < edges; e++ {
			u := rng.Intn(n)
			v := (u + 1 + rng.Intn(1+rng.Intn(n))) % n
			w := 1 + rng.Int63n(maxW)
			if rng.Intn(20) == 0 {
				w = 0
			}
			g.AddEdge(int32(u), int32(v), w)
		}
		for hubs := rng.Intn(3); hubs > 0; hubs-- {
			h := int32(rng.Intn(n))
			for v := 0; v < n; v += 1 + rng.Intn(5) {
				g.AddEdge(h, int32(v), 1+rng.Int63n(maxW))
			}
		}
		if rng.Intn(2) == 0 {
			for v := range g.NodeWeight {
				g.NodeWeight[v] = 1 + rng.Int63n(4)
			}
		}
		targetFrac := []float64{0.5, 1.0 / 3, 0.25, rng.Float64()}[rng.Intn(4)]
		var side []int
		if rng.Intn(2) == 0 {
			side = growPartition(g, targetFrac, rng)
		} else {
			side = make([]int, n)
			for v := range side {
				side[v] = rng.Intn(2)
			}
		}
		want := slices.Clone(side)
		refineScan(g, want, targetFrac)
		refine(g, side, targetFrac)
		if !slices.Equal(side, want) {
			t.Fatalf("trial %d (n %d, %d edges, max weight %d, target %.3f): refine left sides %v, the scan %v",
				trial, n, edges, maxW, targetFrac, side, want)
		}
	}
}
