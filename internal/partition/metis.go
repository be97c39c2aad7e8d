// Package partition implements the output-node partition strategies the
// paper compares in Fig 16 — Random, Range and METIS — plus the multilevel
// k-way partitioner itself, built from scratch: heavy-edge-matching
// coarsening, greedy region-growing initial bisection, boundary
// Kernighan-Lin refinement, and recursive bisection for k-way.
package partition

import (
	"fmt"
	"math/rand"
)

// WGraph is a weighted undirected graph in adjacency-list form, the input
// to the multilevel partitioner. Nodes carry weights (aggregate of collapsed
// nodes during coarsening); edges carry weights (collapsed multi-edges).
type WGraph struct {
	NodeWeight []int64
	Adj        [][]WEdge
}

// WEdge is one weighted adjacency entry.
type WEdge struct {
	To     int32
	Weight int64
}

// NewWGraph builds a weighted graph with n unit-weight nodes and no edges.
func NewWGraph(n int) *WGraph {
	w := &WGraph{NodeWeight: make([]int64, n), Adj: make([][]WEdge, n)}
	for i := range w.NodeWeight {
		w.NodeWeight[i] = 1
	}
	return w
}

// AddEdge inserts an undirected weighted edge (accumulating weight onto an
// existing edge if present).
func (g *WGraph) AddEdge(u, v int32, weight int64) {
	if u == v {
		return
	}
	g.addHalf(u, v, weight)
	g.addHalf(v, u, weight)
}

func (g *WGraph) addHalf(u, v int32, weight int64) {
	for i := range g.Adj[u] {
		if g.Adj[u][i].To == v {
			g.Adj[u][i].Weight += weight
			return
		}
	}
	g.Adj[u] = append(g.Adj[u], WEdge{To: v, Weight: weight})
}

// NumNodes reports the node count.
func (g *WGraph) NumNodes() int { return len(g.NodeWeight) }

// TotalNodeWeight sums all node weights.
func (g *WGraph) TotalNodeWeight() int64 {
	var t int64
	for _, w := range g.NodeWeight {
		t += w
	}
	return t
}

// KWay partitions g into k parts of near-equal node weight while minimizing
// edge cut, via recursive multilevel bisection. It returns part[v] in [0,k).
func KWay(g *WGraph, k int, seed int64) ([]int, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	part := make([]int, g.NumNodes())
	if k == 1 {
		return part, nil
	}
	rng := rand.New(rand.NewSource(seed))
	nodes := make([]int32, g.NumNodes())
	for i := range nodes {
		nodes[i] = int32(i)
	}
	if err := recursiveBisect(g, nodes, k, 0, part, rng); err != nil {
		return nil, err
	}
	return part, nil
}

// recursiveBisect splits the induced subgraph over nodes into k parts,
// assigning part ids starting at base.
func recursiveBisect(g *WGraph, nodes []int32, k, base int, part []int, rng *rand.Rand) error {
	if k == 1 {
		for _, v := range nodes {
			part[v] = base
		}
		return nil
	}
	kLeft := k / 2
	targetFrac := float64(kLeft) / float64(k)
	sub, origID := induceW(g, nodes)
	side := bisect(sub, targetFrac, rng)
	var left, right []int32
	for i, s := range side {
		if s == 0 {
			left = append(left, origID[i])
		} else {
			right = append(right, origID[i])
		}
	}
	// Degenerate splits (possible on edgeless or tiny graphs): rebalance by
	// node count.
	if len(left) == 0 || len(right) == 0 {
		all := append(append([]int32(nil), left...), right...)
		cut := len(all) * kLeft / k
		if cut == 0 {
			cut = 1
		}
		if cut >= len(all) {
			cut = len(all) - 1
		}
		left, right = all[:cut], all[cut:]
	}
	if err := recursiveBisect(g, left, kLeft, base, part, rng); err != nil {
		return err
	}
	return recursiveBisect(g, right, k-kLeft, base+kLeft, part, rng)
}

// induceW extracts the induced weighted subgraph over nodes.
func induceW(g *WGraph, nodes []int32) (*WGraph, []int32) {
	remap := make(map[int32]int32, len(nodes))
	for i, v := range nodes {
		remap[v] = int32(i)
	}
	sub := NewWGraph(len(nodes))
	for i, v := range nodes {
		sub.NodeWeight[i] = g.NodeWeight[v]
		for _, e := range g.Adj[v] {
			if nu, ok := remap[e.To]; ok && nu > int32(i) {
				sub.AddEdge(int32(i), nu, e.Weight)
			}
		}
	}
	return sub, append([]int32(nil), nodes...)
}

// bisect runs the multilevel pipeline on g: coarsen, initial partition,
// uncoarsen with refinement. targetFrac is side 0's node-weight share.
func bisect(g *WGraph, targetFrac float64, rng *rand.Rand) []int {
	const coarsestSize = 64
	if g.NumNodes() <= coarsestSize {
		side := growPartition(g, targetFrac, rng)
		refine(g, side, targetFrac)
		return side
	}
	coarse, cmap := coarsen(g, rng)
	if coarse.NumNodes() >= g.NumNodes() {
		// Matching made no progress (e.g. edgeless graph): partition directly.
		side := growPartition(g, targetFrac, rng)
		refine(g, side, targetFrac)
		return side
	}
	coarseSide := bisect(coarse, targetFrac, rng)
	// Project to the finer graph and refine.
	side := make([]int, g.NumNodes())
	for v := range side {
		side[v] = coarseSide[cmap[v]]
	}
	refine(g, side, targetFrac)
	return side
}

// coarsen contracts a heavy-edge matching: each unmatched node matches its
// heaviest-edge unmatched neighbor; matched pairs collapse into one coarse
// node with summed weights.
func coarsen(g *WGraph, rng *rand.Rand) (*WGraph, []int32) {
	n := g.NumNodes()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	for _, vi := range order {
		v := int32(vi)
		if match[v] >= 0 {
			continue
		}
		var best int32 = -1
		var bestW int64 = -1
		for _, e := range g.Adj[v] {
			if match[e.To] < 0 && e.To != v && e.Weight > bestW {
				best = e.To
				bestW = e.Weight
			}
		}
		if best >= 0 {
			match[v] = best
			match[best] = v
		} else {
			match[v] = v
		}
	}
	cmap := make([]int32, n)
	next := int32(0)
	for v := 0; v < n; v++ {
		if int32(v) <= match[v] {
			cmap[v] = next
			if match[v] != int32(v) {
				cmap[match[v]] = next
			}
			next++
		}
	}
	coarse := NewWGraph(int(next))
	for i := range coarse.NodeWeight {
		coarse.NodeWeight[i] = 0
	}
	for v := 0; v < n; v++ {
		coarse.NodeWeight[cmap[v]] += g.NodeWeight[v]
		for _, e := range g.Adj[v] {
			if int32(v) < e.To && cmap[v] != cmap[e.To] {
				coarse.AddEdge(cmap[v], cmap[e.To], e.Weight)
			}
		}
	}
	return coarse, cmap
}

// growPartition seeds side 0 from a random node and grows it BFS-greedily
// until it holds targetFrac of the node weight; everything else is side 1.
func growPartition(g *WGraph, targetFrac float64, rng *rand.Rand) []int {
	n := g.NumNodes()
	side := make([]int, n)
	for i := range side {
		side[i] = 1
	}
	if n == 0 {
		return side
	}
	target := int64(targetFrac * float64(g.TotalNodeWeight()))
	if target < 1 {
		target = 1
	}
	var grown int64
	visited := make([]bool, n)
	queue := []int32{int32(rng.Intn(n))}
	visited[queue[0]] = true
	for grown < target {
		if len(queue) == 0 {
			// Disconnected: jump to any unvisited node.
			jump := int32(-1)
			for v := 0; v < n; v++ {
				if !visited[v] {
					jump = int32(v)
					break
				}
			}
			if jump < 0 {
				break
			}
			visited[jump] = true
			queue = append(queue, jump)
		}
		v := queue[0]
		queue = queue[1:]
		side[v] = 0
		grown += g.NodeWeight[v]
		for _, e := range g.Adj[v] {
			if !visited[e.To] {
				visited[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	return side
}

// refine runs one boundary Kernighan-Lin pass: repeatedly move the boundary
// node with the best cut gain to the other side, respecting a balance
// tolerance, and keep the best prefix of moves.
func refine(g *WGraph, side []int, targetFrac float64) {
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
