package graph

import (
	"math"
	"sync"
)

// localDegreeFactor sets which edges the locality order walks: an edge is
// local when both endpoints have degree at most this multiple of the graph's
// mean degree. Power-law graphs hang their long-range shortcuts off hubs, so
// dropping hub edges leaves the short-range structure the order should
// follow. On the arxiv-shaped generator (mean degree 12.7, 512-seed batches
// under a 12 MB device), cut-offs from 3.2x to 6.4x the mean degree give the
// same mean K within 1% (3.41-3.44); 2x and 10x give 3.49 and 3.48, and
// walking every edge 3.71.
const localDegreeFactor = 4

// locality is the graph's lazily computed locality order (see Locality).
type locality struct {
	once  sync.Once
	rank  []int32
	order []NodeID
}

// Locality returns the graph's locality order: order lists every node once,
// nodes close in the graph close together, and rank is its inverse
// (order[rank[v]] == v). The order is computed on first use, once per graph,
// and is safe to request from several goroutines. Both slices alias the
// graph's storage and must not be modified.
//
// The order is a breadth-first search over the local edges (see
// localDegreeFactor), one component at a time, each started from a
// pseudo-peripheral node found by two sweeps, and nodes take their visit
// order. A node the search does not reach (a hub) goes right after the median
// of its reached neighbours, or after every reached node when it has none.
func (g *Graph) Locality() (rank []int32, order []NodeID) {
	g.loc.once.Do(g.computeLocality)
	return g.loc.rank, g.loc.order
}

func (g *Graph) computeLocality() {
	n := g.NumNodes()
	w := localWalk{g: g, mark: make([]int32, n), queue: make([]NodeID, n)}
	// A hub is marked visited by every search, so searches walk local edges
	// only.
	for v := range w.mark {
		if int64(g.Degree(NodeID(v)))*int64(n) > localDegreeFactor*g.NumEdges() {
			w.mark[v] = hub
		}
	}
	// key[v] is twice v's position in the searches' visit order, or, for a
	// hub, twice its neighbours' median position plus one: so it sorts right
	// after that neighbour.
	key := make([]int32, n)
	for v := range key {
		key[v] = -1
	}
	placed := int32(0)
	for v, m := range w.mark {
		if m == hub || key[v] >= 0 {
			continue
		}
		for _, u := range w.search(w.sweep(w.sweep(NodeID(v)))) {
			key[u] = 2 * placed
			placed++
		}
	}
	var nbrPos []int32
	for v := range key {
		if key[v] >= 0 {
			continue
		}
		nbrPos = nbrPos[:0]
		for _, u := range g.Neighbors(NodeID(v)) {
			if w.mark[u] != hub {
				nbrPos = append(nbrPos, key[u]/2)
			}
		}
		if len(nbrPos) == 0 {
			key[v] = 2 * int32(n)
			continue
		}
		key[v] = 2*nth(nbrPos, (len(nbrPos)-1)/2) + 1
	}
	// A counting sort over the keys, ties in node order, makes the ranks
	// dense.
	count := make([]int32, 2*n+2)
	for _, k := range key {
		count[k+1]++
	}
	for i := 1; i < len(count); i++ {
		count[i] += count[i-1]
	}
	rank := make([]int32, n)
	order := make([]NodeID, n)
	for v, k := range key {
		r := count[k]
		count[k]++
		rank[v] = r
		order[r] = NodeID(v)
	}
	g.loc.rank, g.loc.order = rank, order
}

// nth returns the element a sorted a would hold at index k, reordering a:
// Hoare's selection, which takes linear time where sorting a hub's
// neighbour list would not.
func nth(a []int32, k int) int32 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// hub marks a node the locality order's searches never enter.
const hub = math.MaxInt32

// localWalk is the breadth-first search the locality order runs over local
// edges. mark[v] >= epoch marks v visited by the current search, so each
// search starts without clearing, and a hub is always visited; queue holds
// the search's nodes in visit order.
type localWalk struct {
	g     *Graph
	mark  []int32
	epoch int32
	queue []NodeID
}

// search runs one breadth-first search from start over local edges and
// returns the nodes it visited, in visit order.
func (w *localWalk) search(start NodeID) []NodeID {
	w.epoch++
	w.queue[0] = start
	w.mark[start] = w.epoch
	tail := 1
	for i := 0; i < tail; i++ {
		for _, u := range w.g.Neighbors(w.queue[i]) {
			if w.mark[u] < w.epoch {
				w.mark[u] = w.epoch
				w.queue[tail] = u
				tail++
			}
		}
	}
	return w.queue[:tail]
}

// sweep returns the last node a search from start visits: a node of
// greatest distance from start.
func (w *localWalk) sweep(start NodeID) NodeID {
	visited := w.search(start)
	return visited[len(visited)-1]
}
