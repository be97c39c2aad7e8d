package pipeline

import (
	"container/heap"
	"testing"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
)

// heapCache is the reference feature cache FuzzFeatureCacheModel holds
// FeatureCache to: a map from node to entry and a heap ordered by (degree,
// last use, node ID) over a logical clock that every access advances.
type heapCache struct {
	budget   int64
	rowBytes int64

	entries map[graph.NodeID]*heapEntry
	pq      victimHeap
	used    int64
	tick    int64

	hits, misses, evictions int64
}

type heapEntry struct {
	id      graph.NodeID
	degree  int
	lastUse int64
	index   int
}

// victimHeap orders entries by eviction priority: lowest degree first, then
// least recently used, then lowest node ID. The root is the next victim.
type victimHeap []*heapEntry

func (h victimHeap) Len() int { return len(h) }
func (h victimHeap) Less(i, j int) bool {
	if h[i].degree != h[j].degree {
		return h[i].degree < h[j].degree
	}
	if h[i].lastUse != h[j].lastUse {
		return h[i].lastUse < h[j].lastUse
	}
	return h[i].id < h[j].id
}
func (h victimHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *victimHeap) Push(x any) {
	e := x.(*heapEntry)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *victimHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func newHeapCache(budget, rowBytes int64) *heapCache {
	return &heapCache{budget: budget, rowBytes: rowBytes, entries: make(map[graph.NodeID]*heapEntry)}
}

func (c *heapCache) Lookup(id graph.NodeID) bool {
	c.tick++
	if e, ok := c.entries[id]; ok {
		e.lastUse = c.tick
		heap.Fix(&c.pq, e.index)
		c.hits++
		return true
	}
	c.misses++
	return false
}

func (c *heapCache) Admit(id graph.NodeID, degree int) bool {
	if c.rowBytes <= 0 || c.rowBytes > c.budget {
		return false
	}
	c.tick++
	if e, ok := c.entries[id]; ok {
		e.lastUse = c.tick
		heap.Fix(&c.pq, e.index)
		return true
	}
	for c.used+c.rowBytes > c.budget {
		victim := c.pq[0]
		if victim.degree > degree {
			return false
		}
		heap.Pop(&c.pq)
		delete(c.entries, victim.id)
		c.used -= c.rowBytes
		c.evictions++
	}
	e := &heapEntry{id: id, degree: degree, lastUse: c.tick}
	heap.Push(&c.pq, e)
	c.entries[id] = e
	c.used += c.rowBytes
	return true
}

// Probe is FeatureCache.Probe's contract as a per-row loop: Lookup, then
// Admit with the node's degree on a miss.
func (c *heapCache) Probe(ids []graph.NodeID, g *graph.Graph) (misses int64) {
	for _, v := range ids {
		if !c.Lookup(v) {
			misses++
			c.Admit(v, g.Degree(v))
		}
	}
	return misses
}

func (c *heapCache) Stats() CacheStats {
	return CacheStats{
		Entries:   len(c.entries),
		UsedBytes: c.used,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// Node IDs of the fuzz model: a byte below farIDs names one of 48 nearby
// nodes (three hubs, the rest low-degree churn); a byte at or above it names
// a node far beyond them, so the node→slot table has to grow.
const (
	nearIDs = 48
	farIDs  = 240
	farStep = 4096
)

func fuzzID(b byte) graph.NodeID {
	if b < farIDs {
		return graph.NodeID(b % nearIDs)
	}
	return graph.NodeID(int(b-farIDs+1) * farStep)
}

// fuzzGraph gives every fuzz ID a degree: nodes 0–2 are hubs (degree 12,
// 16, 20), every other node has degree id mod 5.
func fuzzGraph() *graph.Graph {
	n := (256-farIDs)*farStep + 1
	nbrs := make([]graph.NodeID, 20)
	for i := range nbrs {
		nbrs[i] = graph.NodeID(i)
	}
	lists := make([][]graph.NodeID, n)
	for v := range lists {
		d := v % 5
		if v < 3 {
			d = 12 + 4*v
		}
		lists[v] = nbrs[:d]
	}
	return graph.FromAdjacency(lists)
}

// registryStats reads a cache's registry mirrors back as CacheStats.
func registryStats(m *obs.Metrics) CacheStats {
	return CacheStats{
		Entries:   int(m.Gauge("pipeline/cache/entries").Value()),
		UsedBytes: m.Gauge("pipeline/cache/used_bytes").Value(),
		Hits:      m.Counter("pipeline/cache/hits").Value(),
		Misses:    m.Counter("pipeline/cache/misses").Value(),
		Evictions: m.Counter("pipeline/cache/evictions").Value(),
	}
}

// FuzzFeatureCacheModel drives a FeatureCache and the heap oracle with the
// same op stream and holds every return value, every Stats() and the
// registry's counters and gauges equal after each op.
//
// Three header bytes size the cache: rowBytes = b0 mod 9 (0 disables
// admission), then b1 mod 17 whole rows plus b2 mod rowBytes spare bytes
// (with rowBytes 0 the budget is b1). Then three bytes per op: kind, x, y.
// Lookup and Admit name node fuzzID(x); Admit passes the node's degree in
// the graph, AdmitOther passes y mod 24 instead (so an entry's first degree
// and a later offer disagree); Probe sends x mod 6 + 1 IDs, fuzzID(x + i·y),
// through one call, repeats included when y is 0.
func FuzzFeatureCacheModel(f *testing.F) {
	const (
		opLookup = iota
		opAdmit
		opAdmitOther
		opProbe
		numOps
	)
	// Hub vs churn: two hubs fill a 2-row cache, churn of degree 1–4 is
	// refused, then an equal-degree hub displaces the lower of the two.
	f.Add([]byte{8, 2, 0,
		opAdmit, 2, 0, opAdmit, 1, 0, opAdmit, 4, 0, opAdmit, 7, 0, opLookup, 1, 0, opLookup, 2, 0,
		opAdmitOther, 9, 16, opLookup, 1, 0, opLookup, 9, 0, opProbe, 5, 1, opProbe, 3, 7})
	// Equal-degree LRU: four degree-1 nodes through a 3-row cache, with a
	// refresh by Lookup and one by Admit of a resident node.
	f.Add([]byte{4, 3, 0,
		opAdmit, 6, 0, opAdmit, 11, 0, opAdmit, 16, 0, opLookup, 6, 0, opAdmit, 21, 0,
		opLookup, 11, 0, opAdmit, 16, 0, opAdmit, 26, 0, opLookup, 6, 0, opLookup, 16, 0, opLookup, 21, 0})
	// A budget that is not a multiple of the row size (2 rows + 5 bytes),
	// churned through Probe with repeats inside one call.
	f.Add([]byte{7, 2, 5,
		opProbe, 5, 0, opProbe, 4, 1, opProbe, 12, 5, opLookup, 12, 0, opProbe, 5, 10, opAdmitOther, 30, 0})
	// A budget below one row: nothing is ever admitted.
	f.Add([]byte{8, 0, 7, opAdmit, 0, 0, opProbe, 5, 1, opLookup, 0, 0, opAdmitOther, 3, 23})
	// rowBytes 0: nothing is ever admitted either.
	f.Add([]byte{0, 9, 0, opAdmit, 0, 0, opProbe, 5, 1, opLookup, 0, 0})
	// IDs far beyond any seen before, mixed with near ones.
	f.Add([]byte{1, 4, 0,
		opAdmit, 3, 0, opAdmit, 255, 0, opProbe, 5, 250, opAdmit, 240, 0, opLookup, 255, 0,
		opAdmitOther, 247, 0, opProbe, 2, 253, opLookup, 240, 0, opLookup, 3, 0})

	g := fuzzGraph()
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		rowBytes := int64(in[0] % 9)
		budget := int64(in[1])
		if rowBytes > 0 {
			budget = rowBytes*int64(in[1]%17) + int64(in[2])%rowBytes
		}
		m := obs.NewMetrics()
		c := NewFeatureCache(budget, rowBytes, m)
		o := newHeapCache(budget, rowBytes)
		var ids []graph.NodeID
		for ops := in[3:]; len(ops) >= 3; ops = ops[3:] {
			x, y := ops[1], ops[2]
			switch ops[0] % numOps {
			case opLookup:
				id := fuzzID(x)
				if got, want := c.Lookup(id), o.Lookup(id); got != want {
					t.Fatalf("Lookup(%d) = %v, oracle %v", id, got, want)
				}
			case opAdmit, opAdmitOther:
				id := fuzzID(x)
				deg := g.Degree(id)
				if ops[0]%numOps == opAdmitOther {
					deg = int(y % 24)
				}
				if got, want := c.Admit(id, deg), o.Admit(id, deg); got != want {
					t.Fatalf("Admit(%d, %d) = %v, oracle %v", id, deg, got, want)
				}
			case opProbe:
				ids = ids[:0]
				for i := 0; i <= int(x%6); i++ {
					ids = append(ids, fuzzID(x+byte(i)*y))
				}
				if got, want := c.Probe(ids, g), o.Probe(ids, g); got != want {
					t.Fatalf("Probe(%v) misses = %d, oracle %d", ids, got, want)
				}
			}
			got, want := c.Stats(), o.Stats()
			if got != want {
				t.Fatalf("after op %d: Stats = %+v, oracle %+v", ops[0]%numOps, got, want)
			}
			if reg := registryStats(m); reg != want {
				t.Fatalf("after op %d: registry = %+v, oracle %+v", ops[0]%numOps, reg, want)
			}
		}
	})
}
