package pipeline

import (
	"container/heap"
	"sync"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
)

// FeatureCache models a GPU-resident feature-row cache with degree-aware
// admission, after the observation (GNNLab, BGL) that under neighbor
// sampling a node's expected access frequency grows with its degree: hub
// nodes recur in almost every sampled batch, so pinning their feature rows
// converts the heaviest share of H2D traffic into cache hits.
//
// Eviction is LRU refined by degree: the victim is the entry with the
// lowest (degree, last-use) rank, and a candidate may only displace victims
// of equal or lower degree. Low-degree churn therefore cannot evict a hub,
// while among equal-degree entries the cache degrades to plain LRU. All
// ordering ties break on node ID, so a run's hit sequence is deterministic.
//
// The cache tracks occupancy in bytes against a fixed budget; the caller is
// expected to charge that budget to the device ledger once, up front, so
// the scheduler's headroom shrinks by exactly the reserved amount. All
// methods are safe for concurrent use (the prefetch stage mutates while the
// training loop reads stats); the internal lock guards pure in-memory state
// only — no device-ledger call ever happens under it.
type FeatureCache struct {
	mu       sync.Mutex
	budget   int64
	rowBytes int64

	entries map[graph.NodeID]*cacheEntry
	pq      victimHeap
	free    []*cacheEntry // evicted entry structs, recycled by Admit
	used    int64
	tick    int64 // logical clock for last-use ordering

	hits, misses, evictions int64

	// Mirrors into an obs registry, when one was supplied (all nil-safe).
	hitsC, missesC, evictionsC *obs.Counter
	entriesG, usedG            *obs.Gauge
}

type cacheEntry struct {
	id      graph.NodeID
	degree  int
	lastUse int64
	index   int // heap position
}

// victimHeap orders entries by eviction priority: lowest degree first, then
// least recently used, then lowest node ID. The root is always the next
// victim.
type victimHeap []*cacheEntry

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
	e := x.(*cacheEntry)
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

// NewFeatureCache builds a cache over feature rows of rowBytes bytes each,
// holding at most budget bytes. A nil metrics registry disables counters. A
// budget smaller than one row yields a valid cache that never admits.
func NewFeatureCache(budget, rowBytes int64, m *obs.Metrics) *FeatureCache {
	c := &FeatureCache{
		budget:   budget,
		rowBytes: rowBytes,
		entries:  make(map[graph.NodeID]*cacheEntry),
	}
	if m != nil {
		c.hitsC = m.Counter("pipeline/cache/hits")
		c.missesC = m.Counter("pipeline/cache/misses")
		c.evictionsC = m.Counter("pipeline/cache/evictions")
		c.entriesG = m.Gauge("pipeline/cache/entries")
		c.usedG = m.Gauge("pipeline/cache/used_bytes")
	}
	return c
}

// Lookup reports whether node id's feature row is resident, counting the
// access and refreshing the entry's recency on a hit.
func (c *FeatureCache) Lookup(id graph.NodeID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e, ok := c.entries[id]; ok {
		e.lastUse = c.tick
		heap.Fix(&c.pq, e.index)
		c.hits++
		c.hitsC.Add(1)
		return true
	}
	c.misses++
	c.missesC.Add(1)
	return false
}

// Admit offers node id (with the given graph degree) for residency after a
// miss, evicting as many equal-or-lower-degree victims as its row needs. It
// reports whether the row was admitted; admission fails when the row cannot
// fit without displacing a strictly higher-degree entry, preserving hubs
// against churn. Admitting an already-resident node only refreshes it.
func (c *FeatureCache) Admit(id graph.NodeID, degree int) bool {
	if c.rowBytes <= 0 || c.rowBytes > c.budget {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
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
		c.free = append(c.free, victim)
		c.used -= c.rowBytes
		c.evictions++
		c.evictionsC.Add(1)
		c.entriesG.Set(int64(len(c.entries)))
		c.usedG.Set(c.used)
	}
	var e *cacheEntry
	if n := len(c.free); n > 0 {
		e = c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		*e = cacheEntry{id: id, degree: degree, lastUse: c.tick}
	} else {
		e = &cacheEntry{id: id, degree: degree, lastUse: c.tick}
	}
	heap.Push(&c.pq, e)
	c.entries[id] = e
	c.used += c.rowBytes
	c.entriesG.Set(int64(len(c.entries)))
	c.usedG.Set(c.used)
	return true
}

// CacheStats is a point-in-time summary of cache effectiveness.
type CacheStats struct {
	Entries   int
	UsedBytes int64
	Hits      int64
	Misses    int64
	Evictions int64
}

// Stats snapshots the cache.
func (c *FeatureCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   len(c.entries),
		UsedBytes: c.used,
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
	}
}

// HitRate reports hits / (hits + misses), or 0 before any lookups.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}
