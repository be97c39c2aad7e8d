package pipeline

import (
	"math/bits"
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
// Eviction is LRU refined by degree: the victim is the least recently used
// entry of the lowest resident degree, and a candidate may only displace
// victims of equal or lower degree. Low-degree churn therefore cannot evict
// a hub, while among equal-degree entries the cache degrades to plain LRU.
// An entry keeps the degree it was first admitted with. Every access is a
// distinct instant, so no two entries share a last use and the order needs
// no tie-break: a run's hit sequence is deterministic.
//
// Every access costs O(1) per row. Entries live in a slab of at most
// budget/rowBytes slots; a dense node→slot table finds them; each degree
// keeps its entries on an intrusive doubly-linked list in last-use order
// (oldest at the head), and a bitset of non-empty degrees finds the lowest.
// The victim is the head of that degree's list.
//
// The cache tracks occupancy in bytes against a fixed budget; the caller is
// expected to charge that budget to the device ledger once, up front, so
// the scheduler's headroom shrinks by exactly the reserved amount. All
// methods are safe for concurrent use (the prefetch stage mutates while the
// training loop reads stats); the internal lock guards pure in-memory state
// only — no device-ledger call ever happens under it.
type FeatureCache struct {
	mu       sync.Mutex
	rowBytes int64
	capacity int // rows the budget holds; 0 when nothing can be admitted

	slots      []cacheSlot // resident entries: len(slots) is the entry count
	where      []int32     // where[id] is node id's slot + 1; 0 when not resident
	head, tail []int32     // per degree: its list's oldest and newest slot
	nonEmpty   []uint64    // bit d is set iff degree d's list is non-empty
	low        int         // no word of nonEmpty below this index is non-zero

	hits, misses, evictions int64

	// Mirrors into an obs registry, when one was supplied (all nil-safe).
	hitsC, missesC, evictionsC *obs.Counter
	entriesG, usedG            *obs.Gauge
}

// cacheSlot is one resident entry, linked into its degree's list by slot
// index (-1 ends the list).
type cacheSlot struct {
	id         graph.NodeID
	degree     int32
	prev, next int32
}

// NewFeatureCache builds a cache over feature rows of rowBytes bytes each,
// holding at most budget bytes. A nil metrics registry disables counters. A
// budget smaller than one row yields a valid cache that never admits.
func NewFeatureCache(budget, rowBytes int64, m *obs.Metrics) *FeatureCache {
	c := &FeatureCache{rowBytes: rowBytes}
	if rowBytes > 0 && rowBytes <= budget {
		c.capacity = int(budget / rowBytes)
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
	if s := c.slotOf(id); s >= 0 {
		c.touch(s)
		c.hits++
		c.hitsC.Add(1)
		return true
	}
	c.misses++
	c.missesC.Add(1)
	return false
}

// Admit offers node id (with the given graph degree) for residency after a
// miss, evicting the lowest-degree least recently used entry if the cache
// is full. It reports whether the row was admitted; admission fails when the
// row cannot fit without displacing a strictly higher-degree entry,
// preserving hubs against churn. Admitting an already-resident node only
// refreshes it.
func (c *FeatureCache) Admit(id graph.NodeID, degree int) bool {
	if c.capacity == 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if s := c.slotOf(id); s >= 0 {
		c.touch(s)
		return true
	}
	ev := c.evictions
	if !c.insert(id, degree) {
		return false
	}
	c.publish(0, 0, c.evictions-ev)
	return true
}

// Probe stages one micro-batch's input rows: each id is looked up and, on a
// miss, offered for admission with its degree in g — Lookup then Admit per
// row, in order — under one lock acquisition, with the registry updated once
// per call. It returns the number of misses, the rows that must be copied.
func (c *FeatureCache) Probe(ids []graph.NodeID, g *graph.Graph) (misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ev := c.evictions
	for _, id := range ids {
		if s := c.slotOf(id); s >= 0 {
			c.touch(s)
			continue
		}
		misses++
		if c.capacity > 0 {
			c.insert(id, g.Degree(id))
		}
	}
	hits := int64(len(ids)) - misses
	c.hits += hits
	c.misses += misses
	c.publish(hits, misses, c.evictions-ev)
	return misses
}

// publish mirrors counter deltas and the occupancy gauges into the
// registry. Callers hold c.mu, so the gauges never go stale.
func (c *FeatureCache) publish(hits, misses, evictions int64) {
	c.hitsC.Add(hits)
	c.missesC.Add(misses)
	c.evictionsC.Add(evictions)
	c.entriesG.Set(int64(len(c.slots)))
	c.usedG.Set(int64(len(c.slots)) * c.rowBytes)
}

// slotOf returns node id's slot, or -1 when it is not resident.
func (c *FeatureCache) slotOf(id graph.NodeID) int32 {
	if uint(id) < uint(len(c.where)) {
		return c.where[id] - 1
	}
	return -1
}

// insert admits a non-resident node (c.capacity > 0), evicting the head of
// the lowest non-empty degree list when the cache is full, unless that
// victim's degree exceeds the candidate's.
func (c *FeatureCache) insert(id graph.NodeID, degree int) bool {
	var s int32
	if len(c.slots) < c.capacity {
		s = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{})
	} else {
		d := c.lowestDegree()
		if d > degree {
			return false
		}
		s = c.head[d]
		c.unlink(s)
		c.where[c.slots[s].id] = 0
		c.evictions++
	}
	c.slots[s] = cacheSlot{id: id, degree: int32(degree)}
	if int(id) >= len(c.where) {
		c.where = append(c.where, make([]int32, int(id)+1-len(c.where))...)
	}
	c.where[id] = s + 1
	c.pushTail(s)
	return true
}

// touch makes slot s the most recently used entry of its degree.
func (c *FeatureCache) touch(s int32) {
	if c.tail[c.slots[s].degree] != s {
		c.unlink(s)
		c.pushTail(s)
	}
}

// pushTail appends slot s to its degree's list as the newest entry.
func (c *FeatureCache) pushTail(s int32) {
	d := int(c.slots[s].degree)
	if d >= len(c.head) {
		c.head = append(c.head, make([]int32, d+1-len(c.head))...)
		c.tail = append(c.tail, make([]int32, d+1-len(c.tail))...)
	}
	w := d >> 6
	if w >= len(c.nonEmpty) {
		c.nonEmpty = append(c.nonEmpty, make([]uint64, w+1-len(c.nonEmpty))...)
	}
	e := &c.slots[s]
	e.next = -1
	if c.nonEmpty[w]&(1<<(d&63)) == 0 {
		e.prev = -1
		c.head[d] = s
		c.nonEmpty[w] |= 1 << (d & 63)
		c.low = min(c.low, w)
	} else {
		e.prev = c.tail[d]
		c.slots[e.prev].next = s
	}
	c.tail[d] = s
}

// unlink removes slot s from its degree's list, clearing the degree's bit
// when the list empties.
func (c *FeatureCache) unlink(s int32) {
	e := &c.slots[s]
	d := int(e.degree)
	if e.prev >= 0 {
		c.slots[e.prev].next = e.next
	} else {
		c.head[d] = e.next
	}
	if e.next >= 0 {
		c.slots[e.next].prev = e.prev
	} else {
		c.tail[d] = e.prev
	}
	if c.head[d] < 0 {
		c.nonEmpty[d>>6] &^= 1 << (d & 63)
	}
}

// lowestDegree returns the lowest degree with a resident entry; the cache
// must not be empty.
func (c *FeatureCache) lowestDegree() int {
	for c.nonEmpty[c.low] == 0 {
		c.low++
	}
	return c.low<<6 | bits.TrailingZeros64(c.nonEmpty[c.low])
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
		Entries:   len(c.slots),
		UsedBytes: int64(len(c.slots)) * c.rowBytes,
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
