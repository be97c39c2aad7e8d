package pipeline

import (
	"sync"
	"testing"

	"buffalo/internal/graph"
	"buffalo/internal/obs"
)

// TestCacheDegreeAwareAdmission: hubs survive low-degree churn. A full cache
// refuses candidates whose degree is below every resident entry's, and a
// high-degree candidate evicts the lowest-(degree, recency) victim.
func TestCacheDegreeAwareAdmission(t *testing.T) {
	m := obs.NewMetrics()
	c := NewFeatureCache(2*64, 64, m) // room for exactly 2 rows
	if !c.Admit(10, 100) || !c.Admit(11, 90) {
		t.Fatal("admitting into an empty cache must succeed")
	}
	// A low-degree node cannot displace either hub.
	if c.Admit(1, 3) {
		t.Fatal("degree-3 candidate displaced a degree-90 resident")
	}
	if !c.Lookup(10) || !c.Lookup(11) {
		t.Fatal("hubs evicted by low-degree churn")
	}
	// An equal-degree candidate displaces the least recently used of the
	// lowest-degree residents: node 11 (degree 90, older than nothing —
	// lowest degree tier), despite node 10 being touched less recently.
	if !c.Admit(12, 90) {
		t.Fatal("equal-degree candidate must be admitted")
	}
	if c.Lookup(11) {
		t.Fatal("victim should have been node 11 (lowest degree tier)")
	}
	if !c.Lookup(10) || !c.Lookup(12) {
		t.Fatal("wrong victim chosen")
	}
	st := c.Stats()
	if st.Entries != 2 || st.UsedBytes != 128 || st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestCacheLRUWithinDegreeTier: among equal-degree entries the cache is
// plain LRU. Every access is a distinct instant, so recency never ties and
// the whole ordering is deterministic.
func TestCacheLRUWithinDegreeTier(t *testing.T) {
	c := NewFeatureCache(3*8, 8, nil)
	for _, id := range []int32{1, 2, 3} {
		c.Admit(id, 5)
	}
	c.Lookup(1) // refresh 1; LRU order now 2, 3, 1
	if !c.Admit(4, 5) {
		t.Fatal("equal-degree admission failed")
	}
	if c.Lookup(2) {
		t.Fatal("node 2 was LRU and should have been evicted")
	}
	for _, id := range []int32{1, 3, 4} {
		if !c.Lookup(id) {
			t.Fatalf("node %d wrongly evicted", id)
		}
	}
}

// TestCacheHitMissCounters: Lookup drives the hit/miss counters and HitRate.
func TestCacheHitMissCounters(t *testing.T) {
	m := obs.NewMetrics()
	c := NewFeatureCache(64, 64, m)
	if c.Lookup(7) {
		t.Fatal("hit on empty cache")
	}
	c.Admit(7, 1)
	if !c.Lookup(7) || !c.Lookup(7) {
		t.Fatal("resident node missed")
	}
	if got := c.Stats().HitRate(); got != 2.0/3.0 {
		t.Fatalf("hit rate = %v, want 2/3", got)
	}
	if m.Counter("pipeline/cache/hits").Value() != 2 ||
		m.Counter("pipeline/cache/misses").Value() != 1 {
		t.Fatal("registry counters do not match lookups")
	}
	if m.Gauge("pipeline/cache/entries").Value() != 1 {
		t.Fatal("entries gauge not maintained")
	}
}

// TestCacheDegenerateBudgets: a budget below one row never admits, and a
// zero row size is rejected outright.
func TestCacheDegenerateBudgets(t *testing.T) {
	if c := NewFeatureCache(7, 8, nil); c.Admit(1, 100) {
		t.Fatal("admitted a row larger than the whole budget")
	}
	if c := NewFeatureCache(64, 0, nil); c.Admit(1, 100) {
		t.Fatal("admitted with zero row size")
	}
}

// TestCacheReadmitRefreshes: admitting a resident node is a refresh, not a
// duplicate — occupancy is unchanged and its recency advances.
func TestCacheReadmitRefreshes(t *testing.T) {
	c := NewFeatureCache(2*8, 8, nil)
	c.Admit(1, 5)
	c.Admit(2, 5)
	c.Admit(1, 5) // refresh: LRU order is now 2, 1
	if got := c.Stats(); got.Entries != 2 || got.UsedBytes != 16 {
		t.Fatalf("readmit changed occupancy: %+v", got)
	}
	c.Admit(3, 5)
	if c.Lookup(2) {
		t.Fatal("node 2 should have been the LRU victim after 1's refresh")
	}
	if !c.Lookup(1) {
		t.Fatal("refreshed node evicted")
	}
}

// TestFeatureCacheProbeWarmAllocs: once the slab, the node→slot table and
// the degree lists have grown, a Probe allocates nothing, admissions and
// evictions included. The input churns 100 nodes through 64 rows, so every
// warm call evicts.
func TestFeatureCacheProbeWarmAllocs(t *testing.T) {
	g := fuzzGraph()
	var ids []graph.NodeID
	for v := 0; v < 100; v++ {
		ids = append(ids, graph.NodeID(v), graph.NodeID(v%3))
	}
	c := NewFeatureCache(64*16, 16, obs.NewMetrics())
	c.Probe(ids, g)
	c.Probe(ids, g)
	before := c.Stats().Evictions
	if allocs := testing.AllocsPerRun(100, func() { c.Probe(ids, g) }); allocs != 0 {
		t.Fatalf("warm Probe allocates %v times per call, want 0", allocs)
	}
	if c.Stats().Evictions == before {
		t.Fatal("warm Probes evicted nothing; the test would not cover admission")
	}
}

// TestFeatureCacheConcurrentProbes: probes, lookups and admissions from
// several goroutines (the prefetch stage and the stats readers) keep the
// counters whole and the registry equal to Stats.
func TestFeatureCacheConcurrentProbes(t *testing.T) {
	g := fuzzGraph()
	m := obs.NewMetrics()
	c := NewFeatureCache(32*16, 16, m)
	const workers, rounds = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]graph.NodeID, 20)
			for r := 0; r < rounds; r++ {
				for i := range ids {
					ids[i] = graph.NodeID((w*7 + r*3 + i*5) % nearIDs)
				}
				c.Probe(ids, g)
				if !c.Lookup(ids[0]) {
					c.Admit(ids[0], g.Degree(ids[0]))
				}
				c.Stats()
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if got, want := st.Hits+st.Misses, int64(workers*rounds*21); got != want {
		t.Fatalf("hits+misses = %d, want %d accesses", got, want)
	}
	if reg := registryStats(m); reg != st {
		t.Fatalf("registry %+v, Stats %+v", reg, st)
	}
}
