// Package sampling implements fanout neighbor sampling: the per-iteration
// "batch" (sampling subgraph) that Buffalo's scheduler partitions.
//
// Sampling starts from the seed (output) nodes and walks inward hop by hop.
// For each node it keeps at most fanout[h] distinct neighbors, drawn without
// replacement. The sampled adjacency is recorded per hop in sampling order —
// exactly the bookkeeping Buffalo's fast block generator exploits (§IV-E:
// "track all neighbors of the center nodes in the subgraph following the
// sampling order, avoiding repeated connection checks").
package sampling

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"buffalo/internal/graph"
	"buffalo/internal/stamp"
)

// HopAdj is the sampled adjacency of one hop: Dst[i] aggregates from Nbrs[i]
// (all IDs are original-graph IDs). Dst at hop h are the nodes at distance h
// from the seeds; their sampled neighbors are at distance h+1 (or closer,
// when the graph has short cycles — distance here means discovery hop).
//
// NbrPos gives every sampled neighbor its position in the batch's next
// frontier: Frontier(h+1)[NbrPos[i][j]] == Nbrs[i][j]. Positions are the
// batch's one numbering (see Batch.Position): the sampler assigns them where
// it deduplicates neighbors, and the estimator, the block generator and the
// baselines index arrays with them instead of hashing node ids. A batch built
// by hand gets them from AssignPositions.
type HopAdj struct {
	Dst    []graph.NodeID
	Nbrs   [][]graph.NodeID
	NbrPos [][]int32
}

// Batch is one training iteration's sampling subgraph.
type Batch struct {
	Graph   *graph.Graph // the original graph sampled from
	Seeds   []graph.NodeID
	Fanouts []int // Fanouts[h] caps the sampled degree at hop h; len = #layers

	// Hops[h] holds the sampled adjacency whose destinations are the hop-h
	// frontier; Hops[0].Dst == Seeds. len(Hops) == len(Fanouts).
	Hops []HopAdj

	// Reused backing storage for SampleBatchInto: per-hop flat neighbor and
	// position arrays (each hop's Nbrs[i] and NbrPos[i] are subslices of
	// hopFlat[h] and posFlat[h]), per-hop next-frontier arrays (hop h+1's
	// Dst aliases hopNext[h]) and the Fisher-Yates scratch.
	hopFlat [][]graph.NodeID
	posFlat [][]int32
	hopNext [][]graph.NodeID
	fyPool  []graph.NodeID
	// inner is Frontier(Layers()), and seen — the table neighbors are
	// deduplicated through — holds every batch node's position in it once the
	// last hop is sampled. A fill that fails partway leaves seen, and so the
	// batch, unusable until the next fill that succeeds.
	inner []graph.NodeID
	seen  stamp.Table
}

// ensureIDs returns s resized to length n, reusing capacity when possible.
// Keeping the one growth site here (and in the sibling helpers) keeps the
// hot-path allocation census to a single make per element type.
func ensureIDs(s []graph.NodeID, n int) []graph.NodeID {
	if cap(s) < n {
		return make([]graph.NodeID, n)
	}
	return s[:n]
}

func ensureInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

func ensureNbrs(s [][]graph.NodeID, n int) [][]graph.NodeID {
	if cap(s) < n {
		return make([][]graph.NodeID, n)
	}
	return s[:n]
}

func ensureInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

func ensurePos(s [][]int32, n int) [][]int32 {
	if cap(s) < n {
		return make([][]int32, n)
	}
	return s[:n]
}

// Layers reports the aggregation depth L.
func (b *Batch) Layers() int { return len(b.Fanouts) }

// NumOutputNodes reports the seed count.
func (b *Batch) NumOutputNodes() int { return len(b.Seeds) }

// Frontier returns the distinct nodes at hop h (h = 0 are the seeds;
// h = Layers() is the innermost input frontier). Frontiers nest:
// Frontier(h+1)[:len(Frontier(h))] == Frontier(h).
func (b *Batch) Frontier(h int) []graph.NodeID {
	if h < len(b.Hops) {
		return b.Hops[h].Dst
	}
	return b.inner
}

// Position is the batch's one node numbering: v's index in the innermost
// frontier, and — frontiers being nested prefixes — in every frontier that
// holds v, so p < len(Frontier(h)) exactly when v is a hop-h node, and then
// p is v's row in Hops[h]. A node outside the batch is absent. It only reads
// the batch, so concurrent consumers of one fill may all call it.
func (b *Batch) Position(v graph.NodeID) (int32, bool) {
	return b.seen.Get(int(v))
}

// AssignPositions numbers a batch assembled by hand rather than by
// SampleBatchInto: it derives the innermost frontier, the Position table and
// every hop's NbrPos from Dst and Nbrs. It fails when the batch cannot carry
// positions: a negative or repeated destination, a hop whose destinations are
// not a prefix of the next hop's, or a neighbor the next hop's Dst does not
// list.
func (b *Batch) AssignPositions() error {
	if len(b.Hops) == 0 {
		return errNoFanouts
	}
	// Number the innermost frontier as the sampler does: the last hop's
	// destinations, then its neighbors in order of first appearance.
	last := &b.Hops[len(b.Hops)-1]
	maxID := graph.NodeID(-1)
	for _, d := range last.Dst {
		maxID = max(maxID, d)
	}
	for _, nbrs := range last.Nbrs {
		for _, u := range nbrs {
			maxID = max(maxID, u)
		}
	}
	cells, ep := b.seen.Begin(int(maxID) + 1)
	inner := make([]graph.NodeID, 0, len(last.Dst))
	for _, d := range last.Dst {
		if d < 0 || cells[d].Epoch == ep {
			return fmt.Errorf("sampling: destination %d is negative or listed twice", d)
		}
		cells[d] = stamp.Cell{Epoch: ep, Val: int32(len(inner))}
		inner = append(inner, d)
	}
	for _, nbrs := range last.Nbrs {
		for _, u := range nbrs {
			if u < 0 {
				return fmt.Errorf("sampling: negative neighbor %d", u)
			}
			if cells[u].Epoch != ep {
				cells[u] = stamp.Cell{Epoch: ep, Val: int32(len(inner))}
				inner = append(inner, u)
			}
		}
	}
	b.inner = inner
	for h := range b.Hops {
		hop := &b.Hops[h]
		next := b.Frontier(h + 1)
		if len(hop.Nbrs) != len(hop.Dst) {
			return fmt.Errorf("sampling: hop %d has %d destinations but %d neighbor lists", h, len(hop.Dst), len(hop.Nbrs))
		}
		if len(next) < len(hop.Dst) || !slices.Equal(next[:len(hop.Dst)], hop.Dst) {
			return fmt.Errorf("sampling: hop %d destinations are not a prefix of the next frontier", h)
		}
		hop.NbrPos = make([][]int32, len(hop.Nbrs))
		for i, nbrs := range hop.Nbrs {
			hop.NbrPos[i] = make([]int32, len(nbrs))
			for j, u := range nbrs {
				p, ok := b.Position(u)
				if !ok || int(p) >= len(next) {
					return fmt.Errorf("sampling: hop %d neighbor %d of node %d is absent from the next frontier", h, u, hop.Dst[i])
				}
				hop.NbrPos[i][j] = p
			}
		}
	}
	return nil
}

// AllNodes returns the distinct nodes appearing anywhere in the batch, sorted.
func (b *Batch) AllNodes() []graph.NodeID {
	out := slices.Clone(b.Frontier(b.Layers()))
	slices.Sort(out)
	return out
}

// NumEdges reports the total sampled adjacency entries across hops.
func (b *Batch) NumEdges() int64 {
	var m int64
	for h := range b.Hops {
		for _, nbrs := range b.Hops[h].Nbrs {
			m += int64(len(nbrs))
		}
	}
	return m
}

// MergedAdjacency flattens the batch into a single adjacency map (the union
// of all hops' sampled edges). The naive Betty/DGL-style block generator
// works from this merged view and must rediscover per-layer structure with
// repeated connection checks — the cost Buffalo's sampling-order bookkeeping
// avoids.
func (b *Batch) MergedAdjacency() map[graph.NodeID][]graph.NodeID {
	merged := make(map[graph.NodeID][]graph.NodeID)
	for h := range b.Hops {
		hop := &b.Hops[h]
		for i, d := range hop.Dst {
			merged[d] = append(merged[d], hop.Nbrs[i]...)
		}
	}
	for v, nbrs := range merged {
		sort.Slice(nbrs, func(i, j int) bool { return nbrs[i] < nbrs[j] })
		w := 0
		for i := range nbrs {
			if i == 0 || nbrs[i] != nbrs[i-1] {
				nbrs[w] = nbrs[i]
				w++
			}
		}
		merged[v] = nbrs[:w]
	}
	return merged
}

// SampleBatch draws one batch: seeds' neighbors at fanouts[0], their
// neighbors at fanouts[1], and so on. Each node's neighbors are sampled
// independently per hop (re-sampled every iteration, as in DGL). Duplicate
// seeds are rejected.
func SampleBatch(g *graph.Graph, seeds []graph.NodeID, fanouts []int, rng *rand.Rand) (*Batch, error) {
	b := &Batch{}
	if err := SampleBatchInto(b, g, seeds, fanouts, rng); err != nil {
		return nil, err
	}
	return b, nil
}

// SampleBatchInto is SampleBatch refilling b in place: all hop adjacency,
// frontier, and dedup storage from b's previous fill is reused, so a warm
// batch samples without allocating. The RNG draw order is exactly
// SampleBatch's, which keeps pooled and unpooled runs batch-identical. The
// caller must not refill b while any consumer still reads the previous fill
// — iteration scratch recycling (internal/train) guarantees that by checking
// batches out of a free list for the lifetime of the iteration. A refill that
// fails on its seeds has already overwritten b's Position table: b is then
// unusable until a refill succeeds.
func SampleBatchInto(b *Batch, g *graph.Graph, seeds []graph.NodeID, fanouts []int, rng *rand.Rand) error {
	if len(fanouts) == 0 {
		return errNoFanouts
	}
	for _, f := range fanouts {
		if f < 1 {
			return fmt.Errorf("sampling: fanout must be >= 1, got %d", f)
		}
	}
	if len(seeds) == 0 {
		return errNoSeeds
	}
	// One pass validates the seeds and starts the table every hop dedups
	// through: a node is stamped with its position when it first enters a
	// frontier and, frontiers being nested, keeps it in every later one, so
	// hop h finds the table holding exactly Frontier(h).
	cells, ep := b.seen.Begin(g.NumNodes())
	for i, s := range seeds {
		if s < 0 || int(s) >= len(cells) {
			return fmt.Errorf("sampling: seed %d out of range", s)
		}
		if cells[s].Epoch == ep {
			return fmt.Errorf("sampling: duplicate seed %d", s)
		}
		cells[s] = stamp.Cell{Epoch: ep, Val: int32(i)}
	}
	b.Graph = g
	b.Seeds = ensureIDs(b.Seeds, len(seeds))
	copy(b.Seeds, seeds)
	b.Fanouts = ensureInts(b.Fanouts, len(fanouts))
	copy(b.Fanouts, fanouts)
	if cap(b.Hops) < len(fanouts) {
		hops := make([]HopAdj, len(fanouts))
		copy(hops, b.Hops) // keep already-built backing for reuse
		b.Hops = hops
	} else {
		b.Hops = b.Hops[:len(fanouts)]
	}
	b.hopFlat = ensureNbrs(b.hopFlat, len(fanouts))
	b.posFlat = ensurePos(b.posFlat, len(fanouts))
	b.hopNext = ensureNbrs(b.hopNext, len(fanouts))

	frontier := b.Seeds
	for h, fanout := range fanouts {
		hop := &b.Hops[h]
		hop.Dst = frontier
		hop.Nbrs = ensureNbrs(hop.Nbrs, len(frontier))
		hop.NbrPos = ensurePos(hop.NbrPos, len(frontier))
		// Pre-count the hop's sampled-degree total so the flat neighbor
		// backing is fully sized before the first subslice is taken from it
		// (growing it mid-hop would strand earlier Nbrs views on the old
		// array).
		total := 0
		for _, v := range frontier {
			d := len(g.Neighbors(v))
			if d > fanout {
				d = fanout
			}
			total += d
		}
		b.hopFlat[h] = ensureIDs(b.hopFlat[h], total)
		b.posFlat[h] = ensureInt32s(b.posFlat[h], total)
		flat, posFlat := b.hopFlat[h], b.posFlat[h]
		// The next frontier carries the current destinations first (GNN
		// layers need each node's own previous-layer state — DGL's "dst
		// nodes are a prefix of src nodes" convention) followed by newly
		// discovered sampled neighbors; len(frontier)+total bounds it.
		b.hopNext[h] = ensureIDs(b.hopNext[h], len(frontier)+total)
		next := b.hopNext[h][:len(frontier)]
		copy(next, frontier)
		used := 0
		for i, v := range frontier {
			nb := b.sampleNeighborsInto(flat[used:used], g, v, fanout, rng)
			pos := posFlat[used : used+len(nb)]
			for j, u := range nb {
				c := &cells[u]
				if c.Epoch != ep {
					*c = stamp.Cell{Epoch: ep, Val: int32(len(next))}
					next = append(next, u)
				}
				pos[j] = c.Val
			}
			hop.Nbrs[i], hop.NbrPos[i] = nb, pos
			used += len(nb)
		}
		b.hopNext[h] = next // next aliases the pre-sized backing; keep its length
		frontier = next
	}
	b.inner = frontier
	return nil
}

var (
	errNoFanouts = fmt.Errorf("sampling: need at least one fanout")
	errNoSeeds   = fmt.Errorf("sampling: need at least one seed")
)

// sampleNeighborsInto writes up to fanout distinct neighbors of v into dst
// (an empty slice whose capacity the caller has pre-sized) and returns the
// filled prefix. When the degree is within the fanout the full list is
// copied; otherwise a uniform sample without replacement via partial
// Fisher-Yates over the reused scratch — the rng consumption is identical
// to the historical sampleNeighbors, draw for draw.
func (b *Batch) sampleNeighborsInto(dst []graph.NodeID, g *graph.Graph, v graph.NodeID, fanout int, rng *rand.Rand) []graph.NodeID {
	nbs := g.Neighbors(v)
	if len(nbs) <= fanout {
		dst = dst[:len(nbs)]
		copy(dst, nbs)
		return dst
	}
	b.fyPool = ensureIDs(b.fyPool, len(nbs))
	pool := b.fyPool
	copy(pool, nbs)
	for i := 0; i < fanout; i++ {
		j := i + rng.Intn(len(pool)-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	dst = dst[:fanout]
	copy(dst, pool[:fanout])
	return dst
}

// UniformSeedsInto draws count distinct nodes uniformly from g as seeds, into
// buf's storage: the returned seeds are the first count entries of a |V|-node
// permutation kept in buf (regrown when too small), so the caller passes the
// result back in next time and a warm draw allocates nothing. It consumes rng
// exactly as rand.Perm does — including the draw at i = 0 that cannot move
// anything — which every seeded loss and K sequence in the repository rests
// on. The seeds are overwritten by the next draw into the same storage;
// SampleBatchInto copies them.
func UniformSeedsInto(buf []graph.NodeID, g *graph.Graph, count int, rng *rand.Rand) ([]graph.NodeID, error) {
	n := g.NumNodes()
	if count < 1 || count > n {
		return nil, fmt.Errorf("sampling: seed count %d out of range [1,%d]", count, n)
	}
	perm := ensureIDs(buf, n)
	for i := range perm {
		j := rng.Intn(i + 1)
		perm[i] = perm[j]
		perm[j] = graph.NodeID(i)
	}
	return perm[:count], nil
}

// UniformSeeds is UniformSeedsInto into fresh storage the caller owns.
func UniformSeeds(g *graph.Graph, count int, rng *rand.Rand) ([]graph.NodeID, error) {
	return UniformSeedsInto(nil, g, count, rng)
}
