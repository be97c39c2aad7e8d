// Package bucket implements degree bucketing at the output layer (§II-C,
// §IV-B): grouping a batch's output nodes by sampled degree, detecting the
// bucket explosion the power-law tail causes (all nodes at the cut-off
// degree F pile into one bucket, Fig 4), splitting the explosion bucket
// into micro-buckets, and assembling buckets into the bucket groups that
// become micro-batches.
package bucket

import (
	"fmt"
	"slices"

	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

// Bucket holds output nodes that share a sampled degree. A split bucket
// (micro-bucket) remembers its part index for diagnostics.
type Bucket struct {
	Degree int // sampled degree of every member; the cut-off bucket has Degree == F
	Nodes  []graph.NodeID
	// Rows[i] is Nodes[i]'s row in the batch's hop-0 adjacency — its
	// Batch.Position — so consumers walk a member's sampled neighbours by
	// index. Bucketize fills it and splitting slices it; a bucket built by
	// hand fills it from Position, and the estimator rejects one without.
	Rows []int32

	Split bool // true when this is a micro-bucket from SplitBucket
	Part  int  // part index within the split, 0-based
}

// Volume reports the node count.
func (b *Bucket) Volume() int { return len(b.Nodes) }

// Label renders "deg-5" or "deg-10/2of4"-style identifiers for reports.
func (b *Bucket) Label() string {
	if b.Split {
		return fmt.Sprintf("deg-%d/part%d", b.Degree, b.Part)
	}
	return fmt.Sprintf("deg-%d", b.Degree)
}

// Bucketing is the degree-bucket list of one batch's output layer.
type Bucketing struct {
	F       int // cut-off degree (the batch's hop-0 fanout)
	Buckets []*Bucket
}

// Bucketize groups the batch's output nodes by their hop-0 sampled degree.
// Degrees range in [1, F] where F = batch.Fanouts[0]; nodes whose original
// degree exceeds F were sampled down to exactly F, so they all land in the
// cut-off bucket — the paper's bucket-explosion mechanism. Empty degrees are
// omitted; buckets are ordered by ascending degree.
func Bucketize(batch *sampling.Batch) *Bucketing {
	return BucketizeInto(nil, batch)
}

// Scratch owns the reusable storage one bucketization consumes: the
// per-degree counters of the counting sort, the flat node and row arrays the
// buckets slice, a value slab for the buckets, the Bucketing header itself,
// and the sort keys AppendSplit orders a bucket by. One scratch serves one
// in-flight plan at a time.
type Scratch struct {
	starts []int
	nodes  []graph.NodeID
	rows   []int32
	slab   []Bucket
	bk     Bucketing
	keys   []uint64
}

// BucketizeInto is Bucketize reusing sc's storage; the returned Bucketing
// (and every Bucket in it) is valid until the next BucketizeInto on the same
// scratch. A nil scratch allocates fresh.
func BucketizeInto(sc *Scratch, batch *sampling.Batch) *Bucketing {
	if sc == nil {
		sc = &Scratch{}
	}
	// A counting sort by sampled degree: stable, so every bucket lists its
	// nodes in hop-0 order.
	hop := &batch.Hops[0]
	n := len(hop.Dst)
	maxDeg := 0
	for _, nbrs := range hop.Nbrs[:n] {
		if len(nbrs) > maxDeg {
			maxDeg = len(nbrs)
		}
	}
	// starts[d] becomes the offset of degree d's first node; while counting,
	// degree d is tallied one slot up.
	if cap(sc.starts) < maxDeg+2 {
		sc.starts = make([]int, maxDeg+2)
	}
	starts := sc.starts[:maxDeg+2]
	for i := range starts {
		starts[i] = 0
	}
	for _, nbrs := range hop.Nbrs[:n] {
		starts[len(nbrs)+1]++
	}
	nonEmpty := 0
	for d := 0; d <= maxDeg; d++ {
		if starts[d+1] > 0 {
			nonEmpty++
		}
		starts[d+1] += starts[d]
	}
	if cap(sc.nodes) < n {
		sc.nodes = make([]graph.NodeID, n)
		sc.rows = make([]int32, n)
	}
	nodes, rows := sc.nodes[:n], sc.rows[:n]
	if cap(sc.slab) < nonEmpty {
		sc.slab = make([]Bucket, nonEmpty)
	}
	sc.slab = sc.slab[:nonEmpty]
	bk := &sc.bk
	bk.F = batch.Fanouts[0]
	bk.Buckets = bk.Buckets[:0]
	for d := 0; d <= maxDeg; d++ {
		lo, hi := starts[d], starts[d+1]
		if lo == hi {
			continue
		}
		slot := &sc.slab[len(bk.Buckets)]
		*slot = Bucket{Degree: d, Nodes: nodes[lo:hi:hi], Rows: rows[lo:hi:hi]}
		bk.Buckets = append(bk.Buckets, slot)
	}
	for i, v := range hop.Dst {
		at := starts[len(hop.Nbrs[i])]
		starts[len(hop.Nbrs[i])] = at + 1
		nodes[at] = v
		rows[at] = int32(i)
	}
	return bk
}

// Volumes returns the node count per bucket, ordered as Buckets (Fig 4's
// bucket-volume distribution).
func (bk *Bucketing) Volumes() []int {
	out := make([]int, len(bk.Buckets))
	for i, b := range bk.Buckets {
		out[i] = b.Volume()
	}
	return out
}

// TotalNodes reports the output-node count across buckets.
func (bk *Bucketing) TotalNodes() int {
	total := 0
	for _, b := range bk.Buckets {
		total += b.Volume()
	}
	return total
}

// Buckets are compared by memory weight — volume x degree, proportional to
// the neighbor-embedding footprint message passing materializes — because
// the cut-off bucket dominates memory well before it dominates node count.
// DetectExplosion flags the cut-off bucket when its weight exceeds
// explosionVolumeFactor times the median bucket's, or explosionShare of the
// total weight.
const (
	explosionVolumeFactor = 4
	explosionShare        = 0.3
)

// DetectExplosion reports whether the cut-off bucket — the highest-degree
// bucket, where every node whose true degree reaches F lands after sampling
// (Algorithm 3 always splits degree_buckets[F]) — has exploded: its volume
// dwarfs the median bucket or it holds an outsized share of all output
// nodes. Power-law graphs trigger this (Fig 4.b); balanced distributions
// like Cora's (Fig 4.a), whose dominant bucket sits mid-distribution and
// whose top-degree bucket is small, do not.
func (bk *Bucketing) DetectExplosion() (*Bucket, bool) {
	if len(bk.Buckets) == 0 {
		return nil, false
	}
	if len(bk.Buckets) == 1 {
		// Every output node sits in one bucket: the degenerate, maximal
		// explosion (e.g. Reddit at small fanouts, where every node's true
		// degree exceeds F).
		return bk.Buckets[0], true
	}
	n := len(bk.Buckets)
	total := 0
	for _, b := range bk.Buckets {
		total += b.Volume() * b.Degree
	}
	cutoff := bk.Buckets[n-1] // buckets are degree-sorted
	cutoffWeight := cutoff.Volume() * cutoff.Degree
	// The median is sorted(weights)[n/2]: the weight with at most n/2 weights
	// strictly below it and more than n/2 at or below it. Bucket counts are
	// bounded by the fanout, so the quadratic scan is cheaper than a sorted
	// copy and allocates nothing.
	median := 0
	for _, b := range bk.Buckets {
		w := b.Volume() * b.Degree
		below, atOrBelow := 0, 0
		for _, o := range bk.Buckets {
			ow := o.Volume() * o.Degree
			if ow < w {
				below++
			}
			if ow <= w {
				atOrBelow++
			}
		}
		if below <= n/2 && n/2 < atOrBelow {
			median = w
			break
		}
	}
	if float64(cutoffWeight) > explosionVolumeFactor*float64(median) ||
		float64(cutoffWeight) > explosionShare*float64(total) {
		return cutoff, true
	}
	return nil, false
}

// SplitBucket evenly splits b into k micro-buckets (Algorithm 3's
// SplitExplosionBucket), cut as AppendSplit cuts them.
func SplitBucket(b *Bucket, k int, g *graph.Graph) ([]*Bucket, error) {
	if k < 1 {
		return nil, fmt.Errorf("bucket: split count %d < 1", k)
	}
	slab := AppendSplit(nil, nil, b, k, g)
	parts := make([]*Bucket, len(slab))
	for i := range slab {
		parts[i] = &slab[i]
	}
	return parts, nil
}

// AppendSplit appends b's k micro-buckets to dst and returns the extended
// slab — the form for callers that keep split parts in reusable storage.
// Part sizes differ by at most one and the node multiset is unchanged. k
// above the volume is clamped so no part is empty; k < 1 appends nothing.
//
// Seeds close in the graph share frontier nodes, so a part is cheaper when
// its seeds are close: before cutting b into two or more parts, AppendSplit
// sorts b's members (Nodes and Rows together, in place) into g's locality
// order (graph.Graph.Locality), unless they are in it already — as every
// part of an earlier split is. sc holds the sort keys; a nil scratch
// allocates them. A nil graph cuts in member order.
func AppendSplit(sc *Scratch, dst []Bucket, b *Bucket, k int, g *graph.Graph) []Bucket {
	n := b.Volume()
	if k > n {
		k = n
	}
	if k > 1 && g != nil {
		if sc == nil {
			sc = &Scratch{}
		}
		sc.sortByLocality(b, g)
	}
	for i := 0; i < k; i++ {
		lo := i * n / k
		hi := (i + 1) * n / k
		part := Bucket{Degree: b.Degree, Nodes: b.Nodes[lo:hi], Split: true, Part: i}
		if len(b.Rows) == n { // a bucket without rows splits into parts without
			part.Rows = b.Rows[lo:hi]
		}
		dst = append(dst, part)
	}
	return dst
}

// sortByLocality sorts b's members into g's locality order. Ranks are dense
// and distinct, so a key is a member's rank above its row, and the sorted
// keys give both back: the node from the order, the row from the low bits.
func (sc *Scratch) sortByLocality(b *Bucket, g *graph.Graph) {
	rank, order := g.Locality()
	sorted := true
	for i := 1; i < len(b.Nodes) && sorted; i++ {
		sorted = rank[b.Nodes[i-1]] < rank[b.Nodes[i]]
	}
	if sorted {
		return
	}
	withRows := len(b.Rows) == len(b.Nodes)
	keys := sc.keys[:0]
	for i, v := range b.Nodes {
		key := uint64(rank[v]) << 32
		if withRows {
			key |= uint64(uint32(b.Rows[i]))
		}
		keys = append(keys, key)
	}
	slices.Sort(keys)
	for i, key := range keys {
		b.Nodes[i] = order[key>>32]
		if withRows {
			b.Rows[i] = int32(uint32(key))
		}
	}
	sc.keys = keys
}

// ReplaceWithSplit returns a new bucket list where target is replaced by its
// k micro-buckets (cut as AppendSplit cuts them in g's locality order),
// keeping overall ordering (micro-buckets take the target's position).
func (bk *Bucketing) ReplaceWithSplit(target *Bucket, k int, g *graph.Graph) (*Bucketing, error) {
	parts, err := SplitBucket(target, k, g)
	if err != nil {
		return nil, err
	}
	out := &Bucketing{F: bk.F}
	replaced := false
	for _, b := range bk.Buckets {
		if b == target {
			out.Buckets = append(out.Buckets, parts...)
			replaced = true
			continue
		}
		out.Buckets = append(out.Buckets, b)
	}
	if !replaced {
		return nil, fmt.Errorf("bucket: target %s not in bucketing", target.Label())
	}
	return out, nil
}

// Group is a bucket group: the set of buckets that will form one
// micro-batch.
type Group struct {
	Buckets []*Bucket
}

// Nodes flattens the group's output nodes in bucket order.
func (g *Group) Nodes() []graph.NodeID {
	return g.AppendNodes(nil)
}

// AppendNodes appends the group's output nodes to dst in bucket order and
// returns the extended slice — the allocation-free form of Nodes for callers
// holding a reusable buffer.
func (g *Group) AppendNodes(dst []graph.NodeID) []graph.NodeID {
	for _, b := range g.Buckets {
		dst = append(dst, b.Nodes...)
	}
	return dst
}

// Volume reports the group's output-node count.
func (g *Group) Volume() int {
	total := 0
	for _, b := range g.Buckets {
		total += b.Volume()
	}
	return total
}

// Labels renders the member bucket labels for reports.
func (g *Group) Labels() []string {
	out := make([]string, len(g.Buckets))
	for i, b := range g.Buckets {
		out[i] = b.Label()
	}
	return out
}
