// Package memest implements Buffalo's lightweight analytical memory model
// (§IV-D): BucketMemEstimator predicts the device memory one output-layer
// bucket's micro-batch would consume, and RedundancyAwareMemEstimator
// predicts a bucket group's consumption via the redundancy-aware grouping
// ratio of Eq. (1):
//
//	R_group[i] = min(1, I_i / (O_i * D_i * C))
//
// applied as Eq. (2): M(group) = Σ_i M_est[i] * R_group[i].
//
// The per-bucket estimate mirrors, layer by layer and bucket by bucket, the
// allocations internal/gnn actually makes: gathered neighbor tensors,
// aggregator working state (LSTM trajectories are the dominant term),
// pre-activations, and input features. A group's hop-1 frontier — its output
// nodes plus their distinct sampled neighbors — and that frontier's sampled
// degree sum are measured exactly, as integers, off the sampled adjacency;
// deeper frontiers are predicted from batch-level statistics (average
// sampled degree per hop, saturating toward the parent batch's frontiers).
// No micro-batch is materialized.
//
// Measurement is incremental. Once per batch the estimator numbers the hop-0
// frontier densely (frontierIndex) and flattens the hop-0 adjacency into
// those ids; a GroupAcc is then a bitset over that id space plus three
// integer counters, and adding a bucket to a group costs one test-and-set
// per sampled hop-0 edge of that bucket. GroupMem and BatchMem fill the same
// accumulator once; the scheduler's greedy loop keeps one per group and adds
// a bucket per placement, which is what makes the model cheap enough to sit
// inside that loop.
package memest

import (
	"fmt"
	"math"

	"buffalo/internal/bucket"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

const floatBytes = 4

// ModelSpec is the slice of a GNN configuration the memory model needs.
type ModelSpec struct {
	Arch       gnn.Arch
	Aggregator gnn.Aggregator
	Layers     int
	InDim      int
	Hidden     int
	OutDim     int
	Heads      int // GAT attention heads (0 or 1 = single head)
}

// FeatureRowBytes is the device footprint of one node's input-feature row —
// the unit a feature cache budgets in and the per-node H2D cost a prefetcher
// saves on a cache hit.
func (s ModelSpec) FeatureRowBytes() int64 {
	return int64(s.InDim) * floatBytes
}

// SpecFromConfig extracts a ModelSpec from a model configuration.
func SpecFromConfig(cfg gnn.Config) ModelSpec {
	return ModelSpec{
		Arch:       cfg.Arch,
		Aggregator: cfg.Aggregator,
		Layers:     cfg.Layers,
		InDim:      cfg.InDim,
		Hidden:     cfg.Hidden,
		OutDim:     cfg.OutDim,
		Heads:      cfg.Heads,
	}
}

// layerDims returns the (in, out, hasActivation) dims of layer l (0-based,
// input side first), mirroring gnn.New.
func (s ModelSpec) layerDims(l int) (in, out int, act bool) {
	in = s.Hidden
	if l == 0 {
		in = s.InDim
	}
	out = s.Hidden
	act = true
	if l == s.Layers-1 {
		out = s.OutDim
		act = false
	}
	return in, out, act
}

// Profile holds the batch-level statistics the estimator consumes. They are
// computed once per batch in one pass over the sampled adjacency — the
// "obtained during micro-batch generation, no computation overhead" data of
// §IV-D — plus the offline clustering coefficient C.
type Profile struct {
	// AvgDeg[h] is the mean sampled degree at hop h.
	AvgDeg []float64
	// NbrDeg[h] (h >= 1) is the neighbor-incidence-weighted mean sampled
	// degree at hop h: the expected degree of a node that entered the
	// frontier as a sampled neighbor. Small micro-batch frontiers
	// over-represent such nodes (the friendship paradox), so their mean
	// degree sits between AvgDeg and NbrDeg depending on coverage.
	NbrDeg []float64
	// Frontier[h] is the node count of the batch's hop-h frontier, for
	// h in [0, L]. A micro-batch's hop-h frontier is a subset of the
	// batch's, so Frontier bounds the saturation of the dedup model.
	Frontier []float64
	// C is the average clustering coefficient of the input graph.
	C float64
}

// ProfileBatch measures a batch's per-hop statistics. clusteringCoef is the
// graph's (offline) average clustering coefficient.
func ProfileBatch(b *sampling.Batch, clusteringCoef float64) Profile {
	var p Profile
	ProfileBatchInto(&p, b, clusteringCoef)
	return p
}

// ensureFloats returns s resized to length n zeroed, reusing capacity — the
// single growth site the reusable profile path funnels through.
func ensureFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// ProfileBatchInto is ProfileBatch refilling p's slices in place, so a
// recycled estimator re-profiles each iteration's batch without allocating.
func ProfileBatchInto(p *Profile, b *sampling.Batch, clusteringCoef float64) {
	L := b.Layers()
	p.AvgDeg = ensureFloats(p.AvgDeg, L)
	p.NbrDeg = ensureFloats(p.NbrDeg, L)
	p.Frontier = ensureFloats(p.Frontier, L+1)
	p.C = clusteringCoef
	for h := 0; h < L; h++ {
		hop := &b.Hops[h]
		var edges int64
		for _, nbrs := range hop.Nbrs {
			edges += int64(len(nbrs))
		}
		nDst := len(hop.Dst)
		p.Frontier[h] = float64(nDst)
		if nDst == 0 {
			continue
		}
		p.AvgDeg[h] = float64(edges) / float64(nDst)
		if h >= 1 {
			// Weight each hop-h destination's sampled degree by how many
			// times it appeared as a hop-(h-1) neighbor.
			prev := &b.Hops[h-1]
			var wsum, dsum float64
			for _, nbrs := range prev.Nbrs {
				for _, u := range nbrs {
					if i, ok := hop.Index[u]; ok {
						wsum++
						dsum += float64(len(hop.Nbrs[i]))
					}
				}
			}
			if wsum > 0 {
				p.NbrDeg[h] = dsum / wsum
			} else {
				p.NbrDeg[h] = p.AvgDeg[h]
			}
		}
	}
	p.Frontier[L] = float64(len(b.Frontier(L)))
}

// Estimator is the analytical memory model for one (model, batch) pair.
type Estimator struct {
	Model ModelSpec
	Prof  Profile
	// ForwardOnly switches the model to the inference regime: with no
	// backward pass, a layer's activations are dead once the next layer has
	// consumed them, so the peak is not the sum of every layer's footprint
	// but the largest adjacent pair along the computation order (input
	// features + first layer, then each layer + its successor). The serving
	// path's executor frees activations on the same schedule, so predicted
	// and actual peaks stay comparable. Off (the default), the estimator
	// prices training: every layer resident simultaneously for backward.
	ForwardOnly bool

	// Reusable measurement state: the batch's dense frontier index (built on
	// the first measurement after the estimator is bound to a batch), the
	// accumulator GroupMem fills, and BatchMem's bucketization. An estimator
	// with warm scratch measures without allocating. Not safe for concurrent
	// use — each in-flight plan owns its estimator.
	idx     frontierIndex
	acc     GroupAcc
	buckets bucket.Scratch
	whole   bucket.Group
}

// New builds an estimator after validating the spec.
func New(spec ModelSpec, prof Profile) (*Estimator, error) {
	if spec.Layers < 1 {
		return nil, errSpecLayers
	}
	if len(prof.AvgDeg) != spec.Layers {
		return nil, fmt.Errorf("memest: profile has %d hops for %d layers", len(prof.AvgDeg), spec.Layers)
	}
	if prof.C <= 0 {
		return nil, fmt.Errorf("memest: clustering coefficient must be positive, got %g", prof.C)
	}
	return &Estimator{Model: spec, Prof: prof}, nil
}

var (
	errSpecLayers  = fmt.Errorf("memest: spec needs >= 1 layer")
	errClusterCoef = fmt.Errorf("memest: clustering coefficient must be positive")
)

// NewInto is New rebinding a recycled estimator to a fresh batch: the profile
// is measured into the estimator's existing slices, the frontier index is
// marked stale (the next measurement rebuilds it in place) and the
// measurement scratch stays warm. ForwardOnly resets to the training regime.
func NewInto(est *Estimator, spec ModelSpec, b *sampling.Batch, clusteringCoef float64) error {
	if spec.Layers < 1 {
		return errSpecLayers
	}
	if clusteringCoef <= 0 {
		return errClusterCoef
	}
	est.idx.batch = nil
	ProfileBatchInto(&est.Prof, b, clusteringCoef)
	if len(est.Prof.AvgDeg) != spec.Layers {
		return fmt.Errorf("memest: profile has %d hops for %d layers", len(est.Prof.AvgDeg), spec.Layers)
	}
	est.Model = spec
	est.ForwardOnly = false
	return nil
}

// aggNodeCoeffs returns the per-destination activation bytes of one layer
// as an affine function of the destination's degree: fixed + perDeg * d,
// mirroring internal/gnn's caches. Splitting the coefficients out lets the
// group estimator price a frontier from its exact degree sum.
func (e *Estimator) aggNodeCoeffs(layer int) (fixed, perDeg float64) {
	in, out, act := e.Model.layerDims(layer)
	fin, fout := float64(in), float64(out)
	switch e.Model.Arch {
	case gnn.GAT:
		heads := float64(e.Model.Heads)
		if heads < 1 {
			heads = 1
		}
		// candidates (d+1)*out, scores+alpha 2*heads*(d+1), preAct out
		// (+outAct), z ~ (1+d)*out.
		fixed = fout + 2*heads + fout + fout
		perDeg = fout + 2*heads + fout
		if act {
			fixed += fout
		}
	default: // SAGE
		// gathered steps d*in + agg in + aggAll in + preAct out (+outAct).
		fixed = 2*fin + fout
		perDeg = fin
		if act {
			fixed += fout
		}
		switch e.Model.Aggregator {
		case gnn.Pool:
			fixed += fin
			perDeg += 2 * fin
		case gnn.LSTM:
			perDeg += 8 * fin
		}
	}
	return fixed * floatBytes, perDeg * floatBytes
}

// aggNodeBytes estimates the per-destination activation bytes of one layer
// for a destination of degree d.
func (e *Estimator) aggNodeBytes(layer int, d float64) float64 {
	fixed, perDeg := e.aggNodeCoeffs(layer)
	return fixed + perDeg*d
}

// forwardWindow streams the forward-only peak: the largest sum of two
// adjacent terms along the layer walk. Adjacent-pair peaks are
// direction-agnostic, so the estimators can feed terms in hop order (outputs
// inward) even though execution runs inputs outward; the input-feature term
// is simply fed last. Zero-valued (no allocation, no state beyond two
// floats), so it rides inside the scheduler's greedy loop for free.
type forwardWindow struct{ prev, peak float64 }

func (w *forwardWindow) add(term float64) {
	if s := w.prev + term; s > w.peak {
		w.peak = s
	}
	w.prev = term
}

// BucketMem is the paper's BucketMemEstimator: the predicted device memory
// of a micro-batch built from a single output-layer bucket with the given
// volume (output nodes) and sampled degree, treated in isolation — frontier
// growth is the raw (1 + degree) product with no dedup. As §IV-D observes,
// this is "reasonable for individual buckets" but overestimates groups; the
// redundancy-aware GroupMem corrects it. The scheduler uses BucketMem as
// the bin-packing item weight.
func (e *Estimator) BucketMem(volume, degree int) int64 {
	if volume <= 0 {
		return 0
	}
	L := e.Model.Layers
	frontier := float64(volume)
	var total float64
	var win forwardWindow
	for h := 0; h < L; h++ {
		layer := L - 1 - h // hop 0 is processed by the output layer
		d := float64(degree)
		if h > 0 {
			d = e.Prof.AvgDeg[h]
		}
		term := frontier * e.aggNodeBytes(layer, d)
		total += term
		win.add(term)
		frontier *= 1 + d
		if limit := e.Prof.Frontier[h+1]; limit > 0 && frontier > limit {
			frontier = limit // cannot exceed the parent batch's frontier
		}
	}
	// Input features for the innermost frontier.
	feat := frontier * float64(e.Model.InDim) * floatBytes
	total += feat
	win.add(feat)
	if e.ForwardOnly {
		return int64(win.peak)
	}
	return int64(total)
}

// frontierBytes walks the layer stack for a micro-batch whose output layer
// costs hop0 bytes (the exact per-bucket costs, summed by the accumulator)
// and whose hop-1 frontier — outputs plus distinct hop-0 inputs — was
// measured as frontierNodes with sampled-degree sum hop1DegSum, accumulating
// activation and feature bytes with a saturating dedup model: at hop h,
// gathering n*(1+d) node slots from a population bounded by the parent
// batch's hop-(h+1) frontier P yields ~P*(1-exp(-draws/P)) distinct nodes.
func (e *Estimator) frontierBytes(hop0 float64, frontierNodes int, hop1DegSum float64) int64 {
	L := e.Model.Layers
	var total float64
	var win forwardWindow
	total += hop0
	win.add(hop0)
	frontier := float64(frontierNodes)
	for h := 1; h < L; h++ {
		layer := L - 1 - h
		var draws float64
		var term float64
		if h == 1 {
			// Hop 1 is priced exactly from the measured frontier degree sum
			// (bucket groups are degree-homogeneous; batch averages
			// misprice them).
			fixed, perDeg := e.aggNodeCoeffs(layer)
			term = frontier*fixed + hop1DegSum*perDeg
			draws = frontier + hop1DegSum
		} else {
			// Deeper hops fall back to the batch-profile model: effective
			// mean degree interpolates between the batch-wide mean (full
			// coverage) and the neighbor-biased mean (sparse coverage) with
			// sqrt-coverage weighting — high-multiplicity hubs deduplicate
			// first as coverage grows.
			d := e.Prof.AvgDeg[h]
			if batchFrontier := e.Prof.Frontier[h]; batchFrontier > 0 {
				f := math.Sqrt(frontier / batchFrontier)
				if f > 1 {
					f = 1
				}
				d = f*e.Prof.AvgDeg[h] + (1-f)*e.Prof.NbrDeg[h]
			}
			term = frontier * e.aggNodeBytes(layer, d)
			draws = frontier * (1 + d)
		}
		total += term
		win.add(term)
		pool := e.Prof.Frontier[h+1]
		if pool > 0 && draws > 0 {
			// Clustering makes neighbor draws collide beyond the uniform
			// birthday model: a fraction ~C of a node's neighbors are also
			// neighbors of its neighbors (Eq. 1's C term), so only
			// (1 - C) of the draws probe fresh territory.
			effective := draws * (1 - e.Prof.C)
			frontier = pool * (1 - math.Exp(-effective/pool))
		} else {
			frontier = draws
		}
	}
	feat := frontier * float64(e.Model.InDim) * floatBytes
	total += feat
	win.add(feat)
	if e.ForwardOnly {
		return int64(win.peak)
	}
	return int64(total)
}

// frontierIndex is the batch-local dense id space of the hop-0 frontier:
// every output node and every sampled hop-0 neighbor gets one int32 id, the
// hop-0 adjacency is flattened into a CSR over those ids, and each id carries
// its hop-1 sampled degree. With two or more layers the id is the node's
// position in Hops[1].Dst (the sampler carries the outputs over and appends
// the discovered neighbors, so that frontier is exactly this set); a node
// Hops[1] does not know — a one-layer model, or a hand-built batch — is
// numbered after it through extra, with degree 0. Built once per batch into
// recycled slices, it turns group measurement into array test-and-set.
type frontierIndex struct {
	batch    *sampling.Batch // the batch indexed; nil marks the index stale
	n        int             // ids in use
	outID    []int32         // id of hop-0 row i
	rowStart []int32         // row i's neighbor ids are nbrID[rowStart[i]:rowStart[i+1]]
	nbrID    []int32
	deg1     []int32 // hop-1 sampled degree per id
	extra    map[graph.NodeID]int32
}

func ensureInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// id returns v's dense id, assigning the next free one to a node hop1 does
// not list.
func (ix *frontierIndex) id(hop1 *sampling.HopAdj, v graph.NodeID) int32 {
	if hop1 != nil {
		if i, ok := hop1.Index[v]; ok {
			return int32(i)
		}
	}
	if i, ok := ix.extra[v]; ok {
		return i
	}
	if ix.extra == nil {
		ix.extra = make(map[graph.NodeID]int32)
	}
	i := int32(ix.n)
	ix.n++
	ix.extra[v] = i
	return i
}

func (ix *frontierIndex) build(b *sampling.Batch) {
	hop0 := &b.Hops[0]
	var hop1 *sampling.HopAdj
	known := 0 // ids Hops[1] assigns
	if len(b.Hops) > 1 {
		hop1 = &b.Hops[1]
		known = len(hop1.Dst)
	}
	ix.n = known
	clear(ix.extra)
	nOut := len(hop0.Dst)
	edges := 0
	for _, nbrs := range hop0.Nbrs[:nOut] {
		edges += len(nbrs)
	}
	ix.outID = ensureInt32s(ix.outID, nOut)
	ix.rowStart = ensureInt32s(ix.rowStart, nOut+1)
	ix.nbrID = ensureInt32s(ix.nbrID, edges)
	at := int32(0)
	for i, v := range hop0.Dst {
		ix.outID[i] = ix.id(hop1, v)
		ix.rowStart[i] = at
		for _, u := range hop0.Nbrs[i] {
			ix.nbrID[at] = ix.id(hop1, u)
			at++
		}
	}
	ix.rowStart[nOut] = at
	ix.deg1 = ensureInt32s(ix.deg1, ix.n)
	for i := 0; i < known; i++ {
		ix.deg1[i] = int32(len(hop1.Nbrs[i]))
	}
	clear(ix.deg1[known:])
	ix.batch = b
}

// GroupAcc accumulates the measured statistics of one bucket group — the
// quantities §IV-D says are "obtained during micro-batch generation" — one
// bucket at a time. member is the group's hop-1 frontier as a bitset over
// the batch-local ids: its output nodes and their distinct hop-0 neighbors.
// Buckets partition the batch's outputs, so no output is added twice, and
// the frontier splits into outputs + inputs whichever arrived first: a node
// first marked as another bucket's neighbor and later added as an output
// stays one member while outputs grows, which demotes it from the input
// count exactly as marking all outputs before any neighbor would. degSum is
// the members' sampled hop-1 degree sum, which prices the hop-1 layer exactly
// (bucket groups are degree-homogeneous; batch averages misprice them). All
// three are integers, so the order buckets arrive in cannot change them.
type GroupAcc struct {
	member   []uint64
	outputs  int
	frontier int     // set bits in member
	degSum   int64   // Σ hop-1 sampled degree over member
	hop0     float64 // output-layer bytes, summed in arrival order
}

// Outputs reports the output nodes added so far.
func (a *GroupAcc) Outputs() int { return a.outputs }

// Inputs reports I: the group's distinct hop-0 neighbors that are not
// themselves outputs of the group.
func (a *GroupAcc) Inputs() int { return a.frontier - a.outputs }

// Hop1DegSum reports the exact sampled-degree sum of the group's hop-1
// frontier (outputs carried over plus the distinct inputs).
func (a *GroupAcc) Hop1DegSum() int64 { return a.degSum }

// mark adds id to the frontier if it is not a member yet.
func (a *GroupAcc) mark(id int32, deg1 []int32) {
	w, bit := id>>6, uint64(1)<<(uint32(id)&63)
	if a.member[w]&bit == 0 {
		a.member[w] |= bit
		a.frontier++
		a.degSum += int64(deg1[id])
	}
}

// BeginGroup resets a to the empty group of batch b, (re)building the
// estimator's frontier index first if it is stale.
func (e *Estimator) BeginGroup(a *GroupAcc, b *sampling.Batch) {
	if e.idx.batch != b {
		e.idx.build(b)
	}
	words := (e.idx.n + 63) >> 6
	if cap(a.member) < words {
		a.member = make([]uint64, words)
	} else {
		a.member = a.member[:words]
		clear(a.member)
	}
	a.outputs, a.frontier, a.degSum, a.hop0 = 0, 0, 0, 0
}

// AddBucket adds one bucket's output nodes and their sampled hop-0 neighbors
// to a, which BeginGroup bound to the estimator's current batch: O(bucket
// edges), independent of what the group already holds. It fails if a member
// is not an output of the batch; a is then partly updated and must be
// restarted.
func (e *Estimator) AddBucket(a *GroupAcc, bk *bucket.Bucket) error {
	ix := &e.idx
	hop0 := &ix.batch.Hops[0]
	rows := bk.Rows
	if len(rows) != len(bk.Nodes) {
		rows = nil
	}
	for i, v := range bk.Nodes {
		var r int
		if rows != nil {
			r = int(rows[i])
			if uint(r) >= uint(len(hop0.Dst)) || hop0.Dst[r] != v {
				return fmt.Errorf("memest: node %d is not row %d of the batch's outputs", v, r)
			}
		} else {
			var ok bool
			if r, ok = hop0.Index[v]; !ok {
				return fmt.Errorf("memest: node %d is not an output of the batch", v)
			}
		}
		a.mark(ix.outID[r], ix.deg1)
		for _, id := range ix.nbrID[ix.rowStart[r]:ix.rowStart[r+1]] {
			a.mark(id, ix.deg1)
		}
	}
	a.outputs += bk.Volume()
	a.hop0 += float64(bk.Volume()) * e.aggNodeBytes(e.Model.Layers-1, float64(bk.Degree))
	return nil
}

// AccMem is the redundancy-aware estimate (Eq. 2) of the group accumulated
// in a: what GroupMem returns for the same buckets in the same order.
func (e *Estimator) AccMem(a *GroupAcc) int64 {
	return e.frontierBytes(a.hop0, a.frontier, float64(a.degSum))
}

// RGroup evaluates Eq. (1) for a bucket with I distinct input nodes, O
// output nodes and degree D, using the profile's clustering coefficient.
func (e *Estimator) RGroup(inputs, outputs, degree int) float64 {
	if outputs == 0 || degree == 0 {
		return 1
	}
	r := float64(inputs) / (float64(outputs) * float64(degree) * e.Prof.C)
	if r > 1 {
		return 1
	}
	return r
}

// GroupMem is the paper's RedundancyAwareMemEstimator (Eq. 2): the predicted
// memory of the micro-batch built from a bucket group. It instantiates
// Eq. (1)'s reasoning — how many of the group's O*D gathered neighbor slots
// are distinct input nodes (I), and how clustering compounds dedup at
// deeper hops — with I measured exactly from the sampled adjacency (the
// paper's "obtained during micro-batch generation") and deeper hops modeled
// by saturation toward the parent batch's frontiers.
func (e *Estimator) GroupMem(b *sampling.Batch, g *bucket.Group) (int64, error) {
	e.BeginGroup(&e.acc, b)
	for _, bk := range g.Buckets {
		if err := e.AddBucket(&e.acc, bk); err != nil {
			return 0, err
		}
	}
	return e.AccMem(&e.acc), nil
}

// BatchMem predicts the memory of training the whole batch as one
// micro-batch (the K=1 case of Algorithm 3).
func (e *Estimator) BatchMem(b *sampling.Batch) (int64, error) {
	bk := bucket.BucketizeInto(&e.buckets, b)
	e.whole.Buckets = append(e.whole.Buckets[:0], bk.Buckets...)
	return e.GroupMem(b, &e.whole)
}

// TrainFixedBytes is the fixed device-resident footprint of one replicated
// training replica: parameter values, gradient buffers, and Adam's two
// moment tensors — each the parameter values' size, so 2x the combined
// params+grads footprint the caller passes (ParamSet.Bytes).
func TrainFixedBytes(paramAndGradBytes int64) int64 { return 2 * paramAndGradBytes }

// ZeRO1FixedBytes is the fixed footprint of one ZeRO-1 replica: parameter
// values stay fully replicated (every replica runs the whole forward and
// backward pass), but the resident gradient buffer and both Adam moments
// cover only the replica's 1/n shard of the flat buffer — reduce-scatter
// streams gradient buckets through and leaves each replica holding just its
// reduced shard, and the shard optimizer never materializes moments outside
// its range. The drop versus TrainFixedBytes is 3·(valueBytes - shardBytes):
// ~(n-1)/n of the optimizer+gradient bytes.
func ZeRO1FixedBytes(valueBytes, shardBytes int64) int64 {
	return valueBytes + 3*shardBytes
}
