// Package memest implements Buffalo's lightweight analytical memory model
// (§IV-D): BucketMemEstimator predicts the device memory one output-layer
// bucket's micro-batch would consume, and RedundancyAwareMemEstimator
// predicts a bucket group's consumption. The paper prices a group with the
// redundancy-aware grouping ratio of Eq. (1),
//
//	R_group[i] = min(1, I_i / (O_i * D_i * C))
//
// applied as Eq. (2): M(group) = Σ_i M_est[i] * R_group[i]. This package
// never evaluates R: it measures the distinct inputs I that R approximates.
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
// Measurement is incremental and works in the batch's own numbering
// (sampling.Batch.Position): a hop-1 frontier node is its position in
// Frontier(1), which is what the sampler wrote into Hops[0].NbrPos. A GroupAcc
// is a bitset over those positions plus three integer counters, and adding a
// bucket to a group costs one test-and-set per sampled hop-0 edge of that
// bucket. GroupMem and BatchMem fill the same accumulator once; the
// scheduler's greedy loop keeps one per group and adds a bucket per
// placement, which is what makes the model cheap enough to sit inside that
// loop.
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
			// times it appeared as a hop-(h-1) neighbor; those neighbors'
			// positions are their rows in this hop.
			var wsum, dsum float64
			for _, row := range b.Hops[h-1].NbrPos {
				for _, q := range row {
					if uint(q) < uint(len(hop.Nbrs)) {
						wsum++
						dsum += float64(len(hop.Nbrs[q]))
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

	// Reusable measurement state: the batch the estimator is bound to (bind;
	// nil until the first measurement after New or NewInto), the accumulator
	// GroupMem fills, and BatchMem's bucketization. An estimator with warm
	// scratch measures without allocating. Not safe for concurrent use — each
	// in-flight plan owns its estimator.
	batch   *sampling.Batch
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
	errPositions   = fmt.Errorf("memest: a hop-0 row of the batch has no positions (a hand-built batch needs AssignPositions)")
	errBucketRows  = fmt.Errorf("memest: bucket without a hop-0 row per node (a hand-built bucket fills Rows from Batch.Position)")
)

// NewInto is New rebinding a recycled estimator to a fresh batch: the profile
// is measured into the estimator's existing slices, the estimator is unbound
// (the next measurement binds it to b) and the measurement scratch stays
// warm. ForwardOnly resets to the training regime.
func NewInto(est *Estimator, spec ModelSpec, b *sampling.Batch, clusteringCoef float64) error {
	if spec.Layers < 1 {
		return errSpecLayers
	}
	if clusteringCoef <= 0 {
		return errClusterCoef
	}
	est.batch = nil
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

// bind makes b the batch AddBucket measures, after checking once what
// AddBucket then relies on per edge: every hop-0 row has its positions and
// each names a node of Frontier(1), the group's id space (for a one-layer
// model that is the innermost frontier; NbrPos indexes it all the same).
func (e *Estimator) bind(b *sampling.Batch) error {
	hop0, n := &b.Hops[0], len(b.Frontier(1))
	if len(hop0.NbrPos) != len(hop0.Dst) || len(hop0.Nbrs) != len(hop0.Dst) || n < len(hop0.Dst) {
		return errPositions
	}
	for i, row := range hop0.NbrPos {
		if len(row) != len(hop0.Nbrs[i]) {
			return errPositions
		}
		for _, q := range row {
			if uint(q) >= uint(n) {
				return fmt.Errorf("memest: neighbor position %d is outside the hop-1 frontier (%d nodes)", q, n)
			}
		}
	}
	e.batch = b
	return nil
}

// GroupAcc accumulates the measured statistics of one bucket group — the
// quantities §IV-D says are "obtained during micro-batch generation" — one
// bucket at a time. member is the group's hop-1 frontier as a bitset over
// Frontier(1) positions: its output nodes and their distinct hop-0 neighbors.
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

// mark adds position p to the frontier if it is not a member yet. hop1 is
// Hops[1].Nbrs, whose row p is the node's hop-1 adjacency; a one-layer model
// has none and every degree is 0.
func (a *GroupAcc) mark(p int32, hop1 [][]graph.NodeID) {
	w, bit := p>>6, uint64(1)<<(uint32(p)&63)
	if a.member[w]&bit == 0 {
		a.member[w] |= bit
		a.frontier++
		if int(p) < len(hop1) {
			a.degSum += int64(len(hop1[p]))
		}
	}
}

// BeginGroup resets a to the empty group of batch b, binding the estimator
// to b first if it is not yet. It fails on a batch whose hop-0 positions are
// missing or out of range.
func (e *Estimator) BeginGroup(a *GroupAcc, b *sampling.Batch) error {
	if e.batch != b {
		if err := e.bind(b); err != nil {
			return err
		}
	}
	words := (len(b.Frontier(1)) + 63) >> 6
	if cap(a.member) < words {
		a.member = make([]uint64, words)
	} else {
		a.member = a.member[:words]
		clear(a.member)
	}
	a.outputs, a.frontier, a.degSum, a.hop0 = 0, 0, 0, 0
	return nil
}

// AddBucket adds one bucket's output nodes and their sampled hop-0 neighbors
// to a, which BeginGroup bound to the estimator's current batch: O(bucket
// edges), independent of what the group already holds. It fails if a member
// is not the output its row names; a is then partly updated and must be
// restarted.
func (e *Estimator) AddBucket(a *GroupAcc, bk *bucket.Bucket) error {
	hop0 := &e.batch.Hops[0]
	var hop1 [][]graph.NodeID
	if len(e.batch.Hops) > 1 {
		hop1 = e.batch.Hops[1].Nbrs
	}
	if len(bk.Rows) != len(bk.Nodes) {
		return errBucketRows
	}
	for i, v := range bk.Nodes {
		r := bk.Rows[i]
		if uint(r) >= uint(len(hop0.Dst)) || hop0.Dst[r] != v {
			return fmt.Errorf("memest: node %d is not row %d of the batch's outputs", v, r)
		}
		a.mark(r, hop1)
		for _, q := range hop0.NbrPos[r] {
			a.mark(q, hop1)
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

// GroupMem is the paper's RedundancyAwareMemEstimator (Eq. 2): the predicted
// memory of the micro-batch built from a bucket group. It instantiates
// Eq. (1)'s reasoning — how many of the group's O*D gathered neighbor slots
// are distinct input nodes (I), and how clustering compounds dedup at
// deeper hops — with I measured exactly from the sampled adjacency (the
// paper's "obtained during micro-batch generation") and deeper hops modeled
// by saturation toward the parent batch's frontiers.
func (e *Estimator) GroupMem(b *sampling.Batch, g *bucket.Group) (int64, error) {
	if err := e.BeginGroup(&e.acc, b); err != nil {
		return 0, err
	}
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
