// Package gnn implements the GNN models the paper evaluates — GraphSAGE
// with mean, pool and LSTM aggregators, and GAT — on top of the block
// (message-flow-graph) representation.
//
// Layers execute Algorithm 1's inner loop: destinations are grouped into
// degree buckets within each block and the aggregator runs batched per
// bucket. Pool, LSTM and GAT gather each bucket's neighbors into fixed-shape
// (padding-free, since every member shares the degree) tensors; the mean
// aggregator, whose backward never reads them, accumulates neighbor rows
// straight into the aggregate (meanAggregate). Every layer's forward returns
// a cache whose Bytes() enumerates the activations a CUDA framework would
// keep resident for the backward pass — the quantity the simulated GPU
// charges and Buffalo's analytical model estimates. For the mean aggregator
// that footprint is modelled: the gathered tensors a device kernel
// materialises are charged although the host holds none of them.
package gnn

import (
	"fmt"
	"math/rand"
	"sort"

	"buffalo/internal/block"
	"buffalo/internal/nn"
	"buffalo/internal/tensor"
)

// Aggregator selects the GraphSAGE neighborhood reduction.
type Aggregator string

// Supported aggregators, in increasing memory appetite.
const (
	Mean Aggregator = "mean"
	Pool Aggregator = "pool"
	LSTM Aggregator = "lstm"
)

// Arch selects the model family.
type Arch string

// Supported architectures.
const (
	SAGE Arch = "sage"
	GAT  Arch = "gat"
)

// Config describes a model.
type Config struct {
	Arch       Arch
	Aggregator Aggregator // SAGE only
	Layers     int
	InDim      int
	Hidden     int
	OutDim     int
	// Heads is the GAT attention-head count; 0 or 1 is single-head. Hidden
	// and OutDim must be divisible by Heads (the heads' outputs concatenate).
	Heads int
	Seed  int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Arch != SAGE && c.Arch != GAT {
		return fmt.Errorf("gnn: unknown arch %q", c.Arch)
	}
	if c.Arch == SAGE {
		switch c.Aggregator {
		case Mean, Pool, LSTM:
		default:
			return fmt.Errorf("gnn: unknown aggregator %q", c.Aggregator)
		}
	}
	if c.Layers < 1 {
		return fmt.Errorf("gnn: need at least 1 layer, got %d", c.Layers)
	}
	if c.InDim < 1 || c.Hidden < 1 || c.OutDim < 2 {
		return fmt.Errorf("gnn: bad dims in=%d hidden=%d out=%d", c.InDim, c.Hidden, c.OutDim)
	}
	if c.Arch == GAT && c.Heads > 1 {
		if c.Hidden%c.Heads != 0 || c.OutDim%c.Heads != 0 {
			return fmt.Errorf("gnn: hidden %d and out %d must divide into %d heads", c.Hidden, c.OutDim, c.Heads)
		}
	}
	return nil
}

// LayerCache is the retained state of one layer's forward pass.
type LayerCache interface {
	// Bytes reports the activation footprint a device holds for backward.
	// For the SAGE mean aggregator the per-bucket gathered tensors in it are
	// modelled, not host memory.
	Bytes() int64
}

// Layer is one GNN layer operating on a block.
type Layer interface {
	// Forward computes destination representations from source
	// representations. With a nil idx, xsrc has one row per blk.Src entry;
	// otherwise xsrc is a table and source s is its row idx[s] (layer 0 reads
	// the feature table this way). The cache keeps xsrc and idx for Backward.
	Forward(blk *block.Block, xsrc *tensor.Matrix, idx []int32) (*tensor.Matrix, LayerCache, error)
	// Backward consumes the matching Forward's cache and the upstream
	// gradient and accumulates parameter gradients. With needDX it also
	// returns the gradient with respect to xsrc; without, it returns nil and
	// does none of the work only that gradient needs, while every parameter
	// gradient stays bit-identical.
	Backward(cache LayerCache, dH *tensor.Matrix, needDX bool) (*tensor.Matrix, error)
	// PlannedCacheBytes reports, from tensor shapes alone, exactly the
	// bytes the matching Forward's cache will occupy — what a CUDA
	// framework would reserve before launching the kernels (modelled, for
	// the mean aggregator's gathered tensors). Equal to the cache's Bytes().
	// A pure function of the block and the layer dims: safe to call between
	// a Forward and its Backward.
	PlannedCacheBytes(blk *block.Block) int64
}

// Model is a stack of layers plus its parameter set.
type Model struct {
	Cfg    Config
	Layers []Layer
	Params *nn.ParamSet
}

// New builds a model per the config with deterministic initialization.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Params: &nn.ParamSet{}}
	for l := 0; l < cfg.Layers; l++ {
		in := cfg.Hidden
		if l == 0 {
			in = cfg.InDim
		}
		out := cfg.Hidden
		final := l == cfg.Layers-1
		if final {
			out = cfg.OutDim
		}
		name := fmt.Sprintf("layer%d", l)
		var layer Layer
		switch cfg.Arch {
		case SAGE:
			layer = newSAGELayer(name, cfg.Aggregator, in, out, !final, rng, m.Params)
		case GAT:
			layer = newGATLayer(name, in, out, cfg.Heads, !final, rng, m.Params)
		}
		m.Layers = append(m.Layers, layer)
	}
	return m, nil
}

// ForwardResult carries everything Backward needs.
type ForwardResult struct {
	Logits *tensor.Matrix
	caches []LayerCache
}

// ActivationBytes sums the cached activation footprint of all layers — every
// tensor that stays resident on the device between forward and backward.
// The logits are the final layer's pre-activation, already counted by its
// cache.
func (r *ForwardResult) ActivationBytes() int64 {
	var total int64
	for _, c := range r.caches {
		total += c.Bytes()
	}
	return total
}

// ForwardWithHook runs the model over a micro-batch. features holds one row
// per mb.InputNodes() entry (the innermost source frontier); ForwardTable
// reads the same rows from a whole feature table instead. A non-nil hook is
// invoked with each layer's planned activation bytes BEFORE that layer
// computes. The trainer uses it to charge the simulated GPU layer by layer,
// so an out-of-memory fault fires exactly where a CUDA allocation would fail
// — without paying for compute the device could not have held. A non-nil
// error from the hook aborts the pass.
func (m *Model) ForwardWithHook(mb *block.MicroBatch, features *tensor.Matrix,
	hook func(layer int, plannedBytes int64) error) (*ForwardResult, error) {
	if len(mb.Blocks) != len(m.Layers) {
		return nil, fmt.Errorf("gnn: micro-batch has %d blocks for %d layers", len(mb.Blocks), len(m.Layers))
	}
	if features.Rows != mb.Blocks[0].NumSrc() || features.Cols != m.Cfg.InDim {
		return nil, fmt.Errorf("gnn: features %dx%d, want %dx%d",
			features.Rows, features.Cols, mb.Blocks[0].NumSrc(), m.Cfg.InDim)
	}
	return m.forward(mb, features, nil, hook)
}

// ForwardTable is ForwardWithHook reading layer 0's inputs in place: table
// holds one feature row per graph node ([nodes x InDim]), and the micro-batch's
// input nodes index it, so no [len(InputNodes()) x InDim] copy is made. The
// result has the bits ForwardWithHook gives for the gathered rows.
func (m *Model) ForwardTable(mb *block.MicroBatch, table *tensor.Matrix,
	hook func(layer int, plannedBytes int64) error) (*ForwardResult, error) {
	if len(mb.Blocks) != len(m.Layers) {
		return nil, fmt.Errorf("gnn: micro-batch has %d blocks for %d layers", len(mb.Blocks), len(m.Layers))
	}
	if table.Cols != m.Cfg.InDim {
		return nil, fmt.Errorf("gnn: feature table is %d wide, want %d", table.Cols, m.Cfg.InDim)
	}
	inputs := mb.InputNodes()
	for _, v := range inputs {
		if uint(v) >= uint(table.Rows) {
			return nil, fmt.Errorf("gnn: input node %d outside the %d-row feature table", v, table.Rows)
		}
	}
	return m.forward(mb, table, inputs, hook)
}

// forward runs the layers: layer 0 reads x through idx (nil: x's rows are the
// inputs themselves), every later layer its predecessor's output.
func (m *Model) forward(mb *block.MicroBatch, x *tensor.Matrix, idx []int32,
	hook func(layer int, plannedBytes int64) error) (*ForwardResult, error) {
	res := &ForwardResult{caches: make([]LayerCache, len(m.Layers))}
	for l, layer := range m.Layers {
		if hook != nil {
			if err := hook(l, layer.PlannedCacheBytes(mb.Blocks[l])); err != nil {
				return nil, err
			}
		}
		h, cache, err := layer.Forward(mb.Blocks[l], x, idx)
		if err != nil {
			return nil, fmt.Errorf("gnn: layer %d: %w", l, err)
		}
		res.caches[l] = cache
		x, idx = h, nil
	}
	res.Logits = x
	return res, nil
}

// SetArena routes every layer's per-micro-batch tensors — gathered neighbor
// steps, aggregates, pre-activations, backward intermediates — through a
// shared iteration arena instead of fresh allocations. nil restores plain
// allocation. The caller owns the arena's lifetime and must Reset it only at
// micro-batch boundaries: layer caches are arena-scoped, which is safe
// because backward always completes before the next micro-batch's forward on
// the same model.
func (m *Model) SetArena(a *tensor.Arena) {
	for _, l := range m.Layers {
		if s, ok := l.(interface{ setArena(*tensor.Arena) }); ok {
			s.setArena(a)
		}
	}
}

// Backward propagates dLogits through the stack, accumulating parameter
// gradients. Each layer is asked for its input gradient only when a layer
// below consumes it: the input features are data, not parameters, so layer 0
// computes none and the returned matrix is always nil.
func (m *Model) Backward(res *ForwardResult, dLogits *tensor.Matrix) (*tensor.Matrix, error) {
	d := dLogits
	for l := len(m.Layers) - 1; l >= 0; l-- {
		var err error
		d, err = m.Layers[l].Backward(res.caches[l], d, l > 0)
		if err != nil {
			return nil, fmt.Errorf("gnn: layer %d backward: %w", l, err)
		}
	}
	return d, nil
}

// degreeBucket groups block destinations that share a neighbor count.
type degreeBucket struct {
	degree int
	rows   []int32 // destination indices within the block
}

// blockBuckets is the reusable scratch that groups a block's destinations by
// degree, ascending. This is Algorithm 1 line 5 applied inside a layer:
// identical degrees mean identical tensor shapes, so each bucket runs as one
// batched aggregation with zero padding waste. Each layer owns one: the row
// slices it hands out alias the scratch's map values, which are truncated
// and refilled on the next call — valid because a layer's forward and
// backward both finish before the same layer bucketizes again (one
// micro-batch at a time per model).
type blockBuckets struct {
	byDeg   map[int][]int32
	degrees []int
	slab    []degreeBucket
}

func (sc *blockBuckets) bucketize(blk *block.Block) []degreeBucket {
	if sc.byDeg == nil {
		sc.byDeg = map[int][]int32{}
	}
	for d, rows := range sc.byDeg {
		sc.byDeg[d] = rows[:0]
	}
	for i := range blk.Adj {
		d := len(blk.Adj[i])
		sc.byDeg[d] = append(sc.byDeg[d], int32(i))
	}
	sc.degrees = sc.degrees[:0]
	for d, rows := range sc.byDeg {
		if len(rows) > 0 {
			sc.degrees = append(sc.degrees, d)
		}
	}
	sort.Ints(sc.degrees)
	if cap(sc.slab) < len(sc.degrees) {
		sc.slab = make([]degreeBucket, len(sc.degrees))
	}
	sc.slab = sc.slab[:len(sc.degrees)]
	for i, d := range sc.degrees {
		sc.slab[i] = degreeBucket{degree: d, rows: sc.byDeg[d]}
	}
	return sc.slab
}

// checkInput validates a layer's input against its block: in columns, and one
// row per source — xsrc's own rows, or as many idx entries into a table (whose
// range the kernels and ForwardTable check).
func checkInput(kind, name string, in int, blk *block.Block, xsrc *tensor.Matrix, idx []int32) error {
	if xsrc.Cols != in {
		return fmt.Errorf("%s %s: input dim %d, want %d", kind, name, xsrc.Cols, in)
	}
	rows := xsrc.Rows
	if idx != nil {
		rows = len(idx)
	}
	if rows != blk.NumSrc() {
		return fmt.Errorf("%s %s: %d feature rows for %d src nodes", kind, name, rows, blk.NumSrc())
	}
	return nil
}

// srcRow is the row of src that holds block source s: s itself, or idx[s]
// when src is a table idx indexes.
func srcRow(idx []int32, s int32) int {
	if idx == nil {
		return int(s)
	}
	return int(idx[s])
}

// gatherTimesteps appends the bucket's neighbor tensors to dst: one
// [len(rows) x dim] matrix per neighbor position t, where row i holds the
// features of the t-th sampled neighbor of destination rows[i] (read through
// idx when xsrc is a table, see srcRow). Shared shape within a bucket is what
// makes degree bucketing padding-free. Matrices come from the arena (nil-safe:
// falls back to fresh allocation).
func gatherTimesteps(dst []*tensor.Matrix, a *tensor.Arena, blk *block.Block, rows []int32, degree int, xsrc *tensor.Matrix, idx []int32) []*tensor.Matrix {
	dim := xsrc.Cols
	for t := 0; t < degree; t++ {
		m := a.Get(len(rows), dim)
		for i, r := range rows {
			copy(m.Row(i), xsrc.Row(srcRow(idx, blk.Adj[r][t])))
		}
		dst = append(dst, m)
	}
	return dst
}

// gatherStacked is gatherTimesteps into one matrix in nn.LSTMCell's stacked
// layout: dst [degree*len(rows) x src.Cols] holds the neighbor positions as
// blocks of len(rows) rows, last position first.
func gatherStacked(dst *tensor.Matrix, blk *block.Block, rows []int32, degree int, src *tensor.Matrix, idx []int32) {
	for t := 0; t < degree; t++ {
		base := (degree - 1 - t) * len(rows)
		for i, r := range rows {
			copy(dst.Row(base+i), src.Row(srcRow(idx, blk.Adj[r][t])))
		}
	}
}

// meanAggregate is the mean aggregator's forward over one degree bucket,
// fused: each of the bucket's rows of dst becomes the mean of its neighbors'
// src rows (tensor.MeanRowsInto, which fixes the float32 chain and runs it at
// vector width where it can). No gathered [len(rows) x degree x dim] tensor
// exists on the host; every neighbor row is read once, straight into the
// destination row, and the result has the bits gathering the positions,
// summing them with AddInPlace, Scale and scatterAddRows into a zeroed dst
// produce. When src is a table idx indexes, each destination's neighbor list
// is first composed through idx into nbr (at least degree long), position by
// position, and MeanRowsInto's range check guards the composed rows.
// Single-threaded by design.
func meanAggregate(dst *tensor.Matrix, blk *block.Block, rows []int32, degree int, src *tensor.Matrix, idx, nbr []int32) {
	for _, r := range rows {
		list := blk.Adj[r][:degree]
		if idx != nil {
			comp := nbr[:degree]
			for t, s := range list {
				comp[t] = idx[s]
			}
			list = comp
		}
		tensor.MeanRowsInto(dst.Row(int(r)), src, list)
	}
}

// scatterAddMean is meanAggregate's backward over one degree bucket: each of
// the bucket's rows of dAgg is scaled by 1/degree in place — buckets partition
// the rows, so none is scaled twice — and added to every src row it averaged,
// position by position in ascending order.
func scatterAddMean(dst *tensor.Matrix, blk *block.Block, rows []int32, degree int, dAgg *tensor.Matrix) {
	scale := 1 / float32(degree)
	for _, r := range rows {
		row := dAgg.Row(int(r))
		for j := range row {
			row[j] *= scale
		}
	}
	for t := 0; t < degree; t++ {
		for _, r := range rows {
			drow := dst.Row(int(blk.Adj[r][t]))
			for j, v := range dAgg.Row(int(r)) {
				drow[j] += v
			}
		}
	}
}

// edgeCounts scans a block once for the two sums every layer's footprint is
// linear in: its edges and its non-isolated destinations.
func edgeCounts(blk *block.Block) (edges, nonIsolated int64) {
	for _, nbrs := range blk.Adj {
		if len(nbrs) > 0 {
			edges += int64(len(nbrs))
			nonIsolated++
		}
	}
	return edges, nonIsolated
}

// scatterAddStacked is gatherStacked's backward: every row of src (stacked
// like gatherStacked's dst) is added to the dst row it was gathered from,
// position by position in ascending order.
func scatterAddStacked(dst *tensor.Matrix, blk *block.Block, rows []int32, degree int, src *tensor.Matrix) {
	for t := 0; t < degree; t++ {
		base := (degree - 1 - t) * len(rows)
		for i, r := range rows {
			drow := dst.Row(int(blk.Adj[r][t]))
			for j, v := range src.Row(base + i) {
				drow[j] += v
			}
		}
	}
}

// scatterAddRows adds each row of src into dst at the given row indices.
func scatterAddRows(dst *tensor.Matrix, rows []int32, src *tensor.Matrix) {
	for i, r := range rows {
		drow := dst.Row(int(r))
		srow := src.Row(i)
		for j, v := range srow {
			drow[j] += v
		}
	}
}

// gatherRows collects the given rows of src into an arena-backed matrix
// (nil-safe: falls back to fresh allocation).
func gatherRows(a *tensor.Arena, src *tensor.Matrix, rows []int32) *tensor.Matrix {
	out := a.Get(len(rows), src.Cols)
	for i, r := range rows {
		copy(out.Row(i), src.Row(int(r)))
	}
	return out
}
