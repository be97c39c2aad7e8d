package gnn

import (
	"fmt"
	"math/rand"

	"buffalo/internal/block"
	"buffalo/internal/nn"
	"buffalo/internal/tensor"
)

// sageLayer is one GraphSAGE layer:
//
//	h_v = act( x_v @ Wself + AGG({x_u : u in N(v)}) @ Wneigh + b )
//
// where AGG is the configured aggregator run per degree bucket.
type sageLayer struct {
	name   string
	agg    Aggregator
	in     int
	out    int
	act    bool // ReLU on hidden layers, identity on the output layer
	wSelf  *nn.Param
	wNeigh *nn.Param
	bias   *nn.Param
	pool   *nn.Linear   // Pool aggregator's pre-max transform (in -> in)
	lstm   *nn.LSTMCell // LSTM aggregator cell (in -> in)

	// Per-micro-batch reusable state. Micro-batches execute one at a time per
	// model and a layer's backward always completes before its next forward,
	// so the cache struct, bucket-cache slab, and bucketize scratch are safe
	// to recycle. arena (nil-safe) backs every per-micro-batch tensor.
	arena  *tensor.Arena
	bsc    blockBuckets
	cache  sageCache
	bcSlab []*sageBucketCache
	dSteps []*tensor.Matrix // backward per-bucket position gradients
	dActs  []*tensor.Matrix // Pool backward per-position activation grads
	nbr    []int32          // Mean's composed neighbor list when reading a table
}

func (l *sageLayer) setArena(a *tensor.Arena) { l.arena = a }

func newSAGELayer(name string, agg Aggregator, in, out int, act bool, rng *rand.Rand, ps *nn.ParamSet) *sageLayer {
	l := &sageLayer{
		name: name, agg: agg, in: in, out: out, act: act,
		wSelf:  nn.NewParam(name+".Wself", in, out),
		wNeigh: nn.NewParam(name+".Wneigh", in, out),
		bias:   nn.NewParam(name+".b", 1, out),
	}
	l.wSelf.InitXavier(rng)
	l.wNeigh.InitXavier(rng)
	ps.MustAdd(l.wSelf, l.wNeigh, l.bias)
	switch agg {
	case Pool:
		l.pool = nn.NewLinear(name+".pool", in, in, true, rng)
		l.pool.Register(ps)
	case LSTM:
		l.lstm = nn.NewLSTMCell(name+".lstm", in, in, rng)
		l.lstm.Register(ps)
	}
	return l
}

// sageBucketCache retains one degree bucket's forward state.
type sageBucketCache struct {
	rows   []int32
	degree int
	steps  []*tensor.Matrix // Pool: gathered neighbor tensors, one per position (the LSTM's are in sageCache.lstmX)
	agg    *tensor.Matrix   // Pool, LSTM: aggregated neighborhood [len(rows) x in]

	// Mean keeps neither on the host (meanAggregate writes aggAll directly);
	// modelled is the bytes of the steps and agg a device kernel would hold.
	modelled int64

	// Pool aggregator state.
	poolPre []*tensor.Matrix // pre-activation transform per position
	poolAct []*tensor.Matrix // post-ReLU transform per position
	argmax  []int32          // winning position per (row, feature)

	// LSTM aggregator state: the recurrence's trajectory over this bucket.
	lstm nn.LSTMCache
}

func (c *sageBucketCache) bytes() int64 {
	b := c.modelled
	for _, s := range c.steps {
		b += s.Bytes()
	}
	if c.agg != nil {
		b += c.agg.Bytes()
	}
	for _, s := range c.poolPre {
		b += s.Bytes()
	}
	for _, s := range c.poolAct {
		b += s.Bytes()
	}
	b += int64(len(c.argmax)) * 4
	return b + c.lstm.Bytes()
}

// sageCache is one layer's forward state.
type sageCache struct {
	blk  *block.Block
	xsrc *tensor.Matrix
	// xdst holds the destinations' own rows: a prefix view of xsrc (dst rows
	// are the src prefix), or, when dstIdx is set, the table xsrc whose rows
	// dstIdx (the layer input's index, cut to the destinations) names. Not
	// separately allocated either way.
	xdst    tensor.Matrix
	dstIdx  []int32
	aggAll  *tensor.Matrix // aggregated neighborhoods for every destination
	preAct  *tensor.Matrix
	outAct  *tensor.Matrix // post-ReLU output (nil on the final layer)
	buckets []*sageBucketCache

	// lstmX holds the LSTM aggregator's gathered steps, one row per edge:
	// bucket after bucket (ascending degree), each in nn.LSTMCell's stacked
	// layout, so the cell's input-side backward is one product per layer.
	lstmX *tensor.Matrix
}

// Bytes implements LayerCache: every tensor this layer allocated and keeps
// for backward — for Mean, the modelled per-bucket tensors in place of host
// ones. xsrc belongs to the previous layer (or is the feature table, whose
// rows the device copy is charged for on its own) and xdst is a view, so
// neither is counted.
func (c *sageCache) Bytes() int64 {
	b := c.aggAll.Bytes() + c.preAct.Bytes()
	if c.outAct != nil {
		b += c.outAct.Bytes()
	}
	for _, bc := range c.buckets {
		b += bc.bytes()
	}
	if c.lstmX != nil {
		b += c.lstmX.Bytes()
	}
	return b
}

// PlannedCacheBytes implements Layer: the exact footprint Forward's cache
// will report. A bucket of v rows at degree d holds d*v*in of gathered steps
// and v*in of agg, plus 2*d*v*in + v*in for Pool (poolPre, poolAct, argmax)
// or 8*d*v*in for LSTM (the trajectory): every term is linear in d, so the
// sum over buckets needs only the block's edge and non-isolated counts — and
// touches no bucketize scratch a live forward cache aliases.
func (l *sageLayer) PlannedCacheBytes(blk *block.Block) int64 {
	n := int64(blk.NumDst())
	in, out := int64(l.in), int64(l.out)
	b := n*in + n*out // aggAll + preAct
	if l.act {
		b += n * out // outAct
	}
	edges, nonIsolated := edgeCounts(blk)
	switch l.agg {
	case Mean:
		b += in * (edges + nonIsolated)
	case Pool:
		b += in * (3*edges + 2*nonIsolated)
	case LSTM:
		b += in * (9*edges + nonIsolated)
	}
	return b * 4
}

// Forward implements Layer.
func (l *sageLayer) Forward(blk *block.Block, xsrc *tensor.Matrix, idx []int32) (*tensor.Matrix, LayerCache, error) {
	if err := checkInput("sage", l.name, l.in, blk, xsrc, idx); err != nil {
		return nil, nil, err
	}
	nDst, nSrc := blk.NumDst(), blk.NumSrc()
	dbs := l.bsc.bucketize(blk)
	for len(l.bcSlab) < len(dbs) {
		l.bcSlab = append(l.bcSlab, &sageBucketCache{})
	}
	cache := &l.cache
	*cache = sageCache{blk: blk, xsrc: xsrc, buckets: l.bcSlab[:len(dbs)]}
	if idx == nil {
		cache.xdst = xsrc.RowRange(0, nDst) // dst prefix view
	} else {
		cache.xdst, cache.dstIdx = *xsrc, idx[:nDst]
	}
	cache.aggAll = l.arena.Get(nDst, l.in)
	var proj *tensor.Matrix
	edge := 0 // first row of the current bucket in lstmX
	switch l.agg {
	case Mean:
		if n := len(dbs); idx != nil && n > 0 && len(l.nbr) < dbs[n-1].degree {
			l.nbr = make([]int32, dbs[n-1].degree) // buckets ascend: the last is the widest
		}
	case LSTM:
		// Every step's input is a gather of source rows and the projection is
		// row-local, so each source row is projected once here and the buckets
		// gather the projected rows. A transient like dAggAll: not in Bytes().
		// proj is written in full by the non-accumulating product, and lstmX
		// by the buckets' gathers, which between them cover every edge.
		proj = l.arena.GetUninit(nSrc, 4*l.in)
		l.lstm.ProjectInto(proj, xsrc, idx)
		cache.lstmX = l.arena.GetUninit(int(blk.NumEdges()), l.in)
	}

	// Algorithm 1 lines 6-8: one batched aggregation per degree bucket.
	for bi, db := range dbs {
		bc := cache.buckets[bi]
		bc.rows, bc.degree = db.rows, db.degree
		bc.steps = bc.steps[:0]
		bc.agg, bc.modelled = nil, 0
		bc.poolPre = bc.poolPre[:0]
		bc.poolAct = bc.poolAct[:0]
		bc.argmax = bc.argmax[:0]
		bc.lstm.Reset()
		if db.degree == 0 {
			continue // isolated destinations aggregate nothing
		}
		switch l.agg {
		case Mean:
			meanAggregate(cache.aggAll, blk, db.rows, db.degree, xsrc, idx, l.nbr)
			bc.modelled = int64(db.degree+1) * int64(len(db.rows)) * int64(l.in) * 4
			continue
		case Pool:
			bc.steps = gatherTimesteps(bc.steps, l.arena, blk, db.rows, db.degree, xsrc, idx)
			for _, s := range bc.steps {
				pre := l.pool.ForwardInto(l.arena.Get(s.Rows, l.in), s)
				bc.poolPre = append(bc.poolPre, pre)
				bc.poolAct = append(bc.poolAct, nn.ReLUInto(l.arena.Get(s.Rows, l.in), pre))
			}
			agg := l.arena.Get(len(db.rows), l.in)
			agg.CopyFrom(bc.poolAct[0])
			n := len(db.rows) * l.in
			if cap(bc.argmax) < n {
				bc.argmax = make([]int32, n)
			} else {
				bc.argmax = bc.argmax[:n]
				clear(bc.argmax)
			}
			for t := 1; t < db.degree; t++ {
				at := bc.poolAct[t]
				for i, v := range at.Data {
					if v > agg.Data[i] {
						agg.Data[i] = v
						bc.argmax[i] = int32(t)
					}
				}
			}
			bc.agg = agg
		case LSTM:
			m := db.degree * len(db.rows)
			x := cache.lstmX.RowRange(edge, edge+m)
			gatherStacked(&x, blk, db.rows, db.degree, xsrc, idx)
			z := l.arena.GetUninit(m, 4*l.in) // the gather writes every row
			gatherStacked(z, blk, db.rows, db.degree, proj, nil)
			bc.agg = l.lstm.Forward(&bc.lstm, l.arena, z, db.degree)
			edge += m
		}
		scatterAddRows(cache.aggAll, db.rows, bc.agg)
	}

	pre := l.arena.GetUninit(nDst, l.out) // written in full by the non-accumulating MatMulRowsInto below
	tensor.MatMulRowsInto(pre, &cache.xdst, cache.dstIdx, l.wSelf.Value, false)
	tensor.MatMulInto(pre, cache.aggAll, l.wNeigh.Value, true)
	pre.AddRowVector(l.bias.Value)
	cache.preAct = pre
	h := pre
	if l.act {
		h = nn.ReLUInto(l.arena.GetUninit(nDst, l.out), pre) // ReLUInto's CopyFrom writes it in full
		cache.outAct = h
	}
	return h, cache, nil
}

// Backward implements Layer. Without needDX the self-path product, the
// [nSrc x in] gradient tensor and the scatter into it are skipped; the
// neighbor path still runs for Pool and LSTM, whose aggregators own
// parameters, but not for Mean, which has none.
func (l *sageLayer) Backward(cacheI LayerCache, dH *tensor.Matrix, needDX bool) (*tensor.Matrix, error) {
	cache, ok := cacheI.(*sageCache)
	if !ok {
		return nil, fmt.Errorf("sage %s: wrong cache type %T", l.name, cacheI)
	}
	dPre := dH
	if l.act {
		// ReLUBackwardInto's CopyFrom writes the destination in full.
		dPre = nn.ReLUBackwardInto(l.arena.GetUninit(dH.Rows, dH.Cols), cache.preAct, dH)
	}
	// preAct = xdst @ Wself + aggAll @ Wneigh + b
	tensor.MatMulRowsATBInto(l.wSelf.Grad, &cache.xdst, cache.dstIdx, dPre, true)
	tensor.MatMulATBInto(l.wNeigh.Grad, cache.aggAll, dPre, true)
	rowSum := l.arena.Get(1, l.out)
	dPre.SumRowsInto(rowSum)
	l.bias.Grad.AddInPlace(rowSum)
	if !needDX && l.agg == Mean {
		return nil, nil
	}

	var dXsrc *tensor.Matrix
	if needDX {
		dXsrc = l.arena.Get(cache.blk.NumSrc(), l.in)
		// Self path: dst rows are the src prefix.
		dXdst := l.arena.GetUninit(dPre.Rows, l.in) // written in full by the non-accumulating MatMulABTInto below
		tensor.MatMulABTInto(dXdst, dPre, l.wSelf.Value, false)
		copy(dXsrc.Data[:dXdst.Rows*l.in], dXdst.Data)
	}
	// Neighbor path, per bucket.
	dAggAll := l.arena.GetUninit(dPre.Rows, l.in) // written in full by the non-accumulating MatMulABTInto below
	tensor.MatMulABTInto(dAggAll, dPre, l.wNeigh.Value, false)
	var dzAll, whT *tensor.Matrix // LSTM gate gradients, rows as in cache.lstmX; Whᵀ for every bucket
	edge := 0
	if l.agg == LSTM {
		dzAll = l.arena.GetUninit(cache.lstmX.Rows, 4*l.in) // every bucket's Backward overwrites its rows
		whT = l.lstm.PackWh(l.arena)
	}
	for _, bc := range cache.buckets {
		if bc.degree == 0 {
			continue
		}
		if l.agg == Mean { // needDX holds: the same gradient flows to every position
			scatterAddMean(dXsrc, cache.blk, bc.rows, bc.degree, dAggAll)
			continue
		}
		dAgg := gatherRows(l.arena, dAggAll, bc.rows)
		dSteps := l.dSteps[:0]
		switch l.agg {
		case Pool:
			dActs := l.dActs[:0]
			for t := 0; t < bc.degree; t++ {
				dActs = append(dActs, l.arena.Get(len(bc.rows), l.in))
			}
			for i, t := range bc.argmax {
				dActs[t].Data[i] = dAgg.Data[i]
			}
			poolSum := l.arena.Get(1, l.in)
			for t := 0; t < bc.degree; t++ {
				dPrePool := nn.ReLUBackwardInto(l.arena.Get(len(bc.rows), l.in), bc.poolPre[t], dActs[t])
				var dx *tensor.Matrix
				if needDX {
					dx = l.arena.Get(len(bc.rows), l.in)
				}
				dSteps = append(dSteps, l.pool.BackwardInto(dx, poolSum, bc.steps[t], dPrePool))
			}
			l.dActs = dActs[:0]
		case LSTM:
			m := bc.degree * len(bc.rows)
			dz := dzAll.RowRange(edge, edge+m)
			l.lstm.Backward(&bc.lstm, l.arena, whT, dAgg, &dz)
			edge += m
			continue // the input side runs once for the layer, below
		}
		l.dSteps = dSteps[:0]
		if !needDX {
			continue
		}
		// Scatter each position's gradient back to its source rows.
		for t, ds := range dSteps {
			for i, r := range bc.rows {
				src := int(cache.blk.Adj[r][t])
				drow := dXsrc.Row(src)
				srow := ds.Row(i)
				for j, v := range srow {
					drow[j] += v
				}
			}
		}
	}
	if l.agg == LSTM {
		var dxAll *tensor.Matrix
		if needDX {
			dxAll = l.arena.Get(cache.lstmX.Rows, l.in)
		}
		l.lstm.ProjectBackward(dxAll, cache.lstmX, dzAll)
		if needDX {
			edge = 0
			for _, bc := range cache.buckets {
				m := bc.degree * len(bc.rows)
				dx := dxAll.RowRange(edge, edge+m)
				scatterAddStacked(dXsrc, cache.blk, bc.rows, bc.degree, &dx)
				edge += m
			}
		}
	}
	return dXsrc, nil
}
