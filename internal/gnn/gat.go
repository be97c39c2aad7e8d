package gnn

import (
	"fmt"
	"math/rand"

	"buffalo/internal/block"
	"buffalo/internal/nn"
	"buffalo/internal/tensor"
)

const gatLeakySlope = 0.2

// gatLayer is a multi-head graph attention layer (GATv1). Per head h:
//
//	z_u    = x_u @ W_h
//	e_iu   = LeakyReLU(a1_h·z_i + a2_h·z_u)   over u in {i} ∪ N(i)
//	α_i·   = softmax_u(e_iu)
//	o_i,h  = Σ_u α_iu z_u
//
// and the output concatenates the heads: h_i = act([o_i,1 ‖ … ‖ o_i,H]).
// Attention runs per degree bucket: every destination in a bucket has the
// same candidate count (self + degree), so scores and softmax are dense
// fixed-shape tensors without padding.
type gatLayer struct {
	name    string
	in      int
	out     int // total output width = heads * headOut
	heads   int
	headOut int
	act     bool // ELU on hidden layers, identity on the output layer
	w       []*nn.Param
	a1      []*nn.Param // attention vector for the destination, [1 x headOut]
	a2      []*nn.Param // attention vector for the candidate, [1 x headOut]

	// Per-micro-batch reusable state; see sageLayer for the safety argument.
	arena  *tensor.Arena
	bsc    blockBuckets
	cache  gatCache
	bcSlab [][]*gatBucketCache // per head, never truncated (owns the structs)
	views  [][]*gatBucketCache // per head, truncated per-forward view of bcSlab
}

func (l *gatLayer) setArena(a *tensor.Arena) { l.arena = a }

func newGATLayer(name string, in, out, heads int, act bool, rng *rand.Rand, ps *nn.ParamSet) *gatLayer {
	if heads < 1 {
		heads = 1
	}
	l := &gatLayer{
		name: name, in: in, out: out, heads: heads, headOut: out / heads, act: act,
	}
	for h := 0; h < heads; h++ {
		w := nn.NewParam(fmt.Sprintf("%s.h%d.W", name, h), in, l.headOut)
		a1 := nn.NewParam(fmt.Sprintf("%s.h%d.a1", name, h), 1, l.headOut)
		a2 := nn.NewParam(fmt.Sprintf("%s.h%d.a2", name, h), 1, l.headOut)
		w.InitXavier(rng)
		a1.InitXavier(rng)
		a2.InitXavier(rng)
		ps.MustAdd(w, a1, a2)
		l.w = append(l.w, w)
		l.a1 = append(l.a1, a1)
		l.a2 = append(l.a2, a2)
	}
	return l
}

// gatBucketCache retains one head's attention state for one degree bucket.
// Candidate position 0 is the destination itself (the self-loop GAT always
// includes); positions 1..degree are the sampled neighbors.
type gatBucketCache struct {
	rows   []int32
	degree int
	cands  []*tensor.Matrix // z rows per candidate position [v x headOut]
	scores *tensor.Matrix   // pre-LeakyReLU attention logits [v x (degree+1)]
	alpha  *tensor.Matrix   // softmax weights [v x (degree+1)]
}

func (c *gatBucketCache) bytes() int64 {
	var b int64
	for _, m := range c.cands {
		b += m.Bytes()
	}
	return b + c.scores.Bytes() + c.alpha.Bytes()
}

// gatCache is one layer's forward state.
type gatCache struct {
	blk     *block.Block
	xsrc    *tensor.Matrix
	idx     []int32             // the layer input's index into xsrc (nil: identity)
	z       []*tensor.Matrix    // per head [numSrc x headOut]
	preAct  *tensor.Matrix      // concatenated heads [numDst x out]
	outAct  *tensor.Matrix      // post-ELU output (nil when act is false)
	buckets [][]*gatBucketCache // [head][bucket]
}

// Bytes implements LayerCache.
func (c *gatCache) Bytes() int64 {
	b := c.preAct.Bytes()
	for _, z := range c.z {
		b += z.Bytes()
	}
	if c.outAct != nil {
		b += c.outAct.Bytes()
	}
	for _, head := range c.buckets {
		for _, bc := range head {
			b += bc.bytes()
		}
	}
	return b
}

// PlannedCacheBytes implements Layer: the exact footprint Forward's cache
// will report. Per head, a bucket of v rows at degree d holds (d+1)*v*headOut
// of candidates and 2*v*(d+1) of scores and alpha; summed over every bucket
// (isolated destinations keep their self candidate) d+1 totals edges + n, so
// no bucketize — and no refill of the scratch a live forward cache aliases.
func (l *gatLayer) PlannedCacheBytes(blk *block.Block) int64 {
	n, nsrc := int64(blk.NumDst()), int64(blk.NumSrc())
	out, headOut, heads := int64(l.out), int64(l.headOut), int64(l.heads)
	b := heads*nsrc*headOut + n*out // z per head + preAct
	if l.act {
		b += n * out // outAct
	}
	b += heads * (headOut + 2) * (blk.NumEdges() + n)
	return b * 4
}

// Forward implements Layer.
func (l *gatLayer) Forward(blk *block.Block, xsrc *tensor.Matrix, idx []int32) (*tensor.Matrix, LayerCache, error) {
	if err := checkInput("gat", l.name, l.in, blk, xsrc, idx); err != nil {
		return nil, nil, err
	}
	nDst := blk.NumDst()
	degBuckets := l.bsc.bucketize(blk)
	for len(l.bcSlab) < l.heads {
		l.bcSlab = append(l.bcSlab, nil)
		l.views = append(l.views, nil)
	}
	cache := &l.cache
	zBuf := cache.z[:0]
	*cache = gatCache{blk: blk, xsrc: xsrc, idx: idx, z: zBuf, buckets: l.views[:l.heads]}
	cache.preAct = l.arena.Get(nDst, l.out)
	for h := 0; h < l.heads; h++ {
		z := l.arena.Get(blk.NumSrc(), l.headOut)
		tensor.MatMulRowsInto(z, xsrc, idx, l.w[h].Value, false)
		cache.z = append(cache.z, z)
		a1 := l.a1[h].Value.Row(0)
		a2 := l.a2[h].Value.Row(0)
		colBase := h * l.headOut
		for len(l.bcSlab[h]) < len(degBuckets) {
			l.bcSlab[h] = append(l.bcSlab[h], &gatBucketCache{})
		}
		cache.buckets[h] = l.bcSlab[h][:len(degBuckets)]
		for bi, db := range degBuckets {
			v := len(db.rows)
			bc := cache.buckets[h][bi]
			cands := bc.cands[:0]
			self := l.arena.Get(v, l.headOut)
			for i, r := range db.rows {
				copy(self.Row(i), z.Row(int(r)))
			}
			cands = append(cands, self)
			for t := 1; t <= db.degree; t++ {
				m := l.arena.Get(v, l.headOut)
				for i, r := range db.rows {
					copy(m.Row(i), z.Row(int(blk.Adj[r][t-1])))
				}
				cands = append(cands, m)
			}
			scores := l.arena.Get(v, db.degree+1)
			for i := 0; i < v; i++ {
				var selfTerm float32
				srow := self.Row(i)
				for j, av := range a1 {
					selfTerm += av * srow[j]
				}
				for t := 0; t <= db.degree; t++ {
					var candTerm float32
					crow := cands[t].Row(i)
					for j, av := range a2 {
						candTerm += av * crow[j]
					}
					scores.Set(i, t, selfTerm+candTerm)
				}
			}
			lrelu := nn.LeakyReLUInto(l.arena.Get(v, db.degree+1), scores, gatLeakySlope)
			alpha := l.arena.Get(v, db.degree+1)
			tensor.SoftmaxRowsInto(alpha, lrelu)
			*bc = gatBucketCache{rows: db.rows, degree: db.degree, cands: cands, scores: scores, alpha: alpha}
			// h_pre columns [colBase, colBase+headOut): Σ_t α_t ⊙ z_cand.
			for i, r := range db.rows {
				hrow := cache.preAct.Row(int(r))[colBase : colBase+l.headOut]
				for t := 0; t <= db.degree; t++ {
					a := alpha.At(i, t)
					crow := cands[t].Row(i)
					for j, cv := range crow {
						hrow[j] += a * cv
					}
				}
			}
		}
	}
	out := cache.preAct
	if l.act {
		out = nn.ELUInto(l.arena.Get(nDst, l.out), cache.preAct, 1)
		cache.outAct = out
	}
	return out, cache, nil
}

// Backward implements Layer. The attention backward runs either way (W_h, a1
// and a2 take their gradients from it); without needDX only the final
// dZ @ W_hᵀ products and the tensor they fill are skipped.
func (l *gatLayer) Backward(cacheI LayerCache, dH *tensor.Matrix, needDX bool) (*tensor.Matrix, error) {
	cache, ok := cacheI.(*gatCache)
	if !ok {
		return nil, fmt.Errorf("gat %s: wrong cache type %T", l.name, cacheI)
	}
	dPre := dH
	if l.act {
		dPre = nn.ELUBackwardInto(l.arena.Get(dH.Rows, dH.Cols), cache.preAct, cache.outAct, dH, 1)
	}
	var dXsrc *tensor.Matrix
	if needDX {
		dXsrc = l.arena.Get(cache.blk.NumSrc(), l.in)
	}
	for h := 0; h < l.heads; h++ {
		z := cache.z[h]
		dZ := l.arena.Get(z.Rows, l.headOut)
		a1 := l.a1[h].Value.Row(0)
		a2 := l.a2[h].Value.Row(0)
		da1 := l.a1[h].Grad.Row(0)
		da2 := l.a2[h].Grad.Row(0)
		colBase := h * l.headOut

		for _, bc := range cache.buckets[h] {
			v := len(bc.rows)
			// dAlpha from the value path.
			dAlpha := l.arena.Get(v, bc.degree+1)
			for i, r := range bc.rows {
				drow := dPre.Row(int(r))[colBase : colBase+l.headOut]
				for t := 0; t <= bc.degree; t++ {
					crow := bc.cands[t].Row(i)
					var s float32
					for j, dv := range drow {
						s += dv * crow[j]
					}
					dAlpha.Set(i, t, s)
				}
			}
			// Softmax backward: de = α ⊙ (dα - Σ α dα).
			dE := l.arena.Get(v, bc.degree+1)
			for i := 0; i < v; i++ {
				arow := bc.alpha.Row(i)
				darow := dAlpha.Row(i)
				var dotAD float32
				for t, av := range arow {
					dotAD += av * darow[t]
				}
				erow := dE.Row(i)
				for t, av := range arow {
					erow[t] = av * (darow[t] - dotAD)
				}
			}
			// LeakyReLU backward on the raw scores.
			dS := nn.LeakyReLUBackwardInto(l.arena.Get(v, bc.degree+1), bc.scores, dE, gatLeakySlope)
			// scores[i][t] = a1·z_dst(i) + a2·z_cand(i,t).
			for i, r := range bc.rows {
				srow := dS.Row(i)
				var sumDS float32
				for _, sv := range srow {
					sumDS += sv
				}
				selfRow := bc.cands[0].Row(i)
				dzDst := dZ.Row(int(r))
				for j := range a1 {
					da1[j] += sumDS * selfRow[j]
					dzDst[j] += sumDS * a1[j]
				}
				drow := dPre.Row(int(r))[colBase : colBase+l.headOut]
				arow := bc.alpha.Row(i)
				for t := 0; t <= bc.degree; t++ {
					crow := bc.cands[t].Row(i)
					var src int
					if t == 0 {
						src = int(r)
					} else {
						src = int(cache.blk.Adj[r][t-1])
					}
					dzc := dZ.Row(src)
					ds := srow[t]
					at := arow[t]
					for j := range a2 {
						da2[j] += ds * crow[j]
						dzc[j] += ds*a2[j] + at*drow[j]
					}
				}
			}
		}
		// z = xsrc[idx] @ W_h.
		tensor.MatMulRowsATBInto(l.w[h].Grad, cache.xsrc, cache.idx, dZ, true)
		if needDX {
			tensor.MatMulABTInto(dXsrc, dZ, l.w[h].Value, true)
		}
	}
	return dXsrc, nil
}
