package nn

import (
	"fmt"
	"math/rand"

	"buffalo/internal/tensor"
)

// LSTMCell is a standard LSTM with concatenated gate weights in i,f,g,o
// order. GraphSAGE's LSTM aggregator runs the cell over a node's neighbor
// features as a sequence and takes the final hidden state; that use is
// exactly what RunSequence/BackwardSequence implement (full BPTT).
type LSTMCell struct {
	In, Hidden int
	Wx         *Param // [in x 4h]
	Wh         *Param // [h x 4h]
	B          *Param // [1 x 4h]
}

// NewLSTMCell builds a Glorot-initialized LSTM cell.
func NewLSTMCell(name string, in, hidden int, rng *rand.Rand) *LSTMCell {
	c := &LSTMCell{
		In: in, Hidden: hidden,
		Wx: NewParam(name+".Wx", in, 4*hidden),
		Wh: NewParam(name+".Wh", hidden, 4*hidden),
		B:  NewParam(name+".b", 1, 4*hidden),
	}
	c.Wx.InitXavier(rng)
	c.Wh.InitXavier(rng)
	// Forget-gate bias starts at 1: standard trick to let gradients flow
	// through early training.
	for j := hidden; j < 2*hidden; j++ {
		c.B.Value.Data[j] = 1
	}
	return c
}

// Register adds the cell's parameters to ps.
func (c *LSTMCell) Register(ps *ParamSet) { ps.MustAdd(c.Wx, c.Wh, c.B) }

// lstmStep caches everything one timestep's backward pass needs.
type lstmStep struct {
	x          *tensor.Matrix // input at this step [n x in]
	hPrev      *tensor.Matrix // [n x h]
	cPrev      *tensor.Matrix // [n x h]
	i, f, g, o *tensor.Matrix // gate activations [n x h]
	c          *tensor.Matrix // new cell state [n x h]
	tanhC      *tensor.Matrix // tanh(c) [n x h]
}

// LSTMCache stores the forward trajectory RunSequence produced; pass it to
// BackwardSequence.
type LSTMCache struct {
	steps []lstmStep
	n     int
}

// Bytes reports the activation footprint of the cached trajectory — the
// quantity the simulated GPU charges for LSTM aggregation working memory.
func (c *LSTMCache) Bytes() int64 {
	var b int64
	for _, s := range c.steps {
		b += s.x.Bytes() + s.hPrev.Bytes() + s.cPrev.Bytes() +
			s.i.Bytes() + s.f.Bytes() + s.g.Bytes() + s.o.Bytes() +
			s.c.Bytes() + s.tanhC.Bytes()
	}
	return b
}

// RunSequence feeds xs[0..T-1] (each [n x in]) through the cell starting from
// zero state and returns the final hidden state [n x hidden] plus the cache
// for backward. An empty sequence returns a zero hidden state.
func (c *LSTMCell) RunSequence(xs []*tensor.Matrix) (*tensor.Matrix, *LSTMCache) {
	if len(xs) == 0 {
		return tensor.New(0, c.Hidden), &LSTMCache{} //buffalo:vet-ignore shapecheck empty sequence yields an empty hidden state
	}
	n := xs[0].Rows
	h := tensor.New(n, c.Hidden)
	cs := tensor.New(n, c.Hidden)
	cache := &LSTMCache{n: n, steps: make([]lstmStep, 0, len(xs))}
	for _, x := range xs {
		if x.Rows != n || x.Cols != c.In {
			panic(fmt.Sprintf("nn: lstm input %dx%d, want %dx%d", x.Rows, x.Cols, n, c.In))
		}
		z := tensor.MatMul(x, c.Wx.Value)
		tensor.MatMulInto(z, h, c.Wh.Value, true)
		z.AddRowVector(c.B.Value)
		i, f, g, o := c.splitGates(z)
		i.Apply(sigmoidScalar)
		f.Apply(sigmoidScalar)
		g = Tanh(g)
		o.Apply(sigmoidScalar)
		newC := tensor.Hadamard(f, cs)
		newC.AddInPlace(tensor.Hadamard(i, g))
		tanhC := Tanh(newC)
		newH := tensor.Hadamard(o, tanhC)
		cache.steps = append(cache.steps, lstmStep{
			x: x, hPrev: h, cPrev: cs,
			i: i, f: f, g: g, o: o, c: newC, tanhC: tanhC,
		})
		h, cs = newH, newC
	}
	return h, cache
}

// splitGates copies z's four gate blocks into separate [n x h] matrices
// (i, f, g, o order). g is returned pre-activation; callers apply tanh.
func (c *LSTMCell) splitGates(z *tensor.Matrix) (i, f, g, o *tensor.Matrix) {
	n, h := z.Rows, c.Hidden
	i, f, g, o = tensor.New(n, h), tensor.New(n, h), tensor.New(n, h), tensor.New(n, h)
	for r := 0; r < n; r++ {
		row := z.Row(r)
		copy(i.Row(r), row[0:h])
		copy(f.Row(r), row[h:2*h])
		copy(g.Row(r), row[2*h:3*h])
		copy(o.Row(r), row[3*h:4*h])
	}
	return i, f, g, o
}

// BackwardSequence backpropagates dhFinal (gradient of the final hidden
// state, [n x hidden]) through the cached trajectory, accumulating weight
// gradients and returning the gradient for each input timestep.
func (c *LSTMCell) BackwardSequence(cache *LSTMCache, dhFinal *tensor.Matrix) []*tensor.Matrix {
	dxs := make([]*tensor.Matrix, len(cache.steps))
	c.backward(cache, dhFinal, dxs)
	return dxs
}

// BackwardParams is BackwardSequence for a caller that discards the input
// gradients: it accumulates the same weight gradients, bit for bit, and
// skips the per-timestep dz @ Wxᵀ products.
func (c *LSTMCell) BackwardParams(cache *LSTMCache, dhFinal *tensor.Matrix) {
	c.backward(cache, dhFinal, nil)
}

// backward runs BPTT over the cached trajectory; a non-nil dxs (one slot per
// timestep) receives the input gradients.
func (c *LSTMCell) backward(cache *LSTMCache, dhFinal *tensor.Matrix, dxs []*tensor.Matrix) {
	T := len(cache.steps)
	if T == 0 {
		return
	}
	n := cache.n
	dh := dhFinal.Clone()
	dc := tensor.New(n, c.Hidden)
	for t := T - 1; t >= 0; t-- {
		s := cache.steps[t]
		// h = o ⊙ tanh(c)
		do := tensor.Hadamard(dh, s.tanhC)
		dtc := tensor.Hadamard(dh, s.o)
		// dc += dtc ⊙ (1 - tanh²(c))
		for i2, tv := range s.tanhC.Data {
			dc.Data[i2] += dtc.Data[i2] * (1 - tv*tv)
		}
		// c = f ⊙ cPrev + i ⊙ g
		di := tensor.Hadamard(dc, s.g)
		dg := tensor.Hadamard(dc, s.i)
		df := tensor.Hadamard(dc, s.cPrev)
		dcPrev := tensor.Hadamard(dc, s.f)
		// Gate pre-activations.
		dzi := SigmoidBackwardFromOutput(s.i, di)
		dzf := SigmoidBackwardFromOutput(s.f, df)
		dzg := TanhBackwardFromOutput(s.g, dg)
		dzo := SigmoidBackwardFromOutput(s.o, do)
		dz := c.concatGates(dzi, dzf, dzg, dzo)
		// Parameter gradients.
		tensor.MatMulATBInto(c.Wx.Grad, s.x, dz, true)
		tensor.MatMulATBInto(c.Wh.Grad, s.hPrev, dz, true)
		c.B.Grad.AddInPlace(dz.SumRows())
		// Input and recurrent gradients; nothing precedes step 0 to read dh.
		if dxs != nil {
			dxs[t] = tensor.MatMulABT(dz, c.Wx.Value)
		}
		if t > 0 {
			dh = tensor.MatMulABT(dz, c.Wh.Value)
		}
		dc = dcPrev
	}
}

// concatGates packs four [n x h] gate gradients back into one [n x 4h] block.
func (c *LSTMCell) concatGates(i, f, g, o *tensor.Matrix) *tensor.Matrix {
	n, h := i.Rows, c.Hidden
	z := tensor.New(n, 4*h)
	for r := 0; r < n; r++ {
		row := z.Row(r)
		copy(row[0:h], i.Row(r))
		copy(row[h:2*h], f.Row(r))
		copy(row[2*h:3*h], g.Row(r))
		copy(row[3*h:4*h], o.Row(r))
	}
	return z
}
