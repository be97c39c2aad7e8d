package nn

import (
	"math/rand"
	"strconv"

	"buffalo/internal/tensor"
)

// LSTMCell is a standard LSTM with concatenated gate weights in i,f,g,o
// order. GraphSAGE's LSTM aggregator runs the cell over a node's neighbor
// features as a sequence and takes the final hidden state (full BPTT from the
// zero state).
//
// The cell is split along the one dependency it has. The input side —
// x @ Wx forward, Wx's gradient and the input gradient backward — is
// row-local or a plain sum over rows, so it runs outside the recurrence, once
// for as many sequences as the caller stacks: ProjectInto and
// ProjectBackward. Forward and Backward are the recurrence alone, over one
// batch of n sequences of equal length.
//
// Stacked layout. A T-step batch of n sequences is one [T*n x w] matrix
// holding the steps as blocks of n rows, latest step first: step t is rows
// [(T-1-t)*n, (T-t)*n). Backward walks the steps from the last to the first,
// so in this layout the products that sum over steps (Wx's and Wh's
// gradients) are single GEMMs over consecutive rows, and their float32 sums
// run in the order step-by-step calls would produce.
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

// LSTMCache is the forward trajectory Backward consumes, every matrix in the
// stacked layout. A zero LSTMCache is ready for Forward, and one value can be
// reused for batch after batch. Its matrices live as long as the arena
// Forward drew them from.
type LSTMCache struct {
	n, steps int
	gates    *tensor.Matrix // activated i|f|g|o blocks [T*n x 4h], the caller's z
	c        *tensor.Matrix // cell states [T*n x h]
	tanhC    *tensor.Matrix // tanh(c) [T*n x h]
	h        *tensor.Matrix // hidden states [T*n x h]
	final    tensor.Matrix  // view of h's first block: the last step's hidden state
	zero     []float32      // one row of the state before step 0, never written

	x *tensor.Matrix // RunSequence's stacked inputs; Forward's caller keeps its own
}

// Reset empties the cache, so Bytes reports 0 and Backward does nothing.
func (c *LSTMCache) Reset() { c.n, c.steps, c.x = 0, 0, nil }

// block returns the rows [lo, hi) step t occupies in the stacked layout; step
// t-1's rows are the n after them.
func (c *LSTMCache) block(t int) (lo, hi int) { return (c.steps - 1 - t) * c.n, (c.steps - t) * c.n }

// Bytes reports the activation footprint of the cached trajectory — the
// quantity the simulated GPU charges for LSTM aggregation working memory. It
// is a function of the shapes alone: per step eight [n x h] state matrices
// (previous h and c, four gates, c, tanh(c)), the set a framework that keeps
// each of them as its own tensor holds for backward, plus the inputs when the
// cache holds them (RunSequence).
func (c *LSTMCache) Bytes() int64 {
	if c.steps == 0 {
		return 0
	}
	b := 8 * int64(c.steps) * int64(c.n) * int64(c.h.Cols) * 4
	if c.x != nil {
		b += c.x.Bytes()
	}
	return b
}

// ProjectInto writes the input projection x[idx] @ Wx into z [len(idx) x 4h]
// (x @ Wx into [x.Rows x 4h] for a nil idx), the form Forward takes its inputs
// in. The product is row-local, so the projection of gathered rows is the
// gathered rows of the projection: a caller whose steps repeat rows of one
// matrix projects that matrix once, and rows a table holds need not be copied
// out of it first (tensor.MatMulRowsInto).
func (c *LSTMCell) ProjectInto(z, x *tensor.Matrix, idx []int32) {
	tensor.MatMulRowsInto(z, x, idx, c.Wx.Value, false)
}

// ProjectBackward is ProjectInto's backward: given the gate gradients dz that
// Backward produced for inputs x (same rows, any number of stacked batches),
// it adds xᵀ @ dz to Wx's gradient and, with a non-nil dx [x.Rows x in],
// writes the input gradient dz @ Wxᵀ into it.
func (c *LSTMCell) ProjectBackward(dx, x, dz *tensor.Matrix) {
	tensor.MatMulATBInto(c.Wx.Grad, x, dz, true)
	if dx != nil {
		tensor.MatMulABTInto(dx, dz, c.Wx.Value, false)
	}
}

// Forward runs the recurrence over a stacked batch of steps >= 1 steps from
// the zero state and returns the last step's hidden state [n x hidden], a
// view into cache. z holds the input projections (ProjectInto of the stacked
// inputs); the cell adds the recurrent term and the bias to them, activates
// them in place and keeps z in cache until Backward. Step 0 adds no h @ Wh:
// the state before it is zero by construction, so the product is. Every
// matrix comes from a (nil: plain allocation).
func (c *LSTMCell) Forward(cache *LSTMCache, a *tensor.Arena, z *tensor.Matrix, steps int) *tensor.Matrix {
	hd := c.Hidden
	if steps < 1 || z.Rows%steps != 0 || z.Cols != 4*hd {
		panicLSTM("projection vs [steps x 4h], rows a multiple of steps", z.Rows, z.Cols, steps, 4*hd)
	}
	n := z.Rows / steps
	cache.n, cache.steps, cache.x = n, steps, nil
	cache.gates = z
	// Every step writes its rows of all three in full before any is read.
	cache.c, cache.tanhC, cache.h = a.GetUninit(z.Rows, hd), a.GetUninit(z.Rows, hd), a.GetUninit(z.Rows, hd)
	if len(cache.zero) < hd {
		cache.zero = make([]float32, hd)
	}
	for t := 0; t < steps; t++ {
		lo, hi := cache.block(t)
		zt := z.RowRange(lo, hi)
		if t > 0 {
			hPrev := cache.h.RowRange(hi, hi+n)
			tensor.MatMulInto(&zt, &hPrev, c.Wh.Value, true)
		}
		ct, tct, ht, cPrev := cache.c.RowRange(lo, hi), cache.tanhC.RowRange(lo, hi), cache.h.RowRange(lo, hi), cache.prev(t)
		tensor.LSTMStepInto(&zt, c.B.Value, &cPrev, &ct, &tct, &ht)
	}
	cache.final = cache.h.RowRange(0, n)
	return &cache.final
}

// prev returns the cell state step t reads: step t-1's rows, or for step 0
// the zero state as one row every row shares.
func (c *LSTMCache) prev(t int) tensor.Matrix {
	if t == 0 {
		return tensor.Matrix{Rows: 1, Cols: c.h.Cols, Data: c.zero[:c.h.Cols]}
	}
	_, hi := c.block(t)
	return c.c.RowRange(hi, hi+c.n)
}

// PackWh returns Whᵀ [4h x h] in a matrix from a, the operand Backward
// multiplies every step's gate gradients by. A caller running Backward over
// several batches between two optimizer steps packs it once for all of them.
func (c *LSTMCell) PackWh(a *tensor.Arena) *tensor.Matrix {
	whT := a.GetUninit(4*c.Hidden, c.Hidden)
	tensor.TransposeInto(whT, c.Wh.Value)
	return whT
}

// Backward backpropagates dhFinal (gradient of the last step's hidden state,
// [n x hidden]) through the cached trajectory: it overwrites dz (stacked like
// Forward's z) with the gradient of every step's gate pre-activations and
// accumulates Wh's and the bias's gradients. whT is PackWh's Whᵀ (unread for
// a one-step batch). The input side is the caller's: ProjectBackward(dx, x, dz).
// Step 0 adds nothing to Wh's gradient — its previous hidden state is the
// zero state — and nothing precedes it to read a recurrent gradient. Working
// buffers come from a (nil: plain allocation).
func (c *LSTMCell) Backward(cache *LSTMCache, a *tensor.Arena, whT, dhFinal, dz *tensor.Matrix) {
	T, n, hd := cache.steps, cache.n, c.Hidden
	if T == 0 {
		return
	}
	if dhFinal.Rows != n || dhFinal.Cols != hd {
		panicLSTM("output gradient vs [n x h]", dhFinal.Rows, dhFinal.Cols, n, hd)
	}
	if dz.Rows != T*n || dz.Cols != 4*hd {
		panicLSTM("gate gradient vs [steps*n x 4h]", dz.Rows, dz.Cols, T*n, 4*hd)
	}
	if T > 1 && (whT == nil || whT.Rows != 4*hd || whT.Cols != hd) {
		var rows, cols int
		if whT != nil {
			rows, cols = whT.Rows, whT.Cols
		}
		panicLSTM("packed Wh vs [4h x h]", rows, cols, 4*hd, hd)
	}
	dc := a.Get(n, hd)
	bsum := a.GetUninit(1, 4*hd) // every step overwrites it
	dh := dhFinal
	var dhPrev *tensor.Matrix
	if T > 1 {
		dhPrev = a.GetUninit(n, hd) // overwritten by each step's product
	}
	for t := T - 1; t >= 0; t-- {
		lo, hi := cache.block(t)
		dzt, zt, tct, cPrev := dz.RowRange(lo, hi), cache.gates.RowRange(lo, hi), cache.tanhC.RowRange(lo, hi), cache.prev(t)
		tensor.LSTMStepBackwardInto(&dzt, dc, bsum, &zt, &tct, &cPrev, dh)
		c.B.Grad.AddInPlace(bsum)
		if t > 0 {
			// The same products summed from +0 over ascending k as
			// MatMulABTInto's, without its per-call repack of Wh.
			tensor.MatMulInto(dhPrev, &dzt, whT, false)
			dh = dhPrev
		}
	}
	if T > 1 {
		// Wh.Grad += h_{t-1}ᵀ @ dz_t for t = T-1 .. 1: one sum over rows.
		hPrev, dzs := cache.h.RowRange(n, T*n), dz.RowRange(0, (T-1)*n)
		tensor.MatMulATBInto(c.Wh.Grad, &hPrev, &dzs, true)
	}
}

// RunSequence feeds xs[0..T-1] (each [n x in]) through the cell on plain
// allocation and returns the final hidden state [n x hidden] plus the cache
// for BackwardSequence. An empty sequence returns an empty hidden state.
func (c *LSTMCell) RunSequence(xs []*tensor.Matrix) (*tensor.Matrix, *LSTMCache) {
	cache := &LSTMCache{}
	T := len(xs)
	if T == 0 {
		return &tensor.Matrix{Cols: c.Hidden}, cache
	}
	n := xs[0].Rows
	x := tensor.New(T*n, c.In)
	for t, xt := range xs {
		if xt.Rows != n || xt.Cols != c.In {
			panicLSTM("input vs [n x in]", xt.Rows, xt.Cols, n, c.In)
		}
		copy(x.Data[(T-1-t)*n*c.In:], xt.Data)
	}
	z := tensor.New(T*n, 4*c.Hidden)
	c.ProjectInto(z, x, nil)
	h := c.Forward(cache, nil, z, T)
	cache.x = x
	return h, cache
}

// BackwardSequence backpropagates dhFinal through RunSequence's cache,
// accumulating the weight gradients and returning the gradient for each input
// timestep.
func (c *LSTMCell) BackwardSequence(cache *LSTMCache, dhFinal *tensor.Matrix) []*tensor.Matrix {
	T, n := cache.steps, cache.n
	dxs := make([]*tensor.Matrix, T)
	if T == 0 {
		return dxs
	}
	dz, dx := tensor.New(T*n, 4*c.Hidden), tensor.New(T*n, c.In)
	c.Backward(cache, nil, c.PackWh(nil), dhFinal, dz)
	c.ProjectBackward(dx, cache.x, dz)
	for t := range dxs {
		step := dx.RowRange(cache.block(t))
		dxs[t] = &step
	}
	return dxs
}

// panicLSTM reports a shape violation as "what: RxC vs RxC". The fused loops
// index raw slices, so every shape they assume is checked first; one cold
// function keeps the message formatting off the hot-path allocation census
// (cf. tensor's panicShape).
func panicLSTM(what string, rows, cols, wantRows, wantCols int) {
	panic("nn: lstm " + what + ": " + strconv.Itoa(rows) + "x" + strconv.Itoa(cols) +
		" vs " + strconv.Itoa(wantRows) + "x" + strconv.Itoa(wantCols))
}
