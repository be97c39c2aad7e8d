package nn

import (
	"math/rand"

	"buffalo/internal/tensor"
)

// Linear is a fully connected layer y = x @ W + b.
type Linear struct {
	W *Param // [in x out]
	B *Param // [1 x out], nil when bias is disabled
}

// NewLinear builds a Glorot-initialized fully connected layer. Names of the
// underlying parameters are derived from name ("name.W", "name.b").
func NewLinear(name string, in, out int, bias bool, rng *rand.Rand) *Linear {
	l := &Linear{W: NewParam(name+".W", in, out)}
	l.W.InitXavier(rng)
	if bias {
		l.B = NewParam(name+".b", 1, out)
	}
	return l
}

// Register adds the layer's parameters to ps.
func (l *Linear) Register(ps *ParamSet) {
	if l.B != nil {
		ps.MustAdd(l.W, l.B)
		return
	}
	ps.MustAdd(l.W)
}

// ForwardInto computes y = x @ W (+ b) into the caller's y. x is [n x in],
// y [n x out]. Returns y.
func (l *Linear) ForwardInto(y, x *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulInto(y, x, l.W.Value, false)
	if l.B != nil {
		y.AddRowVector(l.B.Value)
	}
	return y
}

// BackwardInto accumulates dW (and db) from upstream gradient dy and writes
// dx = dy @ Wᵀ into the caller's dx ([n x in]); x must be the matrix passed to
// the matching ForwardInto. A layer with a bias needs a 1 x out rowSum scratch
// (overwritten; may be nil for bias-free layers). Returns dx. A nil dx
// accumulates the parameter gradients only: a caller that discards the input
// gradient skips its GEMM.
func (l *Linear) BackwardInto(dx, rowSum, x, dy *tensor.Matrix) *tensor.Matrix {
	tensor.MatMulATBInto(l.W.Grad, x, dy, true)
	if l.B != nil {
		dy.SumRowsInto(rowSum)
		l.B.Grad.AddInPlace(rowSum)
	}
	if dx != nil {
		tensor.MatMulABTInto(dx, dy, l.W.Value, false)
	}
	return dx
}
