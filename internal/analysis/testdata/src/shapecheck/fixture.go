// Package fixture seeds shapecheck violations for the analyzer's unit test.
package fixture

import "buffalo/internal/tensor"

const hidden = 16

// NegativeDim passes a negative literal column count.
func NegativeDim() *tensor.Matrix {
	return tensor.New(3, -1) // want:shapecheck
}

// ZeroDim passes a zero row count.
func ZeroDim() *tensor.Matrix {
	return tensor.New(0, 4) // want:shapecheck
}

// FoldedNegative folds a negative constant expression.
func FoldedNegative() *tensor.Matrix {
	return tensor.New(hidden-32, 4) // want:shapecheck
}

// Mismatch multiplies 2x3 by 4x5.
func Mismatch(out *tensor.Matrix) {
	a := tensor.New(2, 3)
	b := tensor.New(4, 5)
	tensor.MatMulInto(out, a, b, false) // want:shapecheck
}

// MismatchATB violates the transpose contraction rule (a.Rows == b.Rows).
func MismatchATB() {
	a := tensor.New(2, 3)
	b := tensor.New(3, 5)
	out := tensor.New(3, 5)
	tensor.MatMulATBInto(out, a, b, false) // want:shapecheck
}

// MismatchInline checks operands built inline.
func MismatchInline(out *tensor.Matrix) {
	tensor.MatMulABTInto(out, tensor.New(2, hidden), tensor.New(4, hidden+1), false) // want:shapecheck
}

// OK is a compatible product: clean.
func OK(out *tensor.Matrix) {
	a := tensor.New(2, hidden)
	b := tensor.New(hidden, 5)
	tensor.MatMulInto(out, a, b, false)
}

// Unknown dims stay silent: clean.
func Unknown(n int, out *tensor.Matrix) {
	a := tensor.New(n, 3)
	b := tensor.New(4, 5)
	tensor.MatMulInto(out, a, b, false)
}
