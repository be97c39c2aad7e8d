package nn

import (
	"math"

	"buffalo/internal/tensor"
)

// ReLUInto writes max(0, x) into dst (same shape) and returns dst. The hot
// paths pass an arena-backed dst so steady-state training allocates nothing.
func ReLUInto(dst, x *tensor.Matrix) *tensor.Matrix {
	dst.CopyFrom(x)
	for i, v := range dst.Data {
		if v < 0 {
			dst.Data[i] = 0
		}
	}
	return dst
}

// ReLUBackwardInto writes dy masked by the forward input's sign,
// dx = dy ⊙ 1[x > 0], into dst (same shape as dy) and returns dst.
func ReLUBackwardInto(dst, x, dy *tensor.Matrix) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] = 0
		}
	}
	return dst
}

// LeakyReLUInto writes x for x>0 and slope*x otherwise into dst and returns
// dst.
func LeakyReLUInto(dst, x *tensor.Matrix, slope float32) *tensor.Matrix {
	dst.CopyFrom(x)
	for i, v := range dst.Data {
		if v < 0 {
			dst.Data[i] = slope * v
		}
	}
	return dst
}

// LeakyReLUBackwardInto writes dy scaled by the forward slope at each
// element into dst and returns dst.
func LeakyReLUBackwardInto(dst, x, dy *tensor.Matrix, slope float32) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] *= slope
		}
	}
	return dst
}

// ELUInto writes x for x>0 and alpha*(e^x - 1) otherwise into dst and
// returns dst.
func ELUInto(dst, x *tensor.Matrix, alpha float32) *tensor.Matrix {
	dst.CopyFrom(x)
	for i, v := range dst.Data {
		if v <= 0 {
			dst.Data[i] = alpha * float32(math.Expm1(float64(v)))
		}
	}
	return dst
}

// ELUBackwardInto writes dx given the forward INPUT x and OUTPUT y,
// dx = dy for x>0 and dy*(y+alpha) otherwise, into dst and returns dst.
func ELUBackwardInto(dst, x, y, dy *tensor.Matrix, alpha float32) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] *= y.Data[i] + alpha
		}
	}
	return dst
}
