package nn

import (
	"math"

	"buffalo/internal/tensor"
)

// ReLU computes max(0, x) into a new matrix.
func ReLU(x *tensor.Matrix) *tensor.Matrix {
	return ReLUInto(tensor.New(x.Rows, x.Cols), x)
}

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

// ReLUBackward returns dy masked by the forward input's sign:
// dx = dy ⊙ 1[x > 0].
func ReLUBackward(x, dy *tensor.Matrix) *tensor.Matrix {
	return ReLUBackwardInto(tensor.New(dy.Rows, dy.Cols), x, dy)
}

// ReLUBackwardInto is ReLUBackward with a caller-provided dst (same shape as
// dy). Returns dst.
func ReLUBackwardInto(dst, x, dy *tensor.Matrix) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] = 0
		}
	}
	return dst
}

// LeakyReLU computes x for x>0 and slope*x otherwise.
func LeakyReLU(x *tensor.Matrix, slope float32) *tensor.Matrix {
	return LeakyReLUInto(tensor.New(x.Rows, x.Cols), x, slope)
}

// LeakyReLUInto is LeakyReLU with a caller-provided dst. Returns dst.
func LeakyReLUInto(dst, x *tensor.Matrix, slope float32) *tensor.Matrix {
	dst.CopyFrom(x)
	for i, v := range dst.Data {
		if v < 0 {
			dst.Data[i] = slope * v
		}
	}
	return dst
}

// LeakyReLUBackward returns dy scaled by the forward slope at each element.
func LeakyReLUBackward(x, dy *tensor.Matrix, slope float32) *tensor.Matrix {
	return LeakyReLUBackwardInto(tensor.New(dy.Rows, dy.Cols), x, dy, slope)
}

// LeakyReLUBackwardInto is LeakyReLUBackward with a caller-provided dst.
// Returns dst.
func LeakyReLUBackwardInto(dst, x, dy *tensor.Matrix, slope float32) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] *= slope
		}
	}
	return dst
}

// ELU computes x for x>0 and alpha*(e^x - 1) otherwise.
func ELU(x *tensor.Matrix, alpha float32) *tensor.Matrix {
	return ELUInto(tensor.New(x.Rows, x.Cols), x, alpha)
}

// ELUInto is ELU with a caller-provided dst. Returns dst.
func ELUInto(dst, x *tensor.Matrix, alpha float32) *tensor.Matrix {
	dst.CopyFrom(x)
	for i, v := range dst.Data {
		if v <= 0 {
			dst.Data[i] = alpha * float32(math.Expm1(float64(v)))
		}
	}
	return dst
}

// ELUBackward returns dx given the forward INPUT x and OUTPUT y:
// dx = dy for x>0, dy*(y+alpha) otherwise.
func ELUBackward(x, y, dy *tensor.Matrix, alpha float32) *tensor.Matrix {
	return ELUBackwardInto(tensor.New(dy.Rows, dy.Cols), x, y, dy, alpha)
}

// ELUBackwardInto is ELUBackward with a caller-provided dst. Returns dst.
func ELUBackwardInto(dst, x, y, dy *tensor.Matrix, alpha float32) *tensor.Matrix {
	dst.CopyFrom(dy)
	for i, v := range x.Data {
		if v <= 0 {
			dst.Data[i] *= y.Data[i] + alpha
		}
	}
	return dst
}
