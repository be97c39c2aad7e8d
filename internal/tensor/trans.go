package tensor

import "math"

// The transcendental maps. Each element is the float64 function of the
// toolchain's math package on the widened float32, rounded back once:
//
//	exp:     float32(math.Exp(float64(x)))
//	sigmoid: float32(1 / (1 + math.Exp(-float64(x))))
//	tanh:    float32(math.Tanh(float64(x)))
//
// exp32, sigmoid32 and tanh32 below are those definitions, the portable path
// and the oracle. Where the build has it and the CPU runs it (useVector &&
// haveFMA), trans_amd64.s computes the same float64 operations four lanes at a
// time — math.archExp's FMA sequence and math.tanh's branches, not an
// approximation of them — and hands back any group of four it cannot
// reproduce bit for bit (a NaN, an overflow, a denormal or zero exp), which
// then runs here one element at a time. Both paths give every bit of every
// result, NaN payloads included.

const (
	transExp = iota
	transSigmoid
	transTanh
	transExp64 // the kernel's exp on float64 elements, for the tests
)

func exp32(v float32) float32 { return float32(math.Exp(float64(v))) }

func sigmoid32(v float32) float32 { return float32(1 / (1 + math.Exp(-float64(v)))) }

func tanh32(v float32) float32 { return float32(math.Tanh(float64(v))) }

// SigmoidInto writes the logistic sigmoid of each element of src into the
// same element of dst. dst and src are the same slice or do not overlap.
func SigmoidInto(dst, src []float32) { transInto("SigmoidInto", dst, src, transSigmoid) }

// TanhInto writes the hyperbolic tangent of each element of src into the same
// element of dst. dst and src are the same slice or do not overlap.
func TanhInto(dst, src []float32) { transInto("TanhInto", dst, src, transTanh) }

// expInto is SigmoidInto for exp (SoftmaxRowsInto's).
func expInto(dst, src []float32) { transInto("expInto", dst, src, transExp) }

func transInto(op string, dst, src []float32, f int) {
	if len(dst) != len(src) {
		panicShape(op+" lengths", 1, len(dst), 1, len(src))
	}
	dst = dst[:len(src)]
	i := 0
	for useVector && haveFMA && len(src)-i >= 4 {
		i += transAVX2(&dst[i], &src[i], len(src)-i, f)
		if len(src)-i < 4 {
			break
		}
		// The kernel stopped at a group it cannot reproduce bit for bit.
		for end := i + 4; i < end; i++ {
			dst[i] = trans32(f, src[i])
		}
	}
	for ; i < len(src); i++ {
		dst[i] = trans32(f, src[i])
	}
}

func trans32(f int, v float32) float32 {
	switch f {
	case transSigmoid:
		return sigmoid32(v)
	case transTanh:
		return tanh32(v)
	}
	return exp32(v)
}
