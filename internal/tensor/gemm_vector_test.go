package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gemmSalt is what the differential tests salt operands with: both zeros, the
// smallest and an ordinary denormal, values whose products overflow and
// underflow, both infinities, and NaNs of both signs.
var gemmSalt = []float32{
	0, float32(math.Copysign(0, -1)),
	math.Float32frombits(1), -math.Float32frombits(1), math.Float32frombits(0x00400123),
	math.MaxFloat32, -math.MaxFloat32, 1e-30, -1e-30, 1,
	float32(math.Inf(1)), float32(math.Inf(-1)),
	math.Float32frombits(0x7fc00000), math.Float32frombits(0xffc00000),
}

// sameFloat is the vector kernels' contract against the portable loops: every
// bit of every non-NaN, and NaN exactly where the portable result is NaN.
// Which payload survives when two NaNs meet in an add is left open by IEEE
// 754, decided on x86 by operand order, and the compiler commutes the portable
// loops' operands as register allocation falls out — so the portable path does
// not fix it either, and nothing downstream reads a payload.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// diffGEMM runs op on the vector and the portable path over the same operands
// and reports the first element they disagree on.
func diffGEMM(t *testing.T, op gemmKernel, a, b, prior *Matrix, acc bool) {
	t.Helper()
	var outs [2]*Matrix
	for i, vector := range []bool{false, true} {
		outs[i] = prior.Clone()
		withPath(vector, func() { op.run(outs[i], a, b, acc) })
	}
	for i, want := range outs[0].Data {
		if got := outs[1].Data[i]; !sameFloat(got, want) {
			t.Fatalf("%s %dx%dx%d acc=%v element %d: vector %v (%#08x), portable %v (%#08x)",
				op.name, a.Rows, a.Cols, b.Cols, acc, i, got, math.Float32bits(got), want, math.Float32bits(want))
		}
	}
}

// saltMatrix overwrites about one element in eight of m with a special value.
func saltMatrix(rng *rand.Rand, m *Matrix) {
	for i := range m.Data {
		if rng.Intn(8) == 0 {
			m.Data[i] = gemmSalt[rng.Intn(len(gemmSalt))]
		}
	}
}

// TestGEMMVectorMatchesPortable: the AVX2 kernels and the Go loops produce the
// same float32 bits for all three products, overwriting and accumulating, over
// a seeded draw of shapes on both sides of every blocking boundary (4 rows, 16
// and 8 columns, the masked n%8 tail, the 256-step reduction blocks, ABT's
// panel widths and its fallback past 4096 = abtPackFloats), with plain
// operands and with operands salted with zeros, denormals, overflow,
// infinities and NaNs.
func TestGEMMVectorMatchesPortable(t *testing.T) {
	if !haveVector {
		t.Skip("no vector kernels in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(23))
	ms := []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 13, 31}
	ks := []int{0, 1, 2, 3, 4, 5, 6, 7, 9, 17, 33, 70}
	ns := []int{1, 7, 8, 15, 16, 17, 40, 256}
	shapes := [][3]int{{5, 300, 33}, {3, 1000, 9}, {2, 4096, 3}, {2, 4097, 3}, {6, 257, 40}}
	for i := 0; i < 600; i++ {
		shapes = append(shapes, [3]int{ms[rng.Intn(len(ms))], ks[rng.Intn(len(ks))], ns[rng.Intn(len(ns))]})
	}
	for si, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a, b, prior := randMatrix(rng, m, k), randMatrix(rng, k, n), randMatrix(rng, m, n)
		if si%2 == 1 {
			saltMatrix(rng, a)
			saltMatrix(rng, b)
			saltMatrix(rng, prior)
		}
		for _, op := range gemmOps {
			for _, acc := range []bool{false, true} {
				diffGEMM(t, op, a, b, prior, acc)
			}
		}
	}
}

// FuzzGEMMVectorVsPortable: the same differential over fuzzer-chosen shapes
// and operands. The first four bytes pick the product, accumulate and the
// shape (m < 10, k < 40, n < 48); each following byte is one operand element,
// a gemmSalt entry or a small signed value, reused cyclically.
func FuzzGEMMVectorVsPortable(f *testing.F) {
	f.Add([]byte{0, 5, 6, 7, 1, 2, 3, 200, 201, 212, 213})
	f.Add([]byte{3, 4, 16, 16, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255})
	f.Add([]byte{5, 9, 39, 47, 211, 3, 212, 7, 213, 11, 200, 13})
	f.Add([]byte{2, 1, 1, 1, 205})
	f.Fuzz(func(t *testing.T, in []byte) {
		if !haveVector {
			t.Skip("no vector kernels in this build or on this CPU")
		}
		if len(in) < 5 {
			return
		}
		op, acc := gemmOps[int(in[0]>>1)%len(gemmOps)], in[0]&1 == 1
		m, k, n := int(in[1])%10, int(in[2])%40, int(in[3])%48
		vals, next := in[4:], 0
		fill := func(rows, cols int) *Matrix {
			x := New(rows, cols)
			for i := range x.Data {
				v := vals[next%len(vals)]
				next++
				if int(v) >= 200 {
					x.Data[i] = gemmSalt[(int(v)-200)%len(gemmSalt)]
				} else {
					x.Data[i] = (float32(v) - 100) / 16
				}
			}
			return x
		}
		a, b, prior := fill(m, k), fill(k, n), fill(m, n)
		diffGEMM(t, op, a, b, prior, acc)
	})
}

// TestGEMMShortDataPanics: a hand-built Matrix whose Data is shorter than its
// shape is refused by every kernel on every path with a tensor: panic before
// anything is written — the vector kernels have no bounds checks behind them.
func TestGEMMShortDataPanics(t *testing.T) {
	const m, k, n = 5, 6, 7
	direct := []struct {
		op           gemmKernel
		aRows, aCols int
		bRows, bCols int
	}{
		{gemmKernel{"AB", MatMulInto}, m, k, k, n},
		{gemmKernel{"ATB", MatMulATBInto}, k, m, k, n},
		{gemmKernel{"ABT", MatMulABTInto}, m, k, n, k},
	}
	for _, d := range direct {
		for _, vector := range gemmPaths {
			for short := 0; short < 3; short++ {
				backing := make([]float32, m*n)
				for i := range backing {
					backing[i] = 42
				}
				ops := [3]*Matrix{{Rows: m, Cols: n, Data: backing}, New(d.aRows, d.aCols), New(d.bRows, d.bCols)}
				ops[short].Data = ops[short].Data[:len(ops[short].Data)-1]
				withPath(vector, func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, "tensor: ") || !strings.Contains(msg, "data len") {
							t.Fatalf("%s vector=%v short operand %d: recovered %q, want a tensor: data len panic", d.op.name, vector, short, msg)
						}
					}()
					d.op.run(ops[0], ops[1], ops[2], true)
				})
				for i, v := range backing {
					if v != 42 {
						t.Fatalf("%s vector=%v short operand %d: out[%d] written before the panic", d.op.name, vector, short, i)
					}
				}
			}
		}
	}
}
