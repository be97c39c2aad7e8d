package tensor

import (
	"fmt"
	"math/rand"
	"testing"
)

// gemmShapes are the [m x k]·[k x n] products one training iteration really
// issues, logged once from a cora run (256-wide features, batch 256, fanouts
// 5/5, K=4) and an ogbn-arxiv run (128-wide, batch 512, fanouts 10/25, 12 MB):
// per layer, activations [m x k] against weights [k x n]. Forward calls
// MatMulInto(x, W), backward MatMulATBInto(x, dY) and MatMulABTInto(dY, W).
// The cora-lstm pair is the LSTM aggregator's layer 0 at inDim 64 (gates 256
// wide): the hoisted projection x·Wx over a micro-batch's source rows, and one
// degree bucket's recurrence step (h·Wh forward, dz·Whᵀ backward).
// cora/l0-large and cora-lstm/proj are above parallelFlopThreshold, which only
// the portable loops consult.
var gemmShapes = []struct {
	name    string
	m, k, n int
}{
	{"cora/l0", 258, 256, 16},
	{"cora/l0-large", 622, 256, 16},
	{"cora/l1", 60, 16, 7},
	{"arxiv/l0", 618, 128, 16},
	{"arxiv/l1", 143, 16, 40},
	{"cora-lstm/proj", 280, 64, 256},
	{"cora-lstm/step", 30, 64, 256},
}

func randMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.Float32() - 0.5
	}
	return m
}

// benchGEMM times call at every shape and reports GFLOP/s (2·m·k·n computed,
// not counted): one row on the path the build dispatches to and, where that is
// the vector kernels, a /portable row for the Go loops beside it.
func benchGEMM(b *testing.B, call func(x, w, dy, y, dw, dx *Matrix)) {
	for _, s := range gemmShapes {
		name := fmt.Sprintf("%s_%dx%dx%d", s.name, s.m, s.k, s.n)
		run := func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, w, dy := randMatrix(rng, s.m, s.k), randMatrix(rng, s.k, s.n), randMatrix(rng, s.m, s.n)
			y, dw, dx := New(s.m, s.n), New(s.k, s.n), New(s.m, s.k)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				call(x, w, dy, y, dw, dx)
			}
			flops := 2 * float64(s.m) * float64(s.k) * float64(s.n) * float64(b.N)
			b.ReportMetric(flops/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
		}
		b.Run(name, run)
		if haveVector {
			b.Run(name+"/portable", func(b *testing.B) { withPath(false, func() { run(b) }) })
		}
	}
}

func BenchmarkMatMul(b *testing.B) {
	benchGEMM(b, func(x, w, _, y, _, _ *Matrix) { MatMulInto(y, x, w, false) })
}

func BenchmarkMatMulATB(b *testing.B) {
	benchGEMM(b, func(x, _, dy, _, dw, _ *Matrix) { MatMulATBInto(dw, x, dy, false) })
}

func BenchmarkMatMulABT(b *testing.B) {
	benchGEMM(b, func(_, w, dy, _, _, dx *Matrix) { MatMulABTInto(dx, dy, w, false) })
}
