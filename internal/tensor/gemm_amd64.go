//go:build !race

package tensor

// useVector routes the three GEMMs, MeanRowsInto, AddRowVector, the LSTM step
// and the Adam step through the AVX2 kernels in gemm_amd64.s, rows_amd64.s,
// gates_amd64.s and adam_amd64.s (and, with haveFMA, the transcendental maps
// through trans_amd64.s). It is set once, here, from the CPU probe;
// only the tests write it, to run every kernel test against both paths. Builds
// without the kernels (other architectures, and -race, whose detector cannot
// see assembly loads and stores) take gemm_portable.go's false instead.
var useVector = cpuHasAVX2()

// haveFMA additionally lets useVector route exp, SigmoidInto and TanhInto
// through trans_amd64.s, which replays math.archExp's FMA branch: math takes
// that branch when the CPU has AVX and FMA, so the kernel runs only where the
// scalar exp fuses the same operations. Probed once; nothing writes it.
var haveFMA = cpuHasFMA()

// The kernel's three ways of treating the prior output (gemm_amd64.s).
const (
	gemmOverwrite  = 0 // chain from +0
	gemmAccumulate = 1 // chain from the prior value
	gemmAddOnce    = 2 // chain from +0, then prior + chain
)

//go:noescape
func gemmAVX2(out, a, b *float32, m, k, n, ldo, ars, aks, ldb, mode int)

//go:noescape
func meanRowsAVX2(out, src *float32, idx *int32, n, cols int, scale float32)

//go:noescape
func transAVX2(dst, src *float32, n, f int) int

//go:noescape
func addRowAVX2(m, vec *float32, rows, cols int)

//go:noescape
func gatesAVX2(out, gates, prev *float32, rows, hd, prevStride, op int)

//go:noescape
func gatesBackwardAVX2(dz, dc, bsum, gates, tanhC, prev, dh *float32, rows, hd, prevStride int)

//go:noescape
func adamAVX2(values, grads, m, v *float32, n int, beta1, oneMinusBeta1, beta2, oneMinusBeta2, c1, c2, lr, eps float32)

func cpuHasAVX2() bool

func cpuHasFMA() bool

// gemmReduceBlock is how many reduction steps one kernel call takes.
// MatMulATBInto's reduction walks down a column of a, one cache line per step,
// and every group of four output rows walks it again: past a few hundred
// steps those lines no longer stay in cache between passes (2488x256x16 ran at
// 14 GFLOP/s unblocked, 38 in blocks of 256). Cutting the reduction costs no
// bit: the next call continues each element's chain from the stored value.
const gemmReduceBlock = 256

// gemmVector is out[m x n] (+)= A·B for A(i,x) = a[i*ars + x*aks] and
// row-major b[k x n]: MatMulInto reads a by rows (ars = k, aks = 1),
// MatMulATBInto by columns (ars = 1, aks = a's width). All dims are > 0 and
// every slice holds its shape (checkGEMM).
func gemmVector(out, a, b []float32, m, k, n, ars, aks int, accumulate bool) {
	mode := gemmOverwrite
	if accumulate {
		mode = gemmAccumulate
	}
	for x := 0; x < k; x += gemmReduceBlock {
		steps := gemmReduceBlock
		if steps > k-x {
			steps = k - x
		}
		gemmAVX2(&out[0], &a[x*aks], &b[x*n], m, steps, n, n, ars, aks, n, mode)
		mode = gemmAccumulate
	}
}

// abtPackFloats sizes gemmABTVector's stack scratch: 16 packed columns at
// reduction lengths up to 256 (the LSTM gate width), all of bᵀ at the SAGE
// layers' shapes.
const abtPackFloats = 4096

// gemmABTVector is out[m x nb] (+)= a[m x k]·b[nb x k]ᵀ. Lanes must be output
// columns, so b's rows are packed as the columns of a [k x w] panel on the
// stack, w output columns at a time, and the panel multiplied like any b:
// each element is the dot product summed from zero, stored or added once. It
// reports false, having done nothing, when k is too long for even a one-column
// panel; the caller then runs the portable loop.
func gemmABTVector(out, a, b []float32, m, k, nb int, accumulate bool) bool {
	w := abtPackFloats / k
	if w == 0 {
		return false
	}
	if w >= 16 {
		w &^= 15
	}
	mode := gemmOverwrite
	if accumulate {
		mode = gemmAddOnce
	}
	var pack [abtPackFloats]float32
	for j0 := 0; j0 < nb; j0 += w {
		if w > nb-j0 {
			w = nb - j0
		}
		for j := 0; j < w; j++ {
			col := pack[j : (k-1)*w+j+1]
			for x, v := range b[(j0+j)*k : (j0+j+1)*k] {
				col[x*w] = v
			}
		}
		gemmAVX2(&out[j0], &a[0], &pack[0], m, k, w, nb, k, 1, w, mode)
	}
	return true
}
