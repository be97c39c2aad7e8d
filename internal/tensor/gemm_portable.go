//go:build !amd64 || race

package tensor

// useVector is never set in a build without the vector kernels (other
// architectures; -race, whose detector cannot see assembly loads and stores):
// the Go loops in tensor.go are the only path.
var useVector = false

const haveFMA = false

func gemmVector(out, a, b []float32, m, k, n, ars, aks int, accumulate bool) {
	panic("tensor: no vector kernels in this build")
}

func gemmABTVector(out, a, b []float32, m, k, nb int, accumulate bool) bool {
	panic("tensor: no vector kernels in this build")
}

func meanRowsAVX2(out, src *float32, idx *int32, n, cols int, scale float32) {
	panic("tensor: no vector kernels in this build")
}

func transAVX2(dst, src *float32, n, f int) int {
	panic("tensor: no vector kernels in this build")
}

func addRowAVX2(m, vec *float32, rows, cols int) {
	panic("tensor: no vector kernels in this build")
}

func gatesAVX2(out, gates, prev *float32, rows, hd, prevStride, op int) {
	panic("tensor: no vector kernels in this build")
}

func gatesBackwardAVX2(dz, dc, bsum, gates, tanhC, prev, dh *float32, rows, hd, prevStride int) {
	panic("tensor: no vector kernels in this build")
}

func adamAVX2(values, grads, m, v *float32, n int, beta1, oneMinusBeta1, beta2, oneMinusBeta2, c1, c2, lr, eps float32) {
	panic("tensor: no vector kernels in this build")
}
