package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

type gemmKernel struct {
	name string
	run  func(out, a, b *Matrix, accumulate bool)
}

// gemmOps drives the three products through one logical problem,
// out[m x n] (+)= A[m x k] · B[k x n]: each entry lays A and B out the way its
// kernel reads them.
var gemmOps = []gemmKernel{
	{"AB", MatMulInto},
	{"ATB", func(out, a, b *Matrix, acc bool) { MatMulATBInto(out, a.Transpose(), b, acc) }},
	{"ABT", func(out, a, b *Matrix, acc bool) { MatMulABTInto(out, a, b.Transpose(), acc) }},
}

// haveVector: this build has the vector kernels and this CPU runs them.
var haveVector = useVector

// gemmPaths is useVector's every value this build can run.
var gemmPaths = func() []bool {
	if haveVector {
		return []bool{false, true}
	}
	return []bool{false}
}()

// withPath runs f with the GEMMs pinned to the vector kernels or to the
// portable loops.
func withPath(vector bool, f func()) {
	defer func(was bool) { useVector = was }(useVector)
	useVector = vector
	f()
}

// gemmKernels is every product on every path this build has, so a test that
// ranges over it holds both paths to the same property: each product as the
// build dispatches it and, where that is the vector kernels, a /portable entry
// pinned to the Go loops.
var gemmKernels = func() []gemmKernel {
	var ks []gemmKernel
	for _, op := range gemmOps {
		ks = append(ks, op)
		if haveVector {
			ks = append(ks, gemmKernel{op.name + "/portable", func(out, a, b *Matrix, acc bool) {
				withPath(false, func() { op.run(out, a, b, acc) })
			}})
		}
	}
	return ks
}()

// gemmTestShapes covers empty and unit dims, reduction and output widths on
// both sides of every multiple of the unroll width, the layer widths the
// models use (N in 1, 7, 16, 17, 40), a seeded draw of random shapes, and four
// shapes just above parallelFlopThreshold whose parallel split is over few,
// many and ragged rows.
func gemmTestShapes() [][3]int {
	var shapes [][3]int
	for _, m := range []int{0, 1, 3, 4, 5, 9} {
		for _, k := range []int{0, 1, 2, 3, 4, 5, 7, 8, 9, 16, 33} {
			for _, n := range []int{0, 1, 7, 16, 17, 40} {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		shapes = append(shapes, [3]int{rng.Intn(48), rng.Intn(96), rng.Intn(48)})
	}
	return append(shapes, [3]int{129, 1021, 16}, [3]int{1030, 127, 17}, [3]int{2, 65537, 16}, [3]int{3, 17477, 40})
}

// TestGEMMAgainstFloat64Reference: every output element is within the
// standard forward error bound of a length-K float32 sum, γ·Σ|a||b| with
// γ ≈ K·ε, of the float64 result — with the prior output as one more term
// when accumulating.
func TestGEMMAgainstFloat64Reference(t *testing.T) {
	const eps = 1.0 / (1 << 24) // float32 unit roundoff
	rng := rand.New(rand.NewSource(1))
	for _, s := range gemmTestShapes() {
		m, k, n := s[0], s[1], s[2]
		a, b, prior := randMatrix(rng, m, k), randMatrix(rng, k, n), randMatrix(rng, m, n)
		for _, acc := range []bool{false, true} {
			for _, kern := range gemmKernels {
				out := prior.Clone()
				kern.run(out, a, b, acc)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						var ref, mag float64
						if acc {
							ref = float64(prior.At(i, j))
							mag = math.Abs(ref)
						}
						for x := 0; x < k; x++ {
							p := float64(a.At(i, x)) * float64(b.At(x, j))
							ref += p
							mag += math.Abs(p)
						}
						tol := 2 * float64(k+2) * eps * mag
						if got := float64(out.At(i, j)); math.Abs(got-ref) > tol {
							t.Fatalf("%s %dx%dx%d acc=%v out[%d][%d] = %v, want %v ± %g",
								kern.name, m, k, n, acc, i, j, got, ref, tol)
						}
					}
				}
			}
		}
	}
}

// TestGEMMIndependentOfWorkerCount: the accumulation order is a property of
// the kernel, not of how rows were split, so one worker (always inline) and
// four (parallel above parallelFlopThreshold) agree bit for bit.
func TestGEMMIndependentOfWorkerCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(2))
	for _, s := range gemmTestShapes() {
		m, k, n := s[0], s[1], s[2]
		a, b, prior := randMatrix(rng, m, k), randMatrix(rng, k, n), randMatrix(rng, m, n)
		for _, acc := range []bool{false, true} {
			for _, kern := range gemmKernels {
				var outs [2]*Matrix
				for w, procs := range []int{1, 4} {
					runtime.GOMAXPROCS(procs)
					outs[w] = prior.Clone()
					kern.run(outs[w], a, b, acc)
				}
				for i, v := range outs[0].Data {
					if v != outs[1].Data[i] {
						t.Fatalf("%s %dx%dx%d acc=%v element %d: %v on 1 worker, %v on 4",
							kern.name, m, k, n, acc, i, v, outs[1].Data[i])
					}
				}
			}
		}
	}
}

// TestGEMMPropagatesNonFinite: a zero in one operand does not hide a NaN or
// Inf in the other (0·NaN = NaN, 0·Inf = NaN), with the poisoned term landing
// in the unrolled body and in the ragged tail.
func TestGEMMPropagatesNonFinite(t *testing.T) {
	for _, bad := range []float32{float32(math.NaN()), float32(math.Inf(1))} {
		for _, k := range []int{1, 4, 6} {
			for _, kern := range gemmKernels {
				t.Run(fmt.Sprintf("%s/k%d/%v", kern.name, k, bad), func(t *testing.T) {
					a, b := New(3, k), New(k, 5) // a is all zeros
					b.Data[(k-1)*5+2] = bad      // last reduction index, output column 2
					out := New(3, 5)
					kern.run(out, a, b, false)
					for i := 0; i < 3; i++ {
						if v := out.At(i, 2); !math.IsNaN(float64(v)) {
							t.Fatalf("out[%d][2] = %v, want NaN from 0·%v", i, v, bad)
						}
					}
				})
			}
		}
	}
}
