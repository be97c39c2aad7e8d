package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"unsafe"
)

// transFunc is one transcendental map with its definition written straight
// from math, the oracle both paths are held to bit for bit (NaN payloads
// included: a group holding a NaN runs the scalar function).
type transFunc struct {
	name   string
	run    func(dst, src []float32)
	oracle func(float32) float32
}

var transFuncs = []transFunc{
	{"expInto", expInto, func(x float32) float32 { return float32(math.Exp(float64(x))) }},
	{"SigmoidInto", SigmoidInto, func(x float32) float32 { return float32(1 / (1 + math.Exp(-float64(x)))) }},
	{"TanhInto", TanhInto, func(x float32) float32 { return float32(math.Tanh(float64(x))) }},
}

// transEdges are the inputs where the functions change branch or leave the
// kernel's straight path, with their float32 neighbours: both zeros, both
// infinities, NaNs (quiet, signalling, negative, with a payload), the
// smallest and largest denormals and the smallest normal, tanh's 0.625 and
// 0.5·MAXLOG thresholds, exp's overflow (709.78…), denormal-result (−708.39…)
// and zero-result (−745.13…) thresholds, and ±MaxFloat32 — each with both
// signs, since sigmoid negates its argument.
var transEdges = func() []float32 {
	var vs []float32
	for _, v := range []float32{
		0.625, float32(0.5 * 8.8029691931113054295988e+01),
		709.782712893384, 708.3964185322641, 745.1332191019411,
		1, 0.5, 20, 88.72284, 103.97208,
	} {
		vs = append(vs, v, math.Nextafter32(v, 0), math.Nextafter32(v, float32(math.Inf(1))))
	}
	for _, b := range []uint32{0, 1, 0x007fffff, 0x00800000, 0x7f7fffff, 0x7f800000, 0x7fc00000, 0x7f800001, 0x7fc12345} {
		vs = append(vs, math.Float32frombits(b))
	}
	for _, v := range vs[:len(vs):len(vs)] {
		vs = append(vs, -v)
	}
	return vs
}()

// checkTrans holds got to fn's oracle on src, bit for bit.
func checkTrans(t *testing.T, fn transFunc, vector bool, what string, src, got []float32) {
	t.Helper()
	for i, x := range src {
		if want := fn.oracle(x); math.Float32bits(got[i]) != math.Float32bits(want) {
			t.Fatalf("%s vector=%v %s: element %d of %d, x = %v (%#08x): got %v (%#08x), want %v (%#08x)",
				fn.name, vector, what, i, len(src), x, math.Float32bits(x), got[i], math.Float32bits(got[i]), want, math.Float32bits(want))
		}
	}
}

// TestTransVectorMatchesPortable: exp, SigmoidInto and TanhInto give math's
// bits on every path this build has — the portable loop and, where the CPU
// runs it, the AVX2 kernel — over every 256th float32 bit pattern of both
// signs, over the named edge values in every lane of a group of four among
// ordinary values, into a dirty dst at lengths 0–67 with guard elements either
// side (so every tail length and every position of a declined group), and in
// place.
func TestTransVectorMatchesPortable(t *testing.T) {
	const chunk = 1 << 16
	src, dst := make([]float32, chunk), make([]float32, chunk)
	for _, fn := range transFuncs {
		for _, vector := range gemmPaths {
			withPath(vector, func() {
				for base := uint64(0); base < 1<<32; base += chunk * 256 {
					for i := range src {
						src[i] = math.Float32frombits(uint32(base + uint64(i)*256))
					}
					fn.run(dst, src)
					checkTrans(t, fn, vector, "bit-pattern sweep", src, dst)
				}
			})
		}
	}

	rng := rand.New(rand.NewSource(25))
	ordinary := func() float32 { return float32(rng.NormFloat64() * 3) }
	const guard = 8
	for _, fn := range transFuncs {
		for _, vector := range gemmPaths {
			withPath(vector, func() {
				// Each edge value in each lane of its group, among ordinary values.
				for _, e := range transEdges {
					for lane := 0; lane < 4; lane++ {
						src := []float32{ordinary(), ordinary(), ordinary(), ordinary(), ordinary(), ordinary(), ordinary(), ordinary(), ordinary()}
						src[4+lane] = e
						dst := make([]float32, len(src))
						fn.run(dst, src)
						checkTrans(t, fn, vector, "edge value", src, dst)
					}
				}
				for n := 0; n <= 67; n++ {
					src := make([]float32, n)
					for i := range src {
						src[i] = ordinary()
						if rng.Intn(6) == 0 {
							src[i] = transEdges[rng.Intn(len(transEdges))]
						}
					}
					backing := make([]float32, n+2*guard)
					for i := range backing {
						backing[i] = 42
					}
					dst := backing[guard : guard+n : guard+n]
					fn.run(dst, src)
					checkTrans(t, fn, vector, "dirty dst", src, dst)
					for i, v := range backing {
						if (i < guard || i >= guard+n) && v != 42 {
							t.Fatalf("%s vector=%v length %d: wrote %v at %d, outside dst", fn.name, vector, n, v, i-guard)
						}
					}
					inPlace := append([]float32(nil), src...)
					fn.run(inPlace, inPlace)
					checkTrans(t, fn, vector, "in place", src, inPlace)
				}
			})
		}
	}
}

// TestTransExpCoreMatchesMathExp: the kernel's exp on float64 lanes is
// math.Exp bit for bit wherever it answers, over 6M inputs spread across its
// whole straight path — and it answers for nearly all of them. The float32
// maps cannot show this: their final rounding drops 29 of exp's bits, so an
// operation out of step with archExp (an FMA split into a multiply and an
// add) changes almost no float32 result, and only this view catches it.
func TestTransExpCoreMatchesMathExp(t *testing.T) {
	if !haveVector || !haveFMA {
		t.Skip("no transcendental kernel in this build or on this CPU")
	}
	rng := rand.New(rand.NewSource(25))
	src, dst := make([]float64, 1<<16), make([]float64, 1<<16)
	kernel := 0
	for round := 0; round < 96; round++ {
		for i := range src {
			switch round % 3 {
			case 0:
				src[i] = 40*rng.Float64() - 20
			case 1:
				src[i] = 1455*rng.Float64() - 745
			default: // magnitudes from 2^-60 to 2^10, either sign
				src[i] = math.Copysign(math.Exp2(70*rng.Float64()-60), rng.Float64()-0.5)
			}
		}
		for i := 0; len(src)-i >= 4; i += 4 {
			done := transAVX2((*float32)(unsafe.Pointer(&dst[i])), (*float32)(unsafe.Pointer(&src[i])), len(src)-i, transExp64)
			for j := i; j < i+done; j++ {
				if want := math.Exp(src[j]); math.Float64bits(dst[j]) != math.Float64bits(want) {
					t.Fatalf("exp(%v) (%#016x): kernel %v (%#016x), math.Exp %v (%#016x)",
						src[j], math.Float64bits(src[j]), dst[j], math.Float64bits(dst[j]), want, math.Float64bits(want))
				}
			}
			kernel += done
			i += done
		}
	}
	if total := 96 << 16; kernel < total*3/4 {
		t.Fatalf("kernel answered %d of %d inputs; most are on its straight path", kernel, total)
	}
}

// FuzzTransVectorVsPortable: the same property over fuzzer-chosen inputs, each
// four bytes one float32 bit pattern.
func FuzzTransVectorVsPortable(f *testing.F) {
	f.Add([]byte{0, 0, 0x20, 0x3f, 0, 0, 0xc0, 0x7f, 0, 0, 0x80, 0xff, 1, 2, 3, 4, 0x10, 0x11, 0x30, 0x44})
	f.Add([]byte{0xe4, 0x7c, 0x31, 0x44, 0, 0, 0, 0x80, 0xaa, 0x13, 0x21, 0xc4, 1, 0, 0, 0, 9, 9, 9, 0x3f})
	f.Fuzz(func(t *testing.T, in []byte) {
		src := make([]float32, len(in)/4)
		for i := range src {
			src[i] = math.Float32frombits(uint32(in[4*i]) | uint32(in[4*i+1])<<8 | uint32(in[4*i+2])<<16 | uint32(in[4*i+3])<<24)
		}
		dst := make([]float32, len(src))
		for _, fn := range transFuncs {
			for _, vector := range gemmPaths {
				withPath(vector, func() { fn.run(dst, src) })
				checkTrans(t, fn, vector, "fuzz", src, dst)
			}
		}
	})
}

// TestTransBadInputPanics: dst and src of different lengths are refused on
// every path with a tensor: panic before anything is written.
func TestTransBadInputPanics(t *testing.T) {
	for _, fn := range transFuncs {
		for _, lens := range [][2]int{{7, 8}, {8, 7}, {0, 4}} {
			for _, vector := range gemmPaths {
				dst, src := make([]float32, lens[0]), make([]float32, lens[1])
				for i := range dst {
					dst[i] = 42
				}
				withPath(vector, func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, "tensor: "+fn.name+" lengths") {
							t.Fatalf("%s %v vector=%v: recovered %q, want a tensor: %s lengths panic", fn.name, lens, vector, msg, fn.name)
						}
					}()
					fn.run(dst, src)
				})
				for i, v := range dst {
					if v != 42 {
						t.Fatalf("%s %v vector=%v: dst[%d] written before the panic", fn.name, lens, vector, i)
					}
				}
			}
		}
	}
}

// TestSoftmaxRowsMatchesScalarChain: SoftmaxRowsInto, its exp now expInto,
// gives on every path the bits of the one-element-at-a-time definition —
// float32(math.Exp(float64(v - max))), summed left to right, times 1/sum —
// at row widths on both sides of the kernel's groups of four, with rows that
// hold -Inf, NaN or logits far enough below the max that exp is denormal or
// zero, and in place.
func TestSoftmaxRowsMatchesScalarChain(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	salt := []float32{float32(math.Inf(-1)), float32(math.NaN()), -800, -720, -100, 0}
	for _, vector := range gemmPaths {
		for cols := 1; cols <= 41; cols++ {
			m := New(5, cols)
			for i := range m.Data {
				m.Data[i] = float32(rng.NormFloat64() * 4)
				if rng.Intn(5) == 0 {
					m.Data[i] = salt[rng.Intn(len(salt))]
				}
			}
			want := New(5, cols)
			for i := 0; i < m.Rows; i++ {
				row, orow := m.Row(i), want.Row(i)
				mx := float32(math.Inf(-1))
				for _, v := range row {
					if v > mx {
						mx = v
					}
				}
				var sum float32
				for j, v := range row {
					e := float32(math.Exp(float64(v - mx)))
					orow[j] = e
					sum += e
				}
				inv := 1 / sum
				for j := range orow {
					orow[j] *= inv
				}
			}
			out, inPlace := New(5, cols), m.Clone()
			withPath(vector, func() {
				SoftmaxRowsInto(out, m)
				SoftmaxRowsInto(inPlace, inPlace)
			})
			for i, w := range want.Data {
				if math.Float32bits(out.Data[i]) != math.Float32bits(w) || math.Float32bits(inPlace.Data[i]) != math.Float32bits(w) {
					t.Fatalf("vector=%v width %d element %d: got %v, in place %v, want %v (row %v)",
						vector, cols, i, out.Data[i], inPlace.Data[i], w, m.Row(i/cols))
				}
			}
		}
	}
}

// TestTransposeInto: the strip-wise transpose puts every element where the
// one-at-a-time loop does, at shapes on both sides of the 16-row strip, and
// refuses a destination of the wrong shape.
func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	for _, rows := range []int{0, 1, 5, 15, 16, 17, 33, 64} {
		for _, cols := range []int{0, 1, 3, 16, 40, 256} {
			src, dst := randMatrix(rng, rows, cols), New(cols, rows)
			TransposeInto(dst, src)
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					if dst.At(j, i) != src.At(i, j) {
						t.Fatalf("%dx%d: dst(%d,%d) = %v, src(%d,%d) = %v", rows, cols, j, i, dst.At(j, i), i, j, src.At(i, j))
					}
				}
			}
		}
	}
	defer func() {
		if msg, _ := recover().(string); !strings.HasPrefix(msg, "tensor: TransposeInto shapes") {
			t.Fatalf("recovered %q, want a tensor: TransposeInto shapes panic", msg)
		}
	}()
	TransposeInto(New(3, 4), New(3, 4))
}

// BenchmarkTrans times each map over one LSTM step's worth of gate rows (256
// rows of a 64-wide gate, values like pre-activations), in ns per element: one
// row on the path the build dispatches to and, where that is the vector
// kernel, a /portable row for the Go loop beside it.
func BenchmarkTrans(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	src, dst := make([]float32, 256*64), make([]float32, 256*64)
	for i := range src {
		src[i] = float32(rng.NormFloat64() * 2)
	}
	for _, fn := range transFuncs {
		run := func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				fn.run(dst, src)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(src)), "ns/elem")
		}
		b.Run(fn.name, run)
		if haveVector && haveFMA {
			b.Run(fn.name+"/portable", func(b *testing.B) { withPath(false, func() { run(b) }) })
		}
	}
}
