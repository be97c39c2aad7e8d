package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// meanRowsChain is MeanRowsInto's contract written one element at a time:
// 0 + x0 + x1 + …, × 1/len(idx), 0 + ·.
func meanRowsChain(src *Matrix, idx []int32) []float32 {
	out := make([]float32, src.Cols)
	scale := 1 / float32(len(idx))
	for j := range out {
		var s float32
		for _, r := range idx {
			s += src.At(int(r), j)
		}
		out[j] = 0 + float32(s*scale)
	}
	return out
}

// tinyMatrix fills m with values whose sums and scaled means leave the normal
// range: both zeros, the smallest denormals of both signs, an ordinary
// denormal, the smallest normals. A negative sum that underflows under the
// scale is the -0 the chain's closing 0 + · exists for.
func tinyMatrix(rng *rand.Rand, m *Matrix) {
	tiny := []float32{
		0, float32(math.Copysign(0, -1)),
		math.Float32frombits(1), -math.Float32frombits(1), -math.Float32frombits(2),
		math.Float32frombits(0x00400123), math.Float32frombits(1 << 23), -math.Float32frombits(1 << 23),
	}
	for i := range m.Data {
		m.Data[i] = tiny[rng.Intn(len(tiny))]
	}
}

// diffMeanRows runs MeanRowsInto on every path this build has, each into a
// dirty row with guard elements either side, and holds the result to the
// one-element-at-a-time chain (and so the paths to each other) under
// sameFloat, and the guards to their bits.
func diffMeanRows(t *testing.T, src *Matrix, idx []int32) {
	t.Helper()
	const guard = 8
	want := meanRowsChain(src, idx)
	for _, vector := range gemmPaths {
		backing := make([]float32, src.Cols+2*guard)
		for i := range backing {
			backing[i] = 42
		}
		out := backing[guard : guard+src.Cols : guard+src.Cols]
		withPath(vector, func() { MeanRowsInto(out, src, idx) })
		for j, w := range want {
			if got := out[j]; !sameFloat(got, w) {
				t.Fatalf("width %d degree %d vector=%v column %d: %v (%#08x), chain %v (%#08x); idx %v",
					src.Cols, len(idx), vector, j, got, math.Float32bits(got), w, math.Float32bits(w), idx)
			}
		}
		for i, v := range backing {
			if (i < guard || i >= guard+src.Cols) && v != 42 {
				t.Fatalf("width %d degree %d vector=%v: wrote %v at %d, outside the row", src.Cols, len(idx), vector, v, i-guard)
			}
		}
	}
}

// TestMeanRowsVectorMatchesPortable: the AVX2 row kernel and the Go loop both
// produce the one-at-a-time chain's float32 bits at widths on both sides of
// the 64- and 8-column blocks and the masked tail, at degrees through and past
// the loop's x4 unroll, over random, repeated and descending index lists, with
// plain operands, operands salted as the GEMM differential's are, and operands
// tiny enough that means underflow.
func TestMeanRowsVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	const rows = 37
	for _, width := range []int{1, 7, 8, 9, 15, 16, 17, 40, 64, 72, 128, 136, 256} {
		for _, degree := range []int{1, 2, 3, 4, 5, 25, 100} {
			for fill := 0; fill < 3; fill++ {
				src := randMatrix(rng, rows, width)
				switch fill {
				case 1:
					saltMatrix(rng, src)
				case 2:
					tinyMatrix(rng, src)
				}
				random, repeated, descending := make([]int32, degree), make([]int32, degree), make([]int32, degree)
				for i := range random {
					random[i] = int32(rng.Intn(rows))
					repeated[i] = random[0]
					descending[i] = int32(rows - 1 - i%rows)
				}
				for _, idx := range [][]int32{random, repeated, descending} {
					diffMeanRows(t, src, idx)
				}
			}
		}
	}

	// The case the closing 0 + · exists for, spelled out: a negative sum whose
	// mean underflows is -0 after the scale and +0 after the add.
	src := New(4, 9)
	src.Set(2, 3, -math.Float32frombits(1))
	for _, vector := range gemmPaths {
		out := make([]float32, 9)
		withPath(vector, func() { MeanRowsInto(out, src, []int32{0, 1, 2, 3}) })
		for j, v := range out {
			if math.Float32bits(v) != 0 {
				t.Errorf("vector=%v: underflowed mean column %d has bits %#x, want +0", vector, j, math.Float32bits(v))
			}
		}
	}
}

// FuzzMeanRowsVectorVsPortable: the same differential over fuzzer-chosen
// shapes, index lists and operands. Three bytes pick the width (< 73), the
// degree (< 41) and src's row count (< 13); the next degree bytes are the
// index list; each following byte is one src element, a gemmSalt entry or a
// small signed value, reused cyclically.
func FuzzMeanRowsVectorVsPortable(f *testing.F) {
	f.Add([]byte{8, 2, 3, 0, 2, 1, 1, 2, 3, 200, 201, 212, 213})
	f.Add([]byte{70, 4, 5, 4, 4, 0, 3, 2, 203, 203, 100, 203, 100})
	f.Add([]byte{16, 30, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 9, 8, 255})
	f.Add([]byte{0, 0, 0, 0, 205})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 3 {
			return
		}
		width, degree, rows := 1+int(in[0])%72, 1+int(in[1])%40, 1+int(in[2])%12
		in = in[3:]
		if len(in) < degree+1 {
			return
		}
		idx := make([]int32, degree)
		for i := range idx {
			idx[i] = int32(int(in[i]) % rows)
		}
		vals := in[degree:]
		src := New(rows, width)
		for i := range src.Data {
			if v := vals[i%len(vals)]; int(v) >= 200 {
				src.Data[i] = gemmSalt[(int(v)-200)%len(gemmSalt)]
			} else {
				src.Data[i] = (float32(v) - 100) / 16
			}
		}
		diffMeanRows(t, src, idx)
	})
}

// TestMeanRowsBadInputPanics: an index outside src (either side), a src whose
// Data is shorter than its shape, a row of the wrong width and an empty index
// list are each refused on every path with a tensor: panic before anything is
// written — the vector kernel has no bounds check behind it.
func TestMeanRowsBadInputPanics(t *testing.T) {
	const rows, width = 6, 9
	good := func() *Matrix { return New(rows, width) }
	short := good()
	short.Data = short.Data[:len(short.Data)-1]
	cases := []struct {
		name string
		src  *Matrix
		idx  []int32
		want string
	}{
		{"index == Rows", good(), []int32{0, rows, 1}, "index"},
		{"negative index", good(), []int32{2, 3, 4, 5, -1}, "index"},
		{"short Data", short, []int32{0, 1}, "data len"},
		{"row width", New(rows, width+1), []int32{0}, "shape"},
		{"no indices", good(), nil, "shape"},
	}
	for _, tc := range cases {
		for _, vector := range gemmPaths {
			out := make([]float32, width)
			for i := range out {
				out[i] = 42
			}
			withPath(vector, func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "tensor: MeanRowsInto "+tc.want) {
						t.Fatalf("%s vector=%v: recovered %q, want a tensor: MeanRowsInto %s panic", tc.name, vector, msg, tc.want)
					}
				}()
				MeanRowsInto(out, tc.src, tc.idx)
			})
			for i, v := range out {
				if v != 42 {
					t.Fatalf("%s vector=%v: out[%d] written before the panic", tc.name, vector, i)
				}
			}
		}
	}
}

// BenchmarkMeanRows times MeanRowsInto over a block's worth of destination
// rows at the three shapes one iteration's mean aggregation issues — layer 0 of
// a train-arxiv-tight micro-batch (128-wide features under the outer fanout,
// 25), layer 0 of train-cora-seq (256-wide, fanout 5) and the 16-wide hidden
// layer (arxiv's inner fanout, 10) — in GB/s of neighbor rows read: one row on
// the path the build dispatches to and, where that is the vector kernel, a
// /portable row for the Go loop beside it. Degrees follow the sampled blocks'
// histogram (gnn's arxivMicroBatch: 60% of destinations at the fanout, the
// rest spread from 3 up) in ascending order, as the degree buckets issue them;
// it matters to the Go loop, where a degree off the x4 unroll pays a pass over
// out per leftover neighbor. Single-threaded, as gnn.meanAggregate is.
func BenchmarkMeanRows(b *testing.B) {
	for _, s := range []struct {
		name                        string
		srcRows, dst, width, fanout int
	}{
		{"arxiv/l0", 5945, 580, 128, 25},
		{"cora/l0", 2000, 622, 256, 5},
		{"hidden", 580, 128, 16, 10},
	} {
		name := fmt.Sprintf("%s_%dx%d_deg%d", s.name, s.dst, s.width, s.fanout)
		run := func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			src, out := randMatrix(rng, s.srcRows, s.width), New(s.dst, s.width)
			adj, edges, next := make([][]int32, s.dst), 0, s.dst
			for i := range adj {
				degree := s.fanout
				if spread := 2 * s.dst / 5; i < spread {
					degree = 3 + i*(s.fanout-2)/spread
				}
				adj[i] = make([]int32, degree)
				for t := range adj[i] {
					// A block numbers its sources in discovery order, destinations
					// first: about half of a sampled block's edges reach a node
					// for the first time and take the next row, the rest land on
					// one already numbered.
					if rng.Intn(2) == 0 && next < s.srcRows {
						adj[i][t] = int32(next)
						next++
					} else {
						adj[i][t] = int32(rng.Intn(next))
					}
				}
				edges += degree
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, idx := range adj {
					MeanRowsInto(out.Row(r), src, idx)
				}
			}
			b.ReportMetric(float64(edges)*float64(s.width)*4*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GB/s")
		}
		b.Run(name, run)
		if haveVector {
			b.Run(name+"/portable", func(b *testing.B) { withPath(false, func() { run(b) }) })
		}
	}
}
