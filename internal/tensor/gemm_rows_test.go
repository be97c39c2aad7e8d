package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// rowsOp is one indexed product beside its gathered twin: out (+)= a[idx]·b
// against MatMulInto on the gathered rows, out (+)= a[idx]ᵀ·b against
// MatMulATBInto. outShape sizes out for a k-wide table, count rows and an
// n-wide b; bRows is b's row count.
type rowsOp struct {
	name     string
	indexed  func(out, a *Matrix, idx []int32, b *Matrix, acc bool)
	gathered func(out, g, b *Matrix, acc bool)
	outShape func(k, count, n int) (int, int)
	bRows    func(k, count int) int
}

var rowsOps = []rowsOp{
	{"AB", MatMulRowsInto, MatMulInto,
		func(k, count, n int) (int, int) { return count, n },
		func(k, count int) int { return k }},
	{"ATB", MatMulRowsATBInto, MatMulATBInto,
		func(k, count, n int) (int, int) { return k, n },
		func(k, count int) int { return count }},
}

// gatherMatrix copies the rows idx names out of a.
func gatherMatrix(a *Matrix, idx []int32) *Matrix {
	g := New(len(idx), a.Cols)
	for i, r := range idx {
		copy(g.Row(i), a.Row(int(r)))
	}
	return g
}

// diffRows runs op on every path this build has, indexed and on the gathered
// rows, each into a copy of the same dirty out with guard elements either
// side, and requires the same bits (NaN where NaN) and untouched guards.
func diffRows(t *testing.T, what string, op rowsOp, a *Matrix, idx []int32, b, prior *Matrix, acc bool) {
	t.Helper()
	const guard = 8
	g := a
	if idx != nil {
		g = gatherMatrix(a, idx)
	}
	n := len(prior.Data)
	for _, vector := range gemmPaths {
		var outs [2]*Matrix
		var backs [2][]float32
		for i := range outs {
			backs[i] = make([]float32, n+2*guard)
			for j := range backs[i] {
				backs[i][j] = 42
			}
			copy(backs[i][guard:], prior.Data)
			outs[i] = &Matrix{Rows: prior.Rows, Cols: prior.Cols, Data: backs[i][guard : guard+n : guard+n]}
		}
		withPath(vector, func() {
			op.indexed(outs[0], a, idx, b, acc)
			op.gathered(outs[1], g, b, acc)
		})
		for j, want := range outs[1].Data {
			if got := outs[0].Data[j]; !sameFloat(got, want) {
				t.Fatalf("%s %s vector=%v acc=%v table %dx%d, %d rows, n=%d: element %d is %v (%#08x), gathered %v (%#08x)",
					op.name, what, vector, acc, a.Rows, a.Cols, len(idx), b.Cols, j, got, math.Float32bits(got), want, math.Float32bits(want))
			}
		}
		for j, v := range backs[0] {
			if (j < guard || j >= guard+n) && v != 42 {
				t.Fatalf("%s %s vector=%v acc=%v: wrote %v at %d, outside out", op.name, what, vector, acc, v, j-guard)
			}
		}
	}
}

// rowsIndexKinds are the index lists every case runs: the nil identity (on a
// table of exactly count rows), the explicit identity, a permutation of a
// larger table's rows, and one row repeated, then a random draw with repeats.
func rowsIndexKinds(rng *rand.Rand, count, tableRows int) map[string][]int32 {
	identity, perm, repeated := make([]int32, count), make([]int32, count), make([]int32, count)
	p := rng.Perm(tableRows)
	one := int32(rng.Intn(tableRows))
	for i := range identity {
		identity[i] = int32(i)
		perm[i] = int32(p[i])
		repeated[i] = one
		if i >= count/2 {
			repeated[i] = int32(rng.Intn(tableRows))
		}
	}
	return map[string][]int32{"nil": nil, "identity": identity, "permuted": perm, "repeated": repeated}
}

// TestMatMulRowsMatchesGathered: MatMulRowsInto and MatMulRowsATBInto give the
// bits their un-indexed kernels give for the gathered rows, on every path this
// build has, overwriting and accumulating into a dirty out whose neighbours
// stay untouched — for every row count 0–130 at a width whose panel holds 32
// rows (so counts land on and either side of every boundary up to the fourth),
// either side of the boundaries of the 64- and 128-row panels, at widths
// around the panel's own size (one row per panel, and the fallback past it),
// and at narrow and ragged widths, with plain and salted operands.
func TestMatMulRowsMatchesGathered(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	type sweep struct {
		k      int
		counts []int
	}
	all := make([]int, 131)
	for i := range all {
		all[i] = i
	}
	sweeps := []sweep{
		{256, all},
		{128, []int{0, 1, 2, 3, 4, 5, 63, 64, 65, 127, 128, 129, 130}},
		{64, []int{0, 1, 5, 127, 128, 129, 130}},
		{1, []int{0, 1, 2, 5, 130}}, {7, []int{0, 1, 3, 4, 17, 130}},
		{100, []int{0, 1, 80, 81, 82, 130}},
		{rowPanelFloats / 2, []int{0, 1, 2, 3, 5}},
		{rowPanelFloats, []int{0, 1, 2, 3}},
		{rowPanelFloats + 1, []int{0, 1, 3}},
	}
	for _, s := range sweeps {
		for ci, count := range s.counts {
			n := []int{1, 5, 16, 17}[ci%4]
			if s.k > 1024 {
				n = 3
			}
			tableRows := count + 3
			a := randMatrix(rng, tableRows, s.k)
			salted := ci%3 == 2
			if salted {
				saltMatrix(rng, a)
			}
			for kind, idx := range rowsIndexKinds(rng, count, tableRows) {
				table := a
				if idx == nil {
					table = &Matrix{Rows: count, Cols: s.k, Data: a.Data[:count*s.k]}
				}
				for _, op := range rowsOps {
					or, oc := op.outShape(s.k, count, n)
					b, prior := randMatrix(rng, op.bRows(s.k, count), n), randMatrix(rng, or, oc)
					if salted {
						saltMatrix(rng, b)
						saltMatrix(rng, prior)
					}
					for _, acc := range []bool{false, true} {
						diffRows(t, kind, op, table, idx, b, prior, acc)
					}
				}
			}
		}
	}
}

// FuzzMatMulRowsVsGathered: the same differential over fuzzer-chosen shapes,
// index lists and operands. Five bytes pick the product and accumulate, the
// table width (from a list around the panel boundaries' widths), the row count
// (< 80), the table's row count (< 24, so indices repeat) and n (< 20); the
// next count bytes are the index list; each following byte is one operand
// element, a gemmSalt entry or a small signed value, reused cyclically.
func FuzzMatMulRowsVsGathered(f *testing.F) {
	f.Add([]byte{0, 3, 40, 7, 5, 1, 2, 3, 4, 5, 6, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38, 39, 200, 212})
	f.Add([]byte{3, 9, 70, 23, 16, 9, 9, 9, 0, 22, 5, 100, 120, 203, 80})
	f.Add([]byte{1, 0, 0, 5, 3, 205})
	f.Add([]byte{2, 10, 33, 1, 1, 0, 211, 3, 213, 7})
	widths := []int{1, 3, 7, 16, 63, 64, 100, 127, 128, 129, 255, 256, 257}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) < 5 {
			return
		}
		op, acc := rowsOps[int(in[0]>>1)%len(rowsOps)], in[0]&1 == 1
		k, count, tableRows, n := widths[int(in[1])%len(widths)], int(in[2])%80, 1+int(in[3])%23, 1+int(in[4])%19
		in = in[5:]
		if len(in) < count+1 {
			return
		}
		idx := make([]int32, count)
		for i := range idx {
			idx[i] = int32(int(in[i]) % tableRows)
		}
		vals, next := in[count:], 0
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
		or, oc := op.outShape(k, count, n)
		a, b, prior := fill(tableRows, k), fill(op.bRows(k, count), n), fill(or, oc)
		diffRows(t, "fuzz", op, a, idx, b, prior, acc)
	})
}

// TestMatMulRowsBadIndexPanics: an index outside the table (either side), a
// table whose Data is shorter than its shape, and an index list of the wrong
// length are each refused by both products on every path with a tensor:
// panic before anything is written.
func TestMatMulRowsBadIndexPanics(t *testing.T) {
	const rows, k, n = 6, 5, 7
	short := New(rows, k)
	short.Data = short.Data[:len(short.Data)-1]
	cases := []struct {
		name  string
		table *Matrix
		idx   []int32
		want  string
	}{
		{"index == Rows", New(rows, k), []int32{0, 1, rows, 2}, "index"},
		{"negative index", New(rows, k), []int32{2, 3, 4, 5, -1}, "index"},
		{"far past the panel", New(rows, k), append(make([]int32, 200), rows), "index"},
		{"short Data", short, []int32{0, 1}, "data len"},
	}
	for _, tc := range cases {
		for _, op := range rowsOps {
			for _, vector := range gemmPaths {
				count := len(tc.idx)
				or, oc := op.outShape(k, count, n)
				out := New(or, oc)
				for i := range out.Data {
					out.Data[i] = 42
				}
				b := New(op.bRows(k, count), n)
				withPath(vector, func() {
					defer func() {
						msg, _ := recover().(string)
						if !strings.HasPrefix(msg, "tensor: ") || !strings.Contains(msg, tc.want) {
							t.Fatalf("%s %s vector=%v: recovered %q, want a tensor: %s panic", op.name, tc.name, vector, msg, tc.want)
						}
					}()
					op.indexed(out, tc.table, tc.idx, b, true)
				})
				for i, v := range out.Data {
					if v != 42 {
						t.Fatalf("%s %s vector=%v: out[%d] written before the panic", op.name, tc.name, vector, i)
					}
				}
			}
		}
	}
	// A list whose length disagrees with out (AB) or b (ATB) is a shape panic.
	for _, op := range rowsOps {
		func() {
			defer func() {
				if msg, _ := recover().(string); !strings.Contains(msg, "shapes") {
					t.Fatalf("%s: recovered %q, want a shapes panic", op.name, msg)
				}
			}()
			or, oc := op.outShape(k, 3, n)
			op.indexed(New(or, oc), New(rows, k), []int32{0, 1, 2, 3}, New(op.bRows(k, 3), n), false)
		}()
	}
}

// BenchmarkMatMulRows times the indexed products at the shapes layer 0 issues
// from the feature table, beside the gather + un-indexed product they replace
// (/gathered): the SAGE self term of a train-arxiv-tight micro-batch (618
// destination rows of the 16000 x 128 table, 16 wide, forward and the weight
// gradient) and the LSTM projection of train-cora-lstm (1040 source rows of
// the 2708 x 64 narrowed table, 256 wide). GFLOP/s of 2·m·k·n.
func BenchmarkMatMulRows(b *testing.B) {
	for _, s := range []struct {
		name               string
		tableRows, m, k, n int
	}{
		{"arxiv-self", 16000, 618, 128, 16},
		{"cora-lstm-proj", 2708, 1040, 64, 256},
	} {
		rng := rand.New(rand.NewSource(1))
		table := randMatrix(rng, s.tableRows, s.k)
		idx := make([]int32, s.m)
		for i := range idx {
			idx[i] = int32(rng.Intn(s.tableRows))
		}
		w, dy := randMatrix(rng, s.k, s.n), randMatrix(rng, s.m, s.n)
		y, dw := New(s.m, s.n), New(s.k, s.n)
		g := New(s.m, s.k)
		flops := 2 * float64(s.m) * float64(s.k) * float64(s.n)
		shape := fmt.Sprintf("%s_%dof%dx%dx%d", s.name, s.m, s.tableRows, s.k, s.n)
		gather := func() {
			for i, r := range idx {
				copy(g.Row(i), table.Row(int(r)))
			}
		}
		for _, c := range []struct {
			name string
			run  func()
		}{
			{"AB", func() { MatMulRowsInto(y, table, idx, w, false) }},
			{"AB/gathered", func() { gather(); MatMulInto(y, g, w, false) }},
			{"ATB", func() { MatMulRowsATBInto(dw, table, idx, dy, false) }},
			{"ATB/gathered", func() { gather(); MatMulATBInto(dw, g, dy, false) }},
		} {
			b.Run(c.name+"/"+shape, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					c.run()
				}
				b.ReportMetric(flops*float64(b.N)/float64(b.Elapsed().Nanoseconds()), "GFLOP/s")
			})
		}
	}
}
