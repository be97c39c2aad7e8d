package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// gatesGuard is how many elements guard each output either side.
const gatesGuard = 8

// guarded returns a rows x cols matrix filled with 42 inside a backing array
// whose gatesGuard elements either side hold 42 too, and the backing array.
func guarded(rows, cols int) (*Matrix, []float32) {
	backing := make([]float32, rows*cols+2*gatesGuard)
	for i := range backing {
		backing[i] = 42
	}
	return &Matrix{Rows: rows, Cols: cols, Data: backing[gatesGuard : gatesGuard+rows*cols : gatesGuard+rows*cols]}, backing
}

// checkGuards fails if a kernel wrote outside the matrix backing holds.
func checkGuards(t *testing.T, what string, backing []float32) {
	t.Helper()
	for i, v := range backing {
		if (i < gatesGuard || i >= len(backing)-gatesGuard) && v != 42 {
			t.Fatalf("%s: wrote %v at %d, outside the matrix", what, v, i-gatesGuard)
		}
	}
}

// gatesCase is one step's operands: pre-activations z [rows x 4h], bias b,
// the previous cell state (one shared row or one per row), and for the
// backward the activated gates, tanh(c), the hidden and the incoming cell
// gradients, drawn independently of the forward so that any values reach it.
type gatesCase struct {
	z, b, cPrev              *Matrix
	gates, tanhC, dh, dcNext *Matrix
}

// newGatesCase draws a case with values from val.
func newGatesCase(rows, hd int, shared bool, val func() float32) gatesCase {
	fill := func(r, c int) *Matrix {
		m := New(r, c)
		for i := range m.Data {
			m.Data[i] = val()
		}
		return m
	}
	prevRows := rows
	if shared {
		prevRows = 1
	}
	return gatesCase{
		z: fill(rows, 4*hd), b: fill(1, 4*hd), cPrev: fill(prevRows, hd),
		gates: fill(rows, 4*hd), tanhC: fill(rows, hd), dh: fill(rows, hd), dcNext: fill(rows, hd),
	}
}

// run computes the case's forward and backward step on one path into dirty
// guarded outputs, checks the guards, and returns every output: the activated
// z, c, tanh(c), h, then dz, the outgoing dc and bsum.
func (c gatesCase) run(t *testing.T, what string, vector bool) []*Matrix {
	t.Helper()
	rows, hd := c.z.Rows, c.cPrev.Cols
	z := c.z.Clone()
	cs, cb := guarded(rows, hd)
	tc, tb := guarded(rows, hd)
	h, hb := guarded(rows, hd)
	dz, dzb := guarded(rows, 4*hd)
	dc, dcb := guarded(rows, hd)
	copy(dc.Data, c.dcNext.Data)
	bsum, bsb := guarded(1, 4*hd)
	withPath(vector, func() {
		LSTMStepInto(z, c.b, c.cPrev, cs, tc, h)
		LSTMStepBackwardInto(dz, dc, bsum, c.gates, c.tanhC, c.cPrev, c.dh)
	})
	for name, b := range map[string][]float32{"c": cb, "tanhC": tb, "h": hb, "dz": dzb, "dc": dcb, "bsum": bsb} {
		checkGuards(t, fmt.Sprintf("%s vector=%v %s", what, vector, name), b)
	}
	return []*Matrix{z, cs, tc, h, dz, dc, bsum}
}

// diffGates holds every output of the case's vector path to the portable
// path's, under sameFloat.
func diffGates(t *testing.T, what string, c gatesCase) {
	t.Helper()
	names := []string{"z", "c", "tanhC", "h", "dz", "dc", "bsum"}
	want := c.run(t, what, false)
	if !haveVector {
		return
	}
	got := c.run(t, what, true)
	for k := range want {
		for i, w := range want[k].Data {
			if g := got[k].Data[i]; !sameFloat(g, w) {
				t.Fatalf("%s: %s element %d (row %d, column %d): vector %v (%#08x), portable %v (%#08x)",
					what, names[k], i, i/want[k].Cols, i%want[k].Cols, g, math.Float32bits(g), w, math.Float32bits(w))
			}
		}
	}
}

// TestLSTMStepVectorMatchesPortable: LSTMStepInto and LSTMStepBackwardInto
// give the portable loops' bits on the vector path — every output, the
// activated gates and the bias column sums included — at widths on both sides
// of the eight-column groups (the tail the Go loop finishes among them),
// 1–37 rows, with one shared previous cell state and one per row, over
// ordinary values and values salted as the GEMM differential's are, into
// dirty outputs with guard elements either side.
func TestLSTMStepVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for _, hd := range []int{1, 3, 7, 8, 9, 15, 16, 17, 24, 31, 33, 64, 65} {
		for _, rows := range []int{1, 2, 5, 37} {
			for _, shared := range []bool{false, true} {
				for _, salted := range []bool{false, true} {
					val := func() float32 {
						if salted && rng.Intn(8) == 0 {
							return gemmSalt[rng.Intn(len(gemmSalt))]
						}
						return float32(rng.NormFloat64() * 2)
					}
					what := fmt.Sprintf("h %d rows %d shared=%v salted=%v", hd, rows, shared, salted)
					diffGates(t, what, newGatesCase(rows, hd, shared, val))
				}
			}
		}
	}
}

// TestLSTMStepMatchesDefinition: the portable loops are the per-element
// definition LSTMStepInto and LSTMStepBackwardInto document, written out
// here one element at a time, bit for bit (with it the vector path, which
// the differential holds to them).
func TestLSTMStepMatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	const rows, hd = 3, 11
	for _, shared := range []bool{false, true} {
		c := newGatesCase(rows, hd, shared, func() float32 { return float32(rng.NormFloat64()) })
		out := c.run(t, "definition", false)
		ps := hd
		if shared {
			ps = 0
		}
		var bs [4 * hd]float32
		for r := 0; r < rows; r++ {
			for j := 0; j < hd; j++ {
				at := func(m *Matrix, block int) float32 { return m.Data[r*m.Cols+block*hd+j] }
				zi := sigmoid32(at(c.z, 0) + c.b.Data[j])
				zf := sigmoid32(at(c.z, 1) + c.b.Data[hd+j])
				zg := tanh32(at(c.z, 2) + c.b.Data[2*hd+j])
				zo := sigmoid32(at(c.z, 3) + c.b.Data[3*hd+j])
				cp := c.cPrev.Data[r*ps+j]
				cv := float32(zf*cp) + float32(zi*zg)
				tv := tanh32(cv)
				hv := zo * tv

				i, f, g, o, tc, dh := at(c.gates, 0), at(c.gates, 1), at(c.gates, 2), at(c.gates, 3), at(c.tanhC, 0), at(c.dh, 0)
				dhO := dh * o
				oneMinusT2 := 1 - float32(tc*tc)
				dcv := at(c.dcNext, 0) + float32(dhO*oneMinusT2)
				dcvG, iOneMinusI := dcv*g, i*(1-i)
				dcvP, fOneMinusF := dcv*c.cPrev.Data[r*ps+j], f*(1-f)
				dcvI, oneMinusG2 := dcv*i, 1-float32(g*g)
				dhT, oOneMinusO := dh*tc, o*(1-o)
				d := []float32{dcvG * iOneMinusI, dcvP * fOneMinusF, dcvI * oneMinusG2, dhT * oOneMinusO}
				want := map[string][2]float32{
					"z i": {out[0].Data[r*4*hd+j], zi}, "z f": {out[0].Data[r*4*hd+hd+j], zf},
					"z g": {out[0].Data[r*4*hd+2*hd+j], zg}, "z o": {out[0].Data[r*4*hd+3*hd+j], zo},
					"c": {out[1].Data[r*hd+j], cv}, "tanhC": {out[2].Data[r*hd+j], tv}, "h": {out[3].Data[r*hd+j], hv},
					"dc": {out[5].Data[r*hd+j], dcv * f},
				}
				for k, v := range d {
					want[fmt.Sprintf("dz block %d", k)] = [2]float32{out[4].Data[r*4*hd+k*hd+j], v}
					bs[k*hd+j] += v
				}
				for name, gw := range want {
					if math.Float32bits(gw[0]) != math.Float32bits(gw[1]) {
						t.Fatalf("shared=%v row %d column %d %s: %v, definition %v", shared, r, j, name, gw[0], gw[1])
					}
				}
			}
		}
		for j, w := range bs {
			if got := out[6].Data[j]; math.Float32bits(got) != math.Float32bits(w) {
				t.Fatalf("shared=%v bsum[%d]: %v, definition %v", shared, j, got, w)
			}
		}
	}
}

// FuzzLSTMStepVectorVsPortable: the differential over fuzzer-chosen shapes and
// values: in[0] picks the rows (1–6), in[1] the width (0–39), in[2]'s low bit a
// shared previous cell state; every later byte is a gemmSalt entry (200 and
// up) or a small signed value, reused cyclically.
func FuzzLSTMStepVectorVsPortable(f *testing.F) {
	f.Add([]byte{2, 9, 0, 1, 2, 3, 200, 201, 212, 213, 150})
	f.Add([]byte{0, 16, 1, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 255})
	f.Add([]byte{5, 39, 0, 211, 3, 212, 7, 213, 11, 200, 13, 99})
	f.Fuzz(func(t *testing.T, in []byte) {
		if !haveVector {
			t.Skip("no vector kernels in this build or on this CPU")
		}
		if len(in) < 4 {
			return
		}
		rows, hd, shared := int(in[0])%6+1, int(in[1])%40, in[2]&1 == 1
		vals, next := in[3:], 0
		val := func() float32 {
			v := vals[next%len(vals)]
			next++
			if int(v) >= 200 {
				return gemmSalt[(int(v)-200)%len(gemmSalt)]
			}
			return (float32(v) - 100) / 32
		}
		diffGates(t, fmt.Sprintf("fuzz h %d rows %d shared=%v", hd, rows, shared), newGatesCase(rows, hd, shared, val))
	})
}

// TestAddRowVectorVectorMatchesPortable: the bias broadcast gives the Go
// loop's bits on the vector path at widths on both sides of the groups of
// eight, with salted operands, and writes nothing outside the matrix.
func TestAddRowVectorVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	for _, cols := range []int{0, 1, 7, 8, 9, 16, 23, 64, 65} {
		for _, rows := range []int{0, 1, 4, 13} {
			src, vec := randMatrix(rng, rows, cols), randMatrix(rng, 1, cols)
			saltMatrix(rng, src)
			saltMatrix(rng, vec)
			var outs []*Matrix
			for _, vector := range gemmPaths {
				m, backing := guarded(rows, cols)
				copy(m.Data, src.Data)
				withPath(vector, func() { m.AddRowVector(vec) })
				checkGuards(t, fmt.Sprintf("%dx%d vector=%v", rows, cols, vector), backing)
				outs = append(outs, m)
			}
			for i, v := range src.Data {
				want := v + vec.Data[i%cols]
				for k, o := range outs {
					if !sameFloat(o.Data[i], want) {
						t.Fatalf("%dx%d element %d vector=%v: %v, want %v", rows, cols, i, gemmPaths[k], o.Data[i], want)
					}
				}
			}
		}
	}
}

// TestLSTMStepBadShapePanics: operands of the wrong shape, or a hand-built
// Matrix whose Data is short, are refused on every path with a tensor: panic
// before anything is written — the kernels have no bounds checks behind them.
func TestLSTMStepBadShapePanics(t *testing.T) {
	const rows, hd = 3, 9
	short := func(r, c int) *Matrix { return &Matrix{Rows: r, Cols: c, Data: make([]float32, r*c-1)} }
	cases := map[string]func(){
		"forward bias": func() {
			LSTMStepInto(New(rows, 4*hd), New(1, hd), New(1, hd), New(rows, hd), New(rows, hd), New(rows, hd))
		},
		"forward prev rows": func() {
			LSTMStepInto(New(rows, 4*hd), New(1, 4*hd), New(2, hd), New(rows, hd), New(rows, hd), New(rows, hd))
		},
		"forward gates": func() {
			LSTMStepInto(New(rows, 3*hd), New(1, 4*hd), New(1, hd), New(rows, hd), New(rows, hd), New(rows, hd))
		},
		"forward h": func() {
			LSTMStepInto(New(rows, 4*hd), New(1, 4*hd), New(1, hd), New(rows, hd), New(rows, hd), New(rows+1, hd))
		},
		"forward short c": func() {
			LSTMStepInto(New(rows, 4*hd), New(1, 4*hd), New(1, hd), short(rows, hd), New(rows, hd), New(rows, hd))
		},
		"forward short prev": func() {
			LSTMStepInto(New(rows, 4*hd), New(1, 4*hd), short(rows, hd), New(rows, hd), New(rows, hd), New(rows, hd))
		},
		"backward dz": func() {
			LSTMStepBackwardInto(New(rows, hd), New(rows, hd), New(1, 4*hd), New(rows, 4*hd), New(rows, hd), New(1, hd), New(rows, hd))
		},
		"backward bsum": func() {
			LSTMStepBackwardInto(New(rows, 4*hd), New(rows, hd), New(1, hd), New(rows, 4*hd), New(rows, hd), New(1, hd), New(rows, hd))
		},
		"backward short dh": func() {
			LSTMStepBackwardInto(New(rows, 4*hd), New(rows, hd), New(1, 4*hd), New(rows, 4*hd), New(rows, hd), New(1, hd), short(rows, hd))
		},
		"backward short gates": func() {
			LSTMStepBackwardInto(New(rows, 4*hd), New(rows, hd), New(1, 4*hd), short(rows, 4*hd), New(rows, hd), New(1, hd), New(rows, hd))
		},
	}
	for name, f := range cases {
		for _, vector := range gemmPaths {
			withPath(vector, func() {
				defer func() {
					msg, _ := recover().(string)
					if !strings.HasPrefix(msg, "tensor: LSTMStep") {
						t.Fatalf("%s vector=%v: recovered %q, want a tensor: LSTMStep… panic", name, vector, msg)
					}
				}()
				f()
			})
		}
	}
}

// adamCase is one Adam update's operands.
type adamCase struct {
	values, grads, m, v []float32
}

// diffAdam runs steps updates of c on every path this build has (the second
// and later steps on the first's moments) and holds the vector path's
// values and moments to the portable path's under sameFloat.
func diffAdam(t *testing.T, what string, c adamCase, steps int) {
	t.Helper()
	var outs [][3][]float32
	for _, vector := range gemmPaths {
		vals := append([]float32(nil), c.values...)
		m, v := append([]float32(nil), c.m...), append([]float32(nil), c.v...)
		withPath(vector, func() {
			for s := 1; s <= steps; s++ {
				c1 := 1 - float32(math.Pow(0.9, float64(s)))
				c2 := 1 - float32(math.Pow(0.999, float64(s)))
				AdamInto(vals, c.grads, m, v, 0.01, 0.9, 0.999, 1e-8, c1, c2)
			}
		})
		outs = append(outs, [3][]float32{vals, m, v})
	}
	for _, o := range outs[1:] {
		for k, name := range []string{"values", "m", "v"} {
			for i, w := range outs[0][k] {
				if g := o[k][i]; !sameFloat(g, w) {
					t.Fatalf("%s: %s[%d] of %d: vector %v (%#08x), portable %v (%#08x)",
						what, name, i, len(outs[0][k]), g, math.Float32bits(g), w, math.Float32bits(w))
				}
			}
		}
	}
}

// TestAdamVectorMatchesPortable: AdamInto gives the portable loop's bits on
// the vector path — values and both moments — at lengths 0–67 and 1000 (so
// every tail length the Go loop finishes), over three steps, with ordinary
// gradients, gradients salted as the GEMM differential's are, and moments
// that are zero, ordinary or salted.
func TestAdamVectorMatchesPortable(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	lengths := []int{1000}
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	for _, n := range lengths {
		for _, salted := range []bool{false, true} {
			val := func(scale float64) float32 {
				if salted && rng.Intn(8) == 0 {
					return gemmSalt[rng.Intn(len(gemmSalt))]
				}
				return float32(rng.NormFloat64() * scale)
			}
			c := adamCase{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
			for i := 0; i < n; i++ {
				c.values[i], c.grads[i] = val(1), val(1e-2)
				if salted {
					c.m[i], c.v[i] = val(1e-3), float32(math.Abs(float64(val(1e-5))))
				}
			}
			diffAdam(t, fmt.Sprintf("length %d salted=%v", n, salted), c, 3)
		}
	}
}

// FuzzAdamVectorVsPortable: the differential over fuzzer-chosen values: each
// group of four bytes is one element's value, gradient and moments, a byte of
// 200 and up a gemmSalt entry and below it a small signed value.
func FuzzAdamVectorVsPortable(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 200, 201, 212, 213, 150, 99, 98, 97, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28})
	f.Add([]byte{100, 100, 100, 100, 255, 0, 128, 64})
	f.Fuzz(func(t *testing.T, in []byte) {
		if !haveVector {
			t.Skip("no vector kernels in this build or on this CPU")
		}
		val := func(b byte, scale float32) float32 {
			if b >= 200 {
				return gemmSalt[(int(b)-200)%len(gemmSalt)]
			}
			return (float32(b) - 100) * scale
		}
		n := len(in) / 4
		c := adamCase{make([]float32, n), make([]float32, n), make([]float32, n), make([]float32, n)}
		for i := 0; i < n; i++ {
			c.values[i], c.grads[i] = val(in[4*i], 1.0/32), val(in[4*i+1], 1.0/1024)
			c.m[i], c.v[i] = val(in[4*i+2], 1.0/4096), val(in[4*i+3], 1.0/65536)
		}
		diffAdam(t, fmt.Sprintf("fuzz length %d", n), c, 2)
	})
}
