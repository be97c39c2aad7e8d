package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float32) bool {
	d := float64(a - b)
	return math.Abs(d) < 1e-4
}

// Allocating forms of the three products, for tests only.
func matMul(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b, false)
	return out
}

func matMulATB(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulATBInto(out, a, b, false)
	return out
}

func matMulABT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulABTInto(out, a, b, false)
	return out
}

// Transpose returns a new matrix mᵀ: the tests' reference for the
// transposed products.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	TransposeInto(t, m)
	return t
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("bad shape %+v", m)
	}
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	if got := m.Row(1); got[2] != 5 {
		t.Fatal("Row view wrong")
	}
	if m.Bytes() != 24 {
		t.Fatalf("Bytes = %d, want 24", m.Bytes())
	}
}

func TestFromSlicePanicsOnBadLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FromSlice(2, 2, []float32{1, 2, 3})
}

func TestMatMul(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := matMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if !almostEq(c.Data[i], w) {
			t.Fatalf("c[%d] = %v, want %v", i, c.Data[i], w)
		}
	}
}

func TestMatMulAccumulate(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(2, 1, []float32{3, 4})
	out := FromSlice(1, 1, []float32{100})
	MatMulInto(out, a, b, true)
	if out.Data[0] != 111 {
		t.Fatalf("accumulate got %v, want 111", out.Data[0])
	}
	MatMulInto(out, a, b, false)
	if out.Data[0] != 11 {
		t.Fatalf("overwrite got %v, want 11", out.Data[0])
	}
}

// TestTransposedProducts cross-checks ATB and ABT against explicit Transpose.
func TestTransposedProducts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := New(4, 3)
	b := New(4, 5)
	for i := range a.Data {
		a.Data[i] = rng.Float32() - 0.5
	}
	for i := range b.Data {
		b.Data[i] = rng.Float32() - 0.5
	}
	atb := matMulATB(a, b)
	ref := matMul(a.Transpose(), b)
	for i := range ref.Data {
		if !almostEq(atb.Data[i], ref.Data[i]) {
			t.Fatalf("ATB[%d] = %v, want %v", i, atb.Data[i], ref.Data[i])
		}
	}
	c := New(6, 5)
	for i := range c.Data {
		c.Data[i] = rng.Float32() - 0.5
	}
	abt := matMulABT(c, b) // (6x5) @ (4x5)ᵀ = 6x4
	ref2 := matMul(c, b.Transpose())
	for i := range ref2.Data {
		if !almostEq(abt.Data[i], ref2.Data[i]) {
			t.Fatalf("ABT[%d] = %v, want %v", i, abt.Data[i], ref2.Data[i])
		}
	}
}

func TestMatMulShapePanics(t *testing.T) {
	cases := []func(){
		func() { matMul(New(2, 3), New(2, 3)) },
		func() { matMulATB(New(2, 3), New(3, 2)) },
		func() { matMulABT(New(2, 3), New(2, 4)) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			f()
		}()
	}
}

func TestElementwise(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{10, 20, 30})
	sum := a.Clone()
	sum.AddInPlace(b)
	if sum.Data[2] != 33 {
		t.Fatalf("AddInPlace = %v", sum.Data)
	}
	b.Zero()
	if b.Data[0] != 0 {
		t.Fatal("Zero failed")
	}
}

func TestBroadcastAndReduce(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	bias := FromSlice(1, 2, []float32{10, 20})
	m.AddRowVector(bias)
	if m.At(0, 0) != 11 || m.At(1, 1) != 24 {
		t.Fatalf("AddRowVector = %v", m.Data)
	}
	s := New(1, 2)
	m.SumRowsInto(s)
	if s.At(0, 0) != 24 || s.At(0, 1) != 46 {
		t.Fatalf("SumRows = %v", s.Data)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := a.Clone()
	b.Data[0] = 9
	if a.Data[0] != 1 {
		t.Fatal("Clone aliases source")
	}
	c := New(1, 2)
	c.CopyFrom(a)
	if c.Data[1] != 2 {
		t.Fatal("CopyFrom failed")
	}
}

func TestSoftmaxRows(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 1, 1, 1000, 0, -1000})
	s := New(2, 3)
	SoftmaxRowsInto(s, m)
	for j := 0; j < 3; j++ {
		if !almostEq(s.At(0, j), 1.0/3) {
			t.Fatalf("uniform softmax wrong: %v", s.Row(0))
		}
	}
	// Large logits must not overflow: row 1 ~ [1, 0, 0].
	if !almostEq(s.At(1, 0), 1) || s.At(1, 2) != 0 {
		t.Fatalf("stable softmax wrong: %v", s.Row(1))
	}
	// Rows sum to 1.
	for i := 0; i < 2; i++ {
		var sum float32
		for _, v := range s.Row(i) {
			sum += v
		}
		if !almostEq(sum, 1) {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

// Property: (A@B)ᵀ == Bᵀ@Aᵀ.
func TestQuickMatMulTransposeIdentity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := New(r, k), New(k, c)
		for i := range a.Data {
			a.Data[i] = rng.Float32() - 0.5
		}
		for i := range b.Data {
			b.Data[i] = rng.Float32() - 0.5
		}
		lhs := matMul(a, b).Transpose()
		rhs := matMul(b.Transpose(), a.Transpose())
		for i := range lhs.Data {
			if !almostEq(lhs.Data[i], rhs.Data[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
