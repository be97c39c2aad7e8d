//go:build tensordebug

package tensor

import (
	"math"
	"testing"
)

// TestPoisonOnReleaseCatchesUseAfterFree: under the tensordebug tag a
// released matrix's payload turns NaN, so a stale alias held across Put (or
// an arena Reset) poisons any arithmetic that touches it instead of silently
// reading recycled data — while a matrix obtained through Get is re-zeroed
// and indistinguishable from a fresh allocation.
func TestPoisonOnReleaseCatchesUseAfterFree(t *testing.T) {
	p := NewPool()
	m := p.Get(2, 3)
	alias := m.Data // the use-after-free: retained across the release
	p.Put(m)
	for i, v := range alias {
		if !math.IsNaN(float64(v)) {
			t.Fatalf("released payload[%d] = %v, want NaN poison", i, v)
		}
	}
	// A stale alias contaminates downstream sums — the loud failure mode.
	var sum float32
	for _, v := range alias {
		sum += v
	}
	if !math.IsNaN(float64(sum)) {
		t.Fatalf("arithmetic over the stale alias = %v, want NaN", sum)
	}
	// Legitimate reuse through Get is clean.
	n := p.Get(2, 3)
	for i, v := range n.Data {
		if v != 0 {
			t.Fatalf("reused payload[%d] = %v, want 0", i, v)
		}
	}
}

// TestUninitCheckoutIsPoisoned: an uncleared checkout reads NaN whichever way
// the pool served it — a fresh allocation (the miss path), a recycled buffer
// its last holder had written, a recycled capacity reshaped larger than its
// last shape — so a GetUninit consumer that reads an element before writing it
// is loud; Get over the same buffers is still zeroed, and a nil pool or arena
// is still New (the unpooled reference runs plain arithmetic under the tag).
func TestUninitCheckoutIsPoisoned(t *testing.T) {
	allNaN := func(what string, m *Matrix) {
		t.Helper()
		for i, v := range m.Data {
			if !math.IsNaN(float64(v)) {
				t.Fatalf("%s: payload[%d] = %v, want NaN poison", what, i, v)
			}
		}
	}
	dirty := func(m *Matrix) {
		for i := range m.Data {
			m.Data[i] = 7
		}
	}
	p := NewPool()
	a := NewArena(p)
	m := p.GetUninit(4, 4)
	allNaN("pool miss", m)
	dirty(m)
	p.Put(m)
	h := p.GetUninit(2, 3)
	if h != m {
		t.Fatal("GetUninit did not reuse the released matrix")
	}
	allNaN("pool hit", h)
	dirty(h)
	p.Put(h)
	h = a.GetUninit(4, 4) // back to the full capacity, past the last holder's shape
	if h != m {
		t.Fatal("arena GetUninit did not reuse the released matrix")
	}
	allNaN("arena hit, reshaped larger", h)
	dirty(h)
	allNaN("arena miss", a.GetUninit(3, 3))
	a.Reset()
	for _, z := range []*Matrix{p.Get(4, 4), (*Pool)(nil).GetUninit(2, 2), (*Arena)(nil).GetUninit(2, 2)} {
		for i, v := range z.Data {
			if v != 0 {
				t.Fatalf("Get / nil-receiver GetUninit after uncleared checkouts: payload[%d] = %v, want 0", i, v)
			}
		}
	}
}

// TestPoisonOnArenaReset: the same guarantee through the arena path.
func TestPoisonOnArenaReset(t *testing.T) {
	a := NewArena(NewPool())
	m := a.Get(3, 3)
	alias := m.Data
	a.Reset()
	if !math.IsNaN(float64(alias[0])) {
		t.Fatalf("alias survived Reset unpoisoned: %v", alias[0])
	}
}

// TestPoisonReachesGEMMOutput: a released (poisoned) operand makes every
// output of all three GEMMs NaN even when the other operand is all zeros —
// post-ReLU activations are about half zeros, and a kernel that skipped zero
// multiplicands would let a use-after-release through exactly there.
func TestPoisonReachesGEMMOutput(t *testing.T) {
	const m, k, n = 3, 6, 5 // k and n leave a ragged tail after the x4 unroll
	stale := func(rows, cols int) *Matrix {
		p := NewPool()
		x := p.Get(rows, cols)
		p.Put(x)
		return x // use after release
	}
	for _, kern := range gemmKernels {
		for _, poisonA := range []bool{true, false} {
			a, b := New(m, k), New(k, n)
			if poisonA {
				a = stale(m, k)
			} else {
				b = stale(k, n)
			}
			out := New(m, n)
			kern.run(out, a, b, false)
			for i, v := range out.Data {
				if !math.IsNaN(float64(v)) {
					t.Fatalf("%s poisonA=%v: out[%d] = %v, want NaN", kern.name, poisonA, i, v)
				}
			}
		}
	}
}
