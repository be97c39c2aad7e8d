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
