package stamp

import (
	"math"
	"slices"
	"testing"
)

// set marks the given keys with their own value and reports which keys in
// [0, n) read as present afterwards.
func set(t *Table, n int, keys ...int) []int {
	cells, ep := t.Begin(n)
	for _, k := range keys {
		cells[k] = Cell{Epoch: ep, Val: int32(k)}
	}
	var present []int
	for k := range cells {
		if cells[k].Epoch == ep {
			if cells[k].Val != int32(k) {
				panic("stale value under a current stamp")
			}
			present = append(present, k)
		}
	}
	return present
}

func TestBeginEmptiesAcrossSizesAndWrap(t *testing.T) {
	var tb Table
	// Park the epoch so the sequence below crosses the wrap: uses stamped
	// MaxUint32 and then (after the clear) 1, 2, ...
	tb.Epoch = math.MaxUint32 - 1
	steps := []struct {
		n    int
		keys []int
	}{
		{8, []int{0, 3, 7}},
		{3, []int{1}},
		{8, []int{7}}, // keys 0 and 3 were stamped two uses ago
		{64, []int{5, 63}},
		{8, []int{}},
		{64, []int{63}},
	}
	for i, s := range steps {
		if got := set(&tb, s.n, s.keys...); !slices.Equal(got, s.keys) {
			t.Fatalf("step %d (n=%d, epoch %d): present %v, want %v", i, s.n, tb.Epoch, got, s.keys)
		}
	}
	if tb.Epoch == 0 || tb.Epoch > uint32(len(steps)) {
		t.Fatalf("epoch %d: the sequence should have wrapped once and restarted at 1", tb.Epoch)
	}
}

func TestBeginWrapClearsEveryCell(t *testing.T) {
	var tb Table
	cells, ep := tb.Begin(4) // epoch 1
	cells[2] = Cell{Epoch: ep, Val: 9}
	tb.Epoch = math.MaxUint32 // the next Begin wraps to 0 and must restart at 1
	cells, ep = tb.Begin(4)
	if ep != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", ep)
	}
	if cells[2].Epoch == ep {
		t.Fatal("a cell stamped 1 before the wrap reads as set after it")
	}
}

func TestGetReadsOnlyTheLastFill(t *testing.T) {
	var tb Table
	if _, ok := tb.Get(0); ok {
		t.Fatal("the zero table holds a key")
	}
	cells, ep := tb.Begin(8)
	cells[3] = Cell{Epoch: ep, Val: 7}
	if v, ok := tb.Get(3); !ok || v != 7 {
		t.Fatalf("Get(3) = %d, %v; want 7", v, ok)
	}
	for _, k := range []int{-1, 2, 8, 1 << 40} {
		if _, ok := tb.Get(k); ok {
			t.Fatalf("Get(%d) reads as set", k)
		}
	}
	tb.Begin(2) // a smaller key space: key 3 is out of range but its cell remains
	if _, ok := tb.Get(3); ok {
		t.Fatal("a key of the previous fill reads as set after Begin")
	}
}
