package tensor

import "testing"

// FuzzPoolModel drives a pool and an arena over it with a random op stream
// and holds every step against a reference model that knows nothing about
// classes: a plain multiset of released capacities. Three bytes per op:
// kind, then two shape bytes (0..8 each, so requests collide within and
// across the small capacity classes).
//
// Checked on every Get and GetUninit: the matrix has the requested shape and is
// all zero (Get; GetUninit's payload is unspecified, and all NaN where the
// build poisons); neither it nor its backing array is held by anyone else; it
// is a miss iff the model holds no released capacity >= n (the single index
// loses no hit a second index could have served); on a hit the capacity is the
// smallest one >= n — classes order capacities, so the minimum of the first
// class that fits is the minimum of the pool, which is what first fit gets
// wrong.
// Checked after every op: Outstanding and RetainedBytes equal the model's.
// A second Put of a released matrix panics and changes nothing.
func FuzzPoolModel(f *testing.F) {
	const (
		opGet = iota
		opPut
		opArenaGet
		opArenaReset
		opDoublePut
		opGetUninit
		opArenaGetUninit
		numOps
	)
	// The arena round trip first fit breaks: the 3x3 request takes the 5x2
	// buffer and the 5x2 request then misses.
	f.Add([]byte{opArenaGet, 3, 3, opArenaGet, 5, 2, opArenaReset, 0, 0, opArenaGet, 3, 3, opArenaGet, 5, 2, opArenaReset, 0, 0})
	// Same capacity released under two shapes, then taken under a third.
	f.Add([]byte{opGet, 4, 4, opGet, 2, 8, opPut, 0, 0, opPut, 0, 0, opGet, 8, 2, opGet, 4, 4, opGet, 1, 1, opDoublePut, 0, 0})
	// Empty and one-element matrices share class 0; a too-small release must
	// not serve a larger request.
	f.Add([]byte{opGet, 0, 5, opGet, 1, 1, opPut, 1, 0, opPut, 0, 0, opGet, 1, 1, opGet, 0, 0, opGet, 8, 8, opPut, 0, 0, opGet, 7, 7})
	// Arena and direct holders interleaved across a class boundary.
	f.Add([]byte{opArenaGet, 8, 8, opGet, 8, 4, opArenaGet, 4, 8, opPut, 0, 0, opArenaReset, 0, 0, opGet, 3, 7, opGet, 5, 7, opArenaGet, 6, 6, opDoublePut, 1, 0})
	// Cleared and uncleared checkouts trading the same dirtied capacities.
	f.Add([]byte{opGetUninit, 4, 4, opArenaGetUninit, 2, 8, opPut, 0, 0, opArenaReset, 0, 0, opGet, 4, 4, opGetUninit, 8, 2, opPut, 1, 0, opArenaGet, 3, 5, opGetUninit, 6, 6})

	probe := New(1, 1)
	poison(probe)
	poisons := probe.Data[0] != probe.Data[0] // the tensordebug build

	f.Fuzz(func(t *testing.T, ops []byte) {
		p := NewPool()
		a := NewArena(p)
		var held []*Matrix           // checked out directly, in Get order
		var free []*Matrix           // the model: every released matrix (capacity = cap(Data))
		bases := map[*float32]bool{} // backing arrays of live holders (direct + arena)
		base := func(m *Matrix) *float32 {
			if cap(m.Data) == 0 {
				return nil
			}
			return &m.Data[:1][0]
		}
		release := func(m *Matrix) {
			delete(bases, base(m))
			free = append(free, m)
		}
		var misses int64
		checkGet := func(m *Matrix, rows, cols int, zeroed bool) {
			t.Helper()
			n := rows * cols
			if m.Rows != rows || m.Cols != cols || len(m.Data) != n {
				t.Fatalf("Get(%d,%d) returned %dx%d len %d", rows, cols, m.Rows, m.Cols, len(m.Data))
			}
			for i, v := range m.Data {
				if zeroed && v != 0 {
					t.Fatalf("Get(%d,%d) not zeroed at %d: %v", rows, cols, i, v)
				}
				if !zeroed && poisons && v == v {
					t.Fatalf("GetUninit(%d,%d) not poisoned at %d: %v", rows, cols, i, v)
				}
				m.Data[i] = 1 // dirty it, so a later Get that skips the clear shows
			}
			minFit := -1 // smallest released capacity >= n
			for _, fm := range free {
				if k := cap(fm.Data); k >= n && (minFit < 0 || k < minFit) {
					minFit = k
				}
			}
			miss := p.Stats().Misses != misses
			misses = p.Stats().Misses
			switch {
			case miss && minFit >= 0:
				t.Fatalf("Get(%d,%d) missed with capacity %d released", rows, cols, minFit)
			case !miss && minFit < 0:
				t.Fatalf("Get(%d,%d) hit with no released capacity >= %d", rows, cols, n)
			case !miss && cap(m.Data) != minFit:
				t.Fatalf("Get(%d,%d) took capacity %d, smallest released fit is %d", rows, cols, cap(m.Data), minFit)
			}
			if !miss {
				at := -1
				for i, fm := range free {
					if fm == m {
						at = i
					}
				}
				if at < 0 {
					t.Fatalf("Get(%d,%d) hit with a matrix that was not released", rows, cols)
				}
				free = append(free[:at], free[at+1:]...)
			}
			if b := base(m); b != nil {
				if bases[b] {
					t.Fatalf("Get(%d,%d) shares its backing array with a live holder", rows, cols)
				}
				bases[b] = true
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			x, y := int(ops[1]), int(ops[2])
			switch ops[0] % numOps {
			case opGet:
				m := p.Get(x%9, y%9)
				checkGet(m, x%9, y%9, true)
				held = append(held, m)
			case opGetUninit:
				m := p.GetUninit(x%9, y%9)
				checkGet(m, x%9, y%9, false)
				held = append(held, m)
			case opPut:
				if len(held) == 0 {
					continue
				}
				i := x % len(held)
				p.Put(held[i])
				release(held[i])
				held = append(held[:i], held[i+1:]...)
			case opArenaGet:
				checkGet(a.Get(x%9, y%9), x%9, y%9, true)
			case opArenaGetUninit:
				checkGet(a.GetUninit(x%9, y%9), x%9, y%9, false)
			case opArenaReset:
				for _, m := range a.taken {
					release(m)
				}
				a.Reset()
			case opDoublePut:
				if len(free) == 0 {
					continue
				}
				m := free[x%len(free)]
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("second Put of a released matrix did not panic")
						}
					}()
					p.Put(m)
				}()
			}
			var retained int64
			for _, fm := range free {
				retained += 4 * int64(cap(fm.Data))
			}
			st := p.Stats()
			if want := int64(len(held) + a.Outstanding()); st.Outstanding != want {
				t.Fatalf("Outstanding = %d, model holds %d", st.Outstanding, want)
			}
			if st.RetainedBytes != retained {
				t.Fatalf("RetainedBytes = %d, model retains %d", st.RetainedBytes, retained)
			}
		}
	})
}
