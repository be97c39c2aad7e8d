package tensor

import (
	"fmt"
	"sync"
	"testing"
)

func TestPoolExactShapeReuse(t *testing.T) {
	p := NewPool()
	a := p.Get(3, 4)
	a.Set(1, 2, 7)
	p.Put(a)
	b := p.Get(3, 4)
	if b != a {
		t.Fatalf("exact-shape Get did not reuse the released matrix")
	}
	if b.At(1, 2) != 0 {
		t.Fatalf("reused matrix not zeroed: got %v", b.At(1, 2))
	}
	st := p.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Resizes != 0 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 0 resizes", st)
	}
}

func TestPoolMissAllocatesFresh(t *testing.T) {
	p := NewPool()
	a := p.Get(2, 2)
	b := p.Get(2, 2) // a still checked out: must not be handed out twice
	if a == b {
		t.Fatalf("pool handed the same matrix to two owners")
	}
	st := p.Stats()
	if st.Hits != 0 || st.Misses != 2 || st.Outstanding != 2 {
		t.Fatalf("stats = %+v, want 0 hits / 2 misses / 2 outstanding", st)
	}
	p.Put(a)
	p.Put(b)
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding after Puts = %d, want 0", got)
	}
}

func TestPoolCapacityClassResize(t *testing.T) {
	p := NewPool()
	a := p.Get(8, 8) // 64 elements
	a.Set(0, 0, 3)
	p.Put(a)
	// Different shape, smaller need: served by reshaping the released matrix.
	b := p.Get(7, 9) // 63 elements <= cap 64
	if b != a {
		t.Fatalf("capacity-class Get did not reuse the released matrix")
	}
	if b.Rows != 7 || b.Cols != 9 || len(b.Data) != 63 {
		t.Fatalf("reshaped to %dx%d len %d, want 7x9 len 63", b.Rows, b.Cols, len(b.Data))
	}
	for i, v := range b.Data {
		if v != 0 {
			t.Fatalf("reshaped matrix not zeroed at %d: %v", i, v)
		}
	}
	st := p.Stats()
	if st.Hits != 1 || st.Resizes != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 resize", st)
	}
}

func TestPoolCapacityClassSkipsTooSmall(t *testing.T) {
	p := NewPool()
	small := p.Get(2, 2)
	p.Put(small)
	big := p.Get(100, 100) // nothing big enough: fresh allocation
	if big == small {
		t.Fatalf("pool reshaped a matrix without the capacity")
	}
	if st := p.Stats(); st.Misses != 2 {
		t.Fatalf("misses = %d, want 2", st.Misses)
	}
	// The small one is still pooled and reusable at its own shape.
	if again := p.Get(2, 2); again != small {
		t.Fatalf("small matrix lost from the pool")
	}
}

// TestPoolStaleEntryInvalidation: a matrix handed out once is never handed
// out again before its Put, whatever shapes are asked for in between, and its
// Put makes it reusable under the shape it was last given. (Named for how the
// pool could once fail it: a second index still listing the matrix.)
func TestPoolStaleEntryInvalidation(t *testing.T) {
	p := NewPool()
	a := p.Get(4, 4)
	p.Put(a)
	// Take it under a different shape of the same capacity class.
	b := p.Get(2, 7)
	if b != a {
		t.Fatalf("expected capacity-class reuse")
	}
	// Its original shape must not bring the checked-out matrix back.
	c := p.Get(4, 4)
	if c == a {
		t.Fatalf("pool handed out a checked-out matrix")
	}
	p.Put(b)
	d := p.Get(2, 7)
	if d != a {
		t.Fatalf("re-released matrix not reusable under its new shape")
	}
	p.Put(c)
	p.Put(d)
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding = %d, want 0", got)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool()
	m := p.Get(2, 3)
	p.Put(m)
	defer func() {
		if recover() == nil {
			t.Fatalf("double Put did not panic")
		}
	}()
	p.Put(m)
}

func TestNilPoolDegradesToNew(t *testing.T) {
	var p *Pool
	m := p.Get(2, 3)
	if m == nil || m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("nil pool Get = %+v", m)
	}
	p.Put(m) // no-op, must not panic
	if st := p.Stats(); st != (PoolStats{}) {
		t.Fatalf("nil pool stats = %+v", st)
	}
}

func TestArenaResetReturnsToPool(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	m1 := a.Get(3, 3)
	m2 := a.Get(5, 2)
	if a.Outstanding() != 2 {
		t.Fatalf("arena outstanding = %d, want 2", a.Outstanding())
	}
	a.Reset()
	if a.Outstanding() != 0 {
		t.Fatalf("arena outstanding after Reset = %d, want 0", a.Outstanding())
	}
	if p.Stats().Outstanding != 0 {
		t.Fatalf("pool outstanding after Reset = %d, want 0", p.Stats().Outstanding)
	}
	// The next round draws the same backing from the pool.
	n1, n2 := a.Get(3, 3), a.Get(5, 2)
	if n1 != m1 || n2 != m2 {
		t.Fatalf("arena round 2 did not reuse round 1's matrices")
	}
	a.Reset()
}

func TestNilArenaDegradesToNew(t *testing.T) {
	var a *Arena
	m := a.Get(2, 2)
	if m == nil || m.Rows != 2 {
		t.Fatalf("nil arena Get = %+v", m)
	}
	a.Reset() // no-op
	if a.Outstanding() != 0 || a.Pool() != nil {
		t.Fatalf("nil arena non-degenerate")
	}
}

// TestGetUninitIsGetWithoutTheClear: an uncleared checkout is served, counted
// and reclaimed exactly like a cleared one — same best fit, same reshape, same
// hit/miss/outstanding accounting, arena-owned until Reset — and degrades to
// New on a nil pool or arena; only the payload is left as it was.
func TestGetUninitIsGetWithoutTheClear(t *testing.T) {
	p := NewPool()
	a := NewArena(p)
	m := p.GetUninit(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("GetUninit(3,4) returned %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	p.Put(m)
	r := a.GetUninit(2, 5)
	if r != m || r.Rows != 2 || r.Cols != 5 || len(r.Data) != 10 {
		t.Fatalf("arena GetUninit(2,5) did not reshape the released 3x4: %p %dx%d len %d", r, r.Rows, r.Cols, len(r.Data))
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 1 || st.Resizes != 1 || st.Outstanding != 1 || a.Outstanding() != 1 {
		t.Fatalf("stats = %+v, arena holds %d; want 1 hit / 1 miss / 1 resize / 1 outstanding", st, a.Outstanding())
	}
	a.Reset()
	if st := p.Stats(); st.Outstanding != 0 || st.RetainedBytes != 48 {
		t.Fatalf("after Reset: %+v, want 0 outstanding / 48 retained bytes", st)
	}
	for _, n := range []*Matrix{(*Pool)(nil).GetUninit(2, 2), (*Arena)(nil).GetUninit(2, 2)} {
		if n.Rows != 2 || n.Cols != 2 || len(n.Data) != 4 {
			t.Fatalf("nil receiver GetUninit(2,2) returned %dx%d len %d", n.Rows, n.Cols, len(n.Data))
		}
	}
}

func TestClassOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 64: 6, 65: 7}
	for n, want := range cases {
		if got := classOf(n); got != want {
			t.Fatalf("classOf(%d) = %d, want %d", n, got, want)
		}
	}
	// Class c must fit any released matrix of class >= c with capacity >= n:
	// sanity-check the invariant cap in class c implies cap >= 2^(c-1)+1.
	for _, n := range []int{1, 2, 3, 7, 8, 9, 100, 4096, 4097} {
		c := classOf(n)
		if c > 0 && n <= 1<<(c-1) {
			t.Fatalf("classOf(%d) = %d but %d fits class %d", n, c, n, c-1)
		}
	}
}

// TestPoolConcurrentGetPutExclusive hammers one pool from many goroutines
// mixing exact-shape hits, capacity-class resizes, and misses, and checks
// that no matrix is ever handed to two owners at once: each owner stamps its
// id into the payload and verifies every element before release. The
// checkout transition is the dangerous window — this is the double-handout
// regression test for it, and it must stay clean under -race.
func TestPoolConcurrentGetPutExclusive(t *testing.T) {
	p := NewPool()
	const workers = 8
	const rounds = 400
	// A deliberately colliding shape set: same element counts and shared
	// capacity classes so the workers fight over the same free-list entries.
	shapes := [][2]int{{4, 8}, {8, 4}, {2, 16}, {5, 7}, {6, 6}}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			stamp := float32(id + 1)
			for r := 0; r < rounds; r++ {
				sh := shapes[(id+r)%len(shapes)]
				m := p.Get(sh[0], sh[1])
				for i := range m.Data {
					if m.Data[i] != 0 {
						errs <- fmt.Errorf("worker %d got dirty matrix: %v", id, m.Data[i])
						return
					}
					m.Data[i] = stamp
				}
				for i := range m.Data {
					if m.Data[i] != stamp {
						errs <- fmt.Errorf("worker %d: payload overwritten by another owner: got %v want %v", id, m.Data[i], stamp)
						return
					}
				}
				p.Put(m)
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := p.Stats().Outstanding; got != 0 {
		t.Fatalf("outstanding after all workers done = %d, want 0", got)
	}
}

// BenchmarkPoolGet times one warm checkout + release, cleared (Get) and
// uncleared (GetUninit), at the two shapes where the clear is the cost: the
// feature tensor of a train-arxiv-tight micro-batch and a hidden layer's
// pre-activation.
func BenchmarkPoolGet(b *testing.B) {
	for _, s := range []struct {
		name       string
		rows, cols int
	}{
		{"arxiv-feats", 6000, 128},
		{"hidden-pre", 618, 16},
	} {
		for _, get := range []struct {
			name string
			call func(*Pool, int, int) *Matrix
		}{
			{"Get", (*Pool).Get},
			{"GetUninit", (*Pool).GetUninit},
		} {
			b.Run(fmt.Sprintf("%s_%dx%d/%s", s.name, s.rows, s.cols, get.name), func(b *testing.B) {
				p := NewPool()
				p.Put(p.Get(s.rows, s.cols))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					p.Put(get.call(p, s.rows, s.cols))
				}
			})
		}
	}
}
