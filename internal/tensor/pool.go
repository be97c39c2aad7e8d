package tensor

import (
	"math/bits"
	"sync"
	"sync/atomic"
)

// Pool is the size-class free list of a caching allocator: released matrices
// are kept by the ceil-log2 class of their backing capacity, and Get reshapes
// the smallest released capacity that fits the request (zeroed, so pooled
// allocation is indistinguishable from New). The varying shapes of sampled
// batches — no two iterations gather the same frontier sizes — therefore
// reuse backing storage instead of allocating every time, and a request for
// a shape that was released before finds that very capacity.
//
// Best fit, not first fit: a request must not take a larger buffer while a
// smaller one would do, or the next request — the one the larger buffer was
// released for — misses and the pool grows without bound on a steady shape
// mix (a 3x3 request stealing the 5x2 buffer makes the following 5x2 request
// allocate). The scan is over one class, newest release first, and stops at
// an exact capacity match.
//
// One mutex guards the free lists AND every matrix checkout/release
// transition (released, poison-on-release), so a matrix is in at most one
// list slot and never handed to two owners; the hot paths hold it for a
// slice scan/pop only, and the checkout pattern (one Get/Put pair per staged
// buffer, not per element) keeps contention negligible. The counters are
// atomics so Stats is lock-free.
//
// All methods are nil-receiver safe: a nil *Pool allocates fresh matrices
// and discards releases, which is exactly "pooling off" — callers thread one
// optional pool instead of branching at every site.
type Pool struct {
	mu      sync.Mutex
	byClass [40][]*Matrix // released matrices by ceil-log2 element capacity

	hits        atomic.Int64
	misses      atomic.Int64
	resizes     atomic.Int64
	outstanding atomic.Int64
	retained    atomic.Int64 // bytes of backing storage in byClass; written under mu
}

// classOf buckets an element count into its ceil-log2 capacity class: class
// c holds needs in (2^(c-1), 2^c], so any matrix put in a HIGHER class is
// guaranteed to fit, and every capacity in a class is below every capacity
// in the next — the best fit within the first class that has one is the best
// fit in the pool.
func classOf(n int) int {
	if n <= 0 {
		return 0
	}
	c := bits.Len(uint(n - 1))
	if c > 38 {
		c = 38
	}
	return c
}

// PoolStats is a snapshot of the pool's reuse counters.
type PoolStats struct {
	// Hits counts Gets served from the free list, Misses those that fell
	// through to a fresh allocation.
	Hits, Misses int64
	// Resizes counts the subset of Hits whose matrix was released under a
	// different shape.
	Resizes int64
	// Outstanding is the live checkout gauge: Gets minus Puts.
	Outstanding int64
	// RetainedBytes is the backing storage the pool holds released: four
	// bytes per element of capacity, summed over the free list.
	RetainedBytes int64
}

// NewPool builds an empty pool.
func NewPool() *Pool { return &Pool{} }

// Get returns a zeroed rows x cols matrix, reshaping the smallest released
// matrix with enough capacity when there is one.
func (p *Pool) Get(rows, cols int) *Matrix {
	if p == nil {
		return New(rows, cols)
	}
	m, recycled := p.take(rows, cols)
	if recycled {
		m.Zero()
	}
	return m
}

// GetUninit is Get without the clear, for a consumer that writes every
// element before it reads any (a gather, a non-accumulating GEMM, a copy): the
// payload is whatever the buffer's last holder left. Under the tensordebug
// build tag it is NaN instead — a recycled buffer was poisoned at its release
// and a fresh one is poisoned here — so a read before the write is loud. A nil
// pool still degrades to New: the unpooled reference stays plain arithmetic.
func (p *Pool) GetUninit(rows, cols int) *Matrix {
	if p == nil {
		return New(rows, cols)
	}
	m, recycled := p.take(rows, cols)
	if !recycled {
		poison(m)
	}
	return m
}

// take checks a rows x cols matrix out: the smallest released capacity that
// fits, reshaped and with its last holder's payload (recycled), or a fresh
// zeroed one.
func (p *Pool) take(rows, cols int) (m *Matrix, recycled bool) {
	n := rows * cols
	p.mu.Lock()
	for c := classOf(n); c < len(p.byClass) && m == nil; c++ {
		cs := p.byClass[c]
		best := -1
		for i := len(cs) - 1; i >= 0; i-- {
			k := cap(cs[i].Data)
			if k < n || (best >= 0 && k >= cap(cs[best].Data)) {
				continue
			}
			best = i
			if k == n {
				break
			}
		}
		if best < 0 {
			continue
		}
		m = cs[best]
		m.released = false // checkout under p.mu: Put's double-release check reads it there
		cs[best] = cs[len(cs)-1]
		cs[len(cs)-1] = nil
		p.byClass[c] = cs[:len(cs)-1]
		p.retained.Add(-4 * int64(cap(m.Data)))
	}
	p.mu.Unlock()
	p.outstanding.Add(1)
	if m == nil {
		p.misses.Add(1)
		return New(rows, cols), false
	}
	p.hits.Add(1)
	if m.Rows != rows || m.Cols != cols {
		p.resizes.Add(1)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:n]
	}
	return m, true
}

// Put returns m to the pool's free list. Releasing the same matrix twice
// panics — a double Put means two owners believe they hold the buffer, which
// is exactly the aliasing bug pooling must not hide. Under the tensordebug
// build tag the payload is additionally poisoned with NaN so a stale alias
// held across the release turns arithmetic loud instead of silently reading
// recycled data.
func (p *Pool) Put(m *Matrix) {
	if p == nil || m == nil {
		return
	}
	c := classOf(cap(m.Data))
	p.mu.Lock()
	if m.released {
		p.mu.Unlock()
		panic("tensor: double release of pooled matrix")
	}
	// The release transition and the poison happen under p.mu, before the
	// matrix is visible in the free list: a concurrent Get can never take a
	// half-released matrix (or have a payload it already holds poisoned).
	m.released = true
	poison(m)
	p.byClass[c] = append(p.byClass[c], m)
	p.retained.Add(4 * int64(cap(m.Data)))
	p.mu.Unlock()
	p.outstanding.Add(-1)
}

// Stats returns a snapshot of the reuse counters.
func (p *Pool) Stats() PoolStats {
	if p == nil {
		return PoolStats{}
	}
	return PoolStats{
		Hits:          p.hits.Load(),
		Misses:        p.misses.Load(),
		Resizes:       p.resizes.Load(),
		Outstanding:   p.outstanding.Load(),
		RetainedBytes: p.retained.Load(),
	}
}

// Arena hands out pool-backed matrices scoped to one unit of work (a
// micro-batch's forward/backward, one inference request) and reclaims them
// wholesale: Reset returns everything taken since the last Reset to the
// underlying pool. It is deliberately not thread-safe — an arena belongs to
// exactly one goroutine's compute loop; cross-goroutine buffers (staged
// features) go through the Pool directly.
//
// A nil *Arena degrades to plain New on Get and a no-op Reset, so kernels
// take an optional arena without branching.
type Arena struct {
	pool  *Pool
	taken []*Matrix
}

// NewArena builds an arena drawing from p (which may be shared by several
// arenas; p must not be nil).
func NewArena(p *Pool) *Arena {
	return &Arena{pool: p}
}

// Get returns a zeroed rows x cols matrix owned by the arena until the next
// Reset.
func (a *Arena) Get(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	m := a.pool.Get(rows, cols)
	a.taken = append(a.taken, m)
	return m
}

// GetUninit is Get without the clear (see Pool.GetUninit): for a matrix whose
// every element the caller writes before reading any.
func (a *Arena) GetUninit(rows, cols int) *Matrix {
	if a == nil {
		return New(rows, cols)
	}
	m := a.pool.GetUninit(rows, cols)
	a.taken = append(a.taken, m)
	return m
}

// Pool returns the arena's backing pool (nil for a nil arena), so callers
// holding only the arena can still read reuse stats.
func (a *Arena) Pool() *Pool {
	if a == nil {
		return nil
	}
	return a.pool
}

// Reset releases every matrix handed out since the last Reset back to the
// pool. Callers must not retain references across a Reset; under the
// tensordebug build tag retained aliases read NaN.
func (a *Arena) Reset() {
	if a == nil {
		return
	}
	for i, m := range a.taken {
		a.pool.Put(m)
		a.taken[i] = nil
	}
	a.taken = a.taken[:0]
}

// Outstanding reports how many matrices the arena currently holds checked
// out (diagnostic; zero right after a Reset).
func (a *Arena) Outstanding() int {
	if a == nil {
		return 0
	}
	return len(a.taken)
}
