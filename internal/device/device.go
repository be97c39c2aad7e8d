// Package device simulates the GPU that Buffalo schedules against: a memory
// ledger with a hard capacity that faults OOM exactly when a charge would
// exceed it, peak tracking, and a PCIe-style host-to-device transfer model.
//
// Beside the allocated bytes the ledger keeps a count of cached bytes: memory
// freed by its owner that still holds data worth keeping (input rows a
// finished micro-batch left on the device) and that any allocation may take
// back, like the reserved-but-unallocated memory of PyTorch's caching
// allocator. Live and peak figures count allocated bytes only.
//
// The reproduction's training math runs on the CPU, but every tensor a real
// GNN framework would place in GPU memory — input features, padded
// per-bucket neighbor tensors, layer activations, LSTM trajectories, model
// parameters, gradients, optimizer state — is charged to this ledger with
// its true byte size. OOM boundaries, peak-memory curves (Figs 2, 10, 13,
// 14, 15) and load-balance numbers therefore reflect the same allocation
// pattern a CUDA run would produce, at the reduced scale documented in
// DESIGN.md (paper GB -> simulated MB).
package device

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"buffalo/internal/obs"
)

// Common capacity constants at reproduction scale: the paper's 16/24/48/80 GB
// budgets map to the same numerals in MB.
const (
	MB = int64(1) << 20
	GB = int64(1) << 30
)

// OOMError reports an allocation that would exceed the device capacity —
// the simulated CUDA out-of-memory fault.
type OOMError struct {
	Device    string
	Tag       string // what the allocation was for, e.g. "activations/layer1"
	Requested int64
	Live      int64
	Capacity  int64
}

// Error implements error.
func (e *OOMError) Error() string {
	return fmt.Sprintf("device %s: out of memory allocating %d bytes for %q (live %d / capacity %d)",
		e.Device, e.Requested, e.Tag, e.Live, e.Capacity)
}

// IsOOM reports whether err is (or wraps) an OOMError.
func IsOOM(err error) bool {
	var oom *OOMError
	return errors.As(err, &oom)
}

// GPU is a simulated accelerator: a capacity-limited allocation ledger plus
// simulated transfer/compute clocks.
type GPU struct {
	name     string
	capacity int64

	// Transfer model: effective host-to-device bandwidth and per-transfer
	// latency. Defaults approximate PCIe 3.0 x16.
	bandwidth float64 // bytes per second
	latency   time.Duration

	// rec receives every ledger and clock event. Ledger events (alloc,
	// free, OOM) are recorded while the ledger mutex is held, so the trace
	// is a coherent serialization of the ledger even under concurrent
	// allocators — the timeline reconstructor's replayed peak matches
	// Peak() exactly. A nil recorder costs one pointer check per call.
	rec *obs.Recorder

	mu   sync.Mutex
	live int64
	// cached is freed memory that still holds a caller's data until an
	// allocation needs the room (Cache, Uncache). It is never part of live
	// or peak, and live + cached never exceeds capacity.
	cached       int64
	peak         int64
	allocSeq     int64
	liveAllocs   map[int64]*Allocation
	transferTime time.Duration
	transferred  int64
	computeTime  time.Duration

	// Overlap model: real GPUs run a copy engine beside the compute
	// engine, so an async (prefetched) H2D copy costs wall time only when
	// the compute engine has to wait for it. copyFront and computeFront
	// are the two engines' positions on the simulated timeline; stallTime
	// accumulates the compute-engine waits (the exposed, non-hidden part
	// of async transfer time).
	copyFront    time.Duration
	computeFront time.Duration
	stallTime    time.Duration
}

// Option configures a GPU.
type Option func(*GPU)

// WithRecorder attaches an observability recorder (see internal/obs) to the
// device: every alloc, free, OOM fault, transfer and compute accrual is
// traced. A nil recorder disables recording at zero cost.
func WithRecorder(r *obs.Recorder) Option {
	return func(g *GPU) { g.rec = r }
}

// NewGPU builds a simulated GPU with the given memory capacity in bytes.
func NewGPU(name string, capacity int64, opts ...Option) *GPU {
	g := &GPU{
		name:       name,
		capacity:   capacity,
		bandwidth:  12e9, // ~PCIe 3.0 x16 effective
		latency:    10 * time.Microsecond,
		liveAllocs: make(map[int64]*Allocation),
	}
	for _, o := range opts {
		o(g)
	}
	return g
}

// Name returns the device name.
func (g *GPU) Name() string { return g.name }

// Capacity returns the configured memory capacity in bytes.
func (g *GPU) Capacity() int64 { return g.capacity }

// Allocation is a live reservation on a GPU. Free it exactly once.
type Allocation struct {
	gpu   *GPU
	id    int64
	Tag   string
	Bytes int64
	freed bool
}

// Alloc reserves size bytes tagged for diagnostics. It returns an *OOMError
// when the reservation would exceed capacity.
func (g *GPU) Alloc(tag string, size int64) (*Allocation, error) {
	a := new(Allocation)
	if err := g.AllocInto(a, tag, size); err != nil {
		return nil, err
	}
	return a, nil
}

// AllocInto is Alloc recording the reservation in a, which the caller owns
// and which must be zero or freed (a live one panics, as a double free
// does): a hot path that holds one reservation at a time reuses one record
// instead of allocating one per reservation. On error a is left as it was.
//
// Cached bytes never cause an OOM: the charge fails exactly when live + size
// exceeds capacity. When it fits only because of them, it reclaims the
// excess — live + cached + size − capacity bytes, no more — from the cached
// count and records the reclaim as a "reclaim" mark. The cached bytes are
// interchangeable: which of the caller's data they stood for (its oldest) is
// the caller's to decide, by trimming its own record to Cached().
func (g *GPU) AllocInto(a *Allocation, tag string, size int64) error {
	if size < 0 {
		return fmt.Errorf("device %s: negative allocation %d for %q", g.name, size, tag)
	}
	if a.gpu != nil && !a.freed {
		panic(fmt.Sprintf("device %s: reserving %q into the live allocation %q", g.name, tag, a.Tag))
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.live+size > g.capacity {
		g.rec.Event(obs.KindOOM, g.name, tag, size, g.live, 0)
		return &OOMError{Device: g.name, Tag: tag, Requested: size, Live: g.live, Capacity: g.capacity}
	}
	if over := g.live + g.cached + size - g.capacity; over > 0 {
		g.cached -= over
		g.rec.Event(obs.KindMark, g.name, "reclaim", over, g.live, g.cached)
	}
	g.live += size
	if g.live > g.peak {
		g.peak = g.live
	}
	g.allocSeq++
	*a = Allocation{gpu: g, id: g.allocSeq, Tag: tag, Bytes: size}
	g.liveAllocs[a.id] = a
	g.rec.Event(obs.KindAlloc, g.name, tag, size, g.live, 0)
	return nil
}

// Free releases the allocation. Double frees panic: they indicate a
// scheduling bug that would corrupt the ledger silently otherwise.
func (a *Allocation) Free() {
	if a == nil {
		return
	}
	a.gpu.mu.Lock()
	defer a.gpu.mu.Unlock()
	if a.freed {
		panic(fmt.Sprintf("device %s: double free of %q", a.gpu.name, a.Tag))
	}
	a.freed = true
	a.gpu.live -= a.Bytes
	delete(a.gpu.liveAllocs, a.id)
	a.gpu.rec.Event(obs.KindFree, a.gpu.name, a.Tag, a.Bytes, a.gpu.live, 0)
}

// Live returns the currently reserved bytes. Cached bytes are not counted.
func (g *GPU) Live() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.live
}

// ResetPeak sets the high-water mark to the current live bytes. The
// transfer/compute clocks are never reset: the training engine rebases only
// the watermark each iteration and reads phases as clock deltas, since a
// clock reset would corrupt a prefetcher's in-flight copies.
func (g *GPU) ResetPeak() {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.peak = g.live
}

// LiveAllocations returns a snapshot of outstanding allocations. Only tests
// call it; it stays as the debugging tool for finding which tag holds the
// ledger up (ROADMAP 11(a) uses it).
func (g *GPU) LiveAllocations() []Allocation {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]Allocation, 0, len(g.liveAllocs))
	for _, a := range g.liveAllocs {
		out = append(out, *a)
	}
	return out
}

// TransferDuration reports the modeled duration of a host-to-device copy of
// size bytes without performing one — what a prefetcher charges an iteration
// for its async copies regardless of how much of it compute later hides.
func (g *GPU) TransferDuration(size int64) time.Duration {
	return g.latency + time.Duration(float64(size)/g.bandwidth*float64(time.Second))
}

// TransferH2D models a synchronous copy of size bytes from host to device
// memory and returns the simulated duration, which is also accumulated on
// the device's transfer clock. The compute engine waits for a synchronous
// copy, so both engine fronts advance to the copy's completion. It does not
// reserve memory; pair it with Alloc.
func (g *GPU) TransferH2D(size int64) time.Duration {
	d := g.TransferDuration(size)
	g.mu.Lock()
	g.transferTime += d
	g.transferred += size
	start := g.copyFront
	if g.computeFront > start {
		start = g.computeFront
	}
	g.copyFront = start + d
	g.computeFront = g.copyFront
	g.mu.Unlock()
	g.rec.Span(obs.KindTransferH2D, g.name, "h2d", d, size, 0)
	return d
}

// TransferH2DAsync models an asynchronous (prefetched) host-to-device copy
// on the copy engine: the copy starts as soon as both the engine is free and
// the issue instant (the compute engine's current position — a prefetch
// cannot be issued before "now") and runs concurrently with compute. It
// returns the copy's completion position on the simulated timeline; pass it
// to WaitTransfer before the dependent kernel runs. The full duration is
// accrued on the transfer clock (the engine is busy that long); how much of
// it was hidden behind compute is decided at WaitTransfer time.
func (g *GPU) TransferH2DAsync(size int64) time.Duration {
	d := g.TransferDuration(size)
	g.mu.Lock()
	g.transferTime += d
	g.transferred += size
	start := g.copyFront
	if g.computeFront > start {
		start = g.computeFront
	}
	g.copyFront = start + d
	done := g.copyFront
	g.mu.Unlock()
	g.rec.Span(obs.KindTransferH2D, g.name, "h2d", d, size, 0)
	return done
}

// WaitTransfer blocks the simulated compute engine until an async copy
// completes: the stall is the part of the copy the compute engine could not
// hide behind earlier kernels — the exposed data-loading time of a
// double-buffered loader. It advances the compute front to the copy's
// completion, accrues the stall on the stall clock, and returns it (0 when
// the copy already finished behind compute).
func (g *GPU) WaitTransfer(done time.Duration) time.Duration {
	g.mu.Lock()
	stall := done - g.computeFront
	if stall < 0 {
		stall = 0
	}
	g.computeFront += stall
	g.stallTime += stall
	g.mu.Unlock()
	if stall > 0 {
		g.rec.Span(obs.KindStall, g.name, "h2d-wait", stall, 0, 0)
	}
	return stall
}

// AddComputeTime accrues measured kernel time onto the device's compute
// clock. Trainers call this with the wall time of the CPU-side math standing
// in for the CUDA kernels.
func (g *GPU) AddComputeTime(d time.Duration) {
	g.mu.Lock()
	g.computeTime += d
	g.computeFront += d
	g.mu.Unlock()
	g.rec.Span(obs.KindCompute, g.name, "kernel", d, 0, 0)
}

// Stats is a point-in-time snapshot of a device's counters.
type Stats struct {
	Name         string
	Capacity     int64
	Live         int64
	Peak         int64
	Transferred  int64
	TransferTime time.Duration
	ComputeTime  time.Duration
	// StallTime is the compute-engine time spent waiting on async copies:
	// the exposed (non-hidden) share of TransferTime under prefetching.
	// Synchronous TransferH2D calls are fully exposed by definition and are
	// not counted here.
	StallTime time.Duration
}

// Stats returns a snapshot of the device counters.
func (g *GPU) Stats() Stats {
	g.mu.Lock()
	defer g.mu.Unlock()
	return Stats{
		Name:         g.name,
		Capacity:     g.capacity,
		Live:         g.live,
		Peak:         g.peak,
		Transferred:  g.transferred,
		TransferTime: g.transferTime,
		ComputeTime:  g.computeTime,
		StallTime:    g.stallTime,
	}
}

// Cache marks n freed bytes as still holding the caller's data: they stay
// cached until Uncache hands them back or an allocation reclaims them. It
// panics when n is negative or the bytes are not free (live + cached + n
// would exceed capacity), which only a caller caching memory it has not
// freed can cause. A cache costs nothing on the transfer or compute clocks.
func (g *GPU) Cache(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n < 0 || g.live+g.cached+n > g.capacity {
		panic(fmt.Sprintf("device %s: caching %d bytes with %d live and %d cached of %d",
			g.name, n, g.live, g.cached, g.capacity))
	}
	g.cached += n
}

// Uncache drops n bytes from the cached count: the caller has taken its data
// back (it is about to be allocated again) or no longer wants it kept. It
// panics when n is negative or more than is cached.
func (g *GPU) Uncache(n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if n < 0 || n > g.cached {
		panic(fmt.Sprintf("device %s: uncaching %d of %d cached bytes", g.name, n, g.cached))
	}
	g.cached -= n
}

// Cached returns the cached bytes no allocation has reclaimed yet.
func (g *GPU) Cached() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.cached
}
