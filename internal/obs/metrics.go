package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Fixed histogram bucket layouts. Sharing layouts keeps every histogram a
// flat array of atomic counters — no per-observation allocation, no
// locking — and makes snapshots comparable across runs.
var (
	// ByteBuckets spans 1KB..16GB in powers of four: wide enough for the
	// reproduction's MB-scale budgets and a real run's GB-scale ones.
	ByteBuckets = []int64{
		1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
		1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20,
		1 << 30, 4 << 30, 16 << 30,
	}
	// DurationBuckets spans 1µs..100s in decades, in nanoseconds.
	DurationBuckets = []int64{
		int64(time.Microsecond), int64(10 * time.Microsecond), int64(100 * time.Microsecond),
		int64(time.Millisecond), int64(10 * time.Millisecond), int64(100 * time.Millisecond),
		int64(time.Second), int64(10 * time.Second), int64(100 * time.Second),
	}
	// BasisPointBuckets is for relative errors (the memory estimator's
	// predicted-vs-actual deviation) in basis points, hundredths of a
	// percent, so errors under 1% keep their size: 1% .. 100%.
	BasisPointBuckets = []int64{100, 200, 500, 1000, 1500, 2500, 5000, 10000}
	// LatencyBuckets resolves serving SLO quantiles, in nanoseconds: decade
	// buckets are too coarse to read a p99 off, so the serving range
	// (100µs..10s) gets 1-2-5 steps per decade.
	LatencyBuckets = []int64{
		int64(100 * time.Microsecond), int64(200 * time.Microsecond), int64(500 * time.Microsecond),
		int64(time.Millisecond), int64(2 * time.Millisecond), int64(5 * time.Millisecond),
		int64(10 * time.Millisecond), int64(20 * time.Millisecond), int64(50 * time.Millisecond),
		int64(100 * time.Millisecond), int64(200 * time.Millisecond), int64(500 * time.Millisecond),
		int64(time.Second), int64(2 * time.Second), int64(5 * time.Second), int64(10 * time.Second),
	}
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver and for concurrent use.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value metric (e.g. the scheduler's most recent
// K). All methods are safe on a nil receiver and for concurrent use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Value returns the last stored value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed, registry-shared bucket
// boundaries (counts[i] counts values <= bounds[i]; the final implicit
// bucket counts overflows). Observations are two atomic adds — no locks.
type Histogram struct {
	bounds []int64
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	sum    atomic.Int64
	n      atomic.Int64
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.sum.Add(v)
	h.n.Add(1)
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum reports the sum of all observed values.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean reports the average observed value (0 with no observations).
func (h *Histogram) Mean() float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// inside the fixed bucket the quantile's rank falls in: the bucket's count
// is assumed uniformly spread between its lower and upper boundary (the
// first bucket's lower boundary is 0). A quantile landing in the unbounded
// overflow bucket is clamped to the last finite boundary — the histogram
// cannot resolve anything beyond it.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := q * float64(n)
	if target < 1 {
		target = 1
	}
	var cum int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		if float64(cum+c) >= target {
			if i >= len(h.bounds) {
				// Open-ended overflow bucket: clamp at the last boundary.
				return float64(h.bounds[len(h.bounds)-1])
			}
			var lo int64
			if i > 0 {
				lo = h.bounds[i-1]
			}
			hi := h.bounds[i]
			frac := (target - float64(cum)) / float64(c)
			return float64(lo) + frac*float64(hi-lo)
		}
		cum += c
	}
	return float64(h.bounds[len(h.bounds)-1])
}

// BucketCount is one bucket of a histogram snapshot. LE is the bucket's
// inclusive upper boundary; the open-ended overflow bucket carries LE = -1.
type BucketCount struct {
	LE int64 `json:"le"`
	N  int64 `json:"n"`
}

// Buckets snapshots the histogram's non-empty buckets in boundary order —
// the full distribution a run manifest persists for cross-run comparison.
func (h *Histogram) Buckets() []BucketCount {
	if h == nil {
		return nil
	}
	var out []BucketCount
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		le := int64(-1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		out = append(out, BucketCount{LE: le, N: c})
	}
	return out
}

// Metrics is a named-instrument registry. Instruments are get-or-create and
// live forever; hot paths should capture the returned pointer once (the
// Recorder pre-registers one counter and two histograms per event kind).
// All methods are safe on a nil receiver and for concurrent use.
type Metrics struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewMetrics builds an empty registry.
func NewMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
func (m *Metrics) Counter(name string) *Counter {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	c := m.counters[name]
	m.mu.RUnlock()
	if c != nil {
		return c
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if c = m.counters[name]; c == nil {
		c = &Counter{}
		m.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (m *Metrics) Gauge(name string) *Gauge {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	g := m.gauges[name]
	m.mu.RUnlock()
	if g != nil {
		return g
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if g = m.gauges[name]; g == nil {
		g = &Gauge{}
		m.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// boundaries on first use. Boundaries must be sorted ascending; later calls
// with different boundaries return the original instrument.
func (m *Metrics) Histogram(name string, bounds []int64) *Histogram {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	h := m.hists[name]
	m.mu.RUnlock()
	if h != nil {
		return h
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if h = m.hists[name]; h == nil {
		h = &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
		m.hists[name] = h
	}
	return h
}

// Reset zeroes every registered instrument (instruments stay registered, so
// captured pointers keep working — used between experiments).
func (m *Metrics) Reset() {
	if m == nil {
		return
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	for _, c := range m.counters {
		c.v.Store(0)
	}
	for _, g := range m.gauges {
		g.v.Store(0)
	}
	for _, h := range m.hists {
		for i := range h.counts {
			h.counts[i].Store(0)
		}
		h.sum.Store(0)
		h.n.Store(0)
	}
}

// MetricValue is one row of a registry snapshot.
type MetricValue struct {
	Name  string  `json:"name"`
	Type  string  `json:"type"` // "counter", "gauge", "histogram"
	Value int64   `json:"value"`
	Sum   int64   `json:"sum,omitempty"` // histogram only
	Mean  float64 `json:"mean,omitempty"`
	// Interpolated histogram quantiles (see Histogram.Quantile).
	P50 float64 `json:"p50,omitempty"`
	P90 float64 `json:"p90,omitempty"`
	P99 float64 `json:"p99,omitempty"`
	// Buckets is the histogram's full non-empty bucket distribution.
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot returns every instrument with a non-zero value, sorted by name.
// Zero-valued instruments are skipped so summaries only show what actually
// happened.
func (m *Metrics) Snapshot() []MetricValue {
	if m == nil {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := make([]MetricValue, 0, len(m.counters)+len(m.gauges)+len(m.hists))
	for name, c := range m.counters {
		if v := c.Value(); v != 0 {
			out = append(out, MetricValue{Name: name, Type: "counter", Value: v})
		}
	}
	for name, g := range m.gauges {
		if v := g.Value(); v != 0 {
			out = append(out, MetricValue{Name: name, Type: "gauge", Value: v})
		}
	}
	for name, h := range m.hists {
		if n := h.Count(); n != 0 {
			out = append(out, MetricValue{
				Name: name, Type: "histogram", Value: n, Sum: h.Sum(),
				Mean: h.Mean(), P50: h.Quantile(0.50), P90: h.Quantile(0.90),
				P99: h.Quantile(0.99), Buckets: h.Buckets(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSONL writes the snapshot as one JSON object per line, sorted by
// metric name — a byte-stable export for a given set of instrument values,
// whatever order the instruments were registered in. Write and encode errors
// propagate immediately.
func (m *Metrics) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, v := range m.Snapshot() {
		if err := enc.Encode(v); err != nil {
			return fmt.Errorf("obs: writing metrics JSONL: %w", err)
		}
	}
	return nil
}

// WriteSummary renders the snapshot as an aligned text table. Write errors
// propagate: the first failure stops rendering and is returned.
func (m *Metrics) WriteSummary(w io.Writer) error {
	snap := m.Snapshot()
	if len(snap) == 0 {
		_, err := fmt.Fprintln(w, "obs: no metrics recorded")
		return err
	}
	rows := make([][3]string, 0, len(snap))
	for _, v := range snap {
		var val string
		switch v.Type {
		case "histogram":
			val = fmt.Sprintf("n=%d sum=%d mean=%.1f p50=%.0f p99=%.0f", v.Value, v.Sum, v.Mean, v.P50, v.P99)
		default:
			val = fmt.Sprintf("%d", v.Value)
		}
		rows = append(rows, [3]string{v.Name, v.Type, val})
	}
	nameW, typeW := len("metric"), len("type")
	for _, r := range rows {
		if len(r[0]) > nameW {
			nameW = len(r[0])
		}
		if len(r[1]) > typeW {
			typeW = len(r[1])
		}
	}
	if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", nameW, "metric", typeW, "type", "value"); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintf(w, "%-*s  %-*s  %s\n", nameW, r[0], typeW, r[1], r[2]); err != nil {
			return err
		}
	}
	return nil
}
