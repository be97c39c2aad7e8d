// Package report defines the versioned run-manifest artifact: a JSON
// snapshot of everything a training run knows about itself — configuration,
// per-phase time breakdown, exposed/hidden overlap accounting, the memory
// estimator's error distribution, per-device memory summaries, cache and
// pool state, and the full metrics registry.
//
// Manifests exist to outlive the process: the paper's argument is
// quantitative (predicted-vs-actual peak memory, Fig 11 phase breakdowns,
// exposed-vs-hidden transfer time), so its numbers must be comparable across
// runs, not just printed once. Two manifests diff by flattened metric key
// (Flatten, Diff); buffalo-report shows and diffs them.
//
// Serialization is deterministic: struct fields emit in declaration order,
// maps sort by key (encoding/json), metric rows arrive pre-sorted from
// obs.Metrics.Snapshot, and everything else is sorted at build time. Two
// manifests built from identical state are byte-identical except for their
// stamps.
package report

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"buffalo/internal/obs"
)

// SchemaVersion is the manifest schema this package writes and the only one
// it reads. Readers reject other versions outright: silently reinterpreting
// a foreign schema would corrupt every diff downstream.
const SchemaVersion = 1

// Manifest is one run's persisted self-description.
type Manifest struct {
	Schema int `json:"schema"`
	// Tool names the producer ("buffalo-train", "experiments", "bench").
	Tool string `json:"tool,omitempty"`
	// CreatedAt is an RFC3339 stamp; Stamps are excluded from diffs.
	CreatedAt string `json:"created_at,omitempty"`
	// Git is the producing commit (best effort; empty outside a checkout).
	Git string `json:"git,omitempty"`

	Config Config `json:"config"`
	Run    Run    `json:"run"`

	// PhasesNs is the Fig 11 component breakdown summed over the run's
	// iterations, nanoseconds per phase. A map so diffs align by phase name
	// and encoding/json keeps the key order deterministic.
	PhasesNs map[string]int64 `json:"phases_ns,omitempty"`

	Overlap   Overlap    `json:"overlap"`
	Estimator *Estimator `json:"estimator,omitempty"`
	Devices   []Device   `json:"devices,omitempty"`
	Cache     *Cache     `json:"cache,omitempty"`
	Pooling   *Pooling   `json:"pooling,omitempty"`
	Serving   *Serving   `json:"serving,omitempty"`
	Sharding  *Sharding  `json:"sharding,omitempty"`

	// Metrics is the full registry snapshot (sorted by name, histograms with
	// quantiles and bucket distributions).
	Metrics []obs.MetricValue `json:"metrics,omitempty"`
}

// Config records the run's resolved configuration — enough to tell whether
// two manifests are comparable at all.
type Config struct {
	System           string `json:"system,omitempty"`
	Dataset          string `json:"dataset,omitempty"`
	Arch             string `json:"arch,omitempty"`
	Aggregator       string `json:"aggregator,omitempty"`
	Layers           int    `json:"layers,omitempty"`
	Hidden           int    `json:"hidden,omitempty"`
	Fanouts          []int  `json:"fanouts,omitempty"`
	BatchSize        int    `json:"batch_size,omitempty"`
	MemBudgetBytes   int64  `json:"mem_budget_bytes,omitempty"`
	MicroBatches     int    `json:"micro_batches,omitempty"`
	GPUs             int    `json:"gpus,omitempty"`
	Seed             int64  `json:"seed,omitempty"`
	CommOverlap      bool   `json:"comm_overlap,omitempty"`
	BucketBytes      int64  `json:"bucket_bytes,omitempty"`
	ZeRO1            bool   `json:"zero1,omitempty"`
	Pipelined        bool   `json:"pipelined,omitempty"`
	PrefetchDepth    int    `json:"prefetch_depth,omitempty"`
	CacheBudgetBytes int64  `json:"cache_budget_bytes,omitempty"`
	PlanAhead        int    `json:"plan_ahead,omitempty"`
}

// Run is the run's headline outcome.
type Run struct {
	Iterations int     `json:"iterations,omitempty"`
	LossFirst  float64 `json:"loss_first,omitempty"`
	LossLast   float64 `json:"loss_last,omitempty"`
	// K is the last iteration's micro-batch count.
	K int `json:"k,omitempty"`
	// PeakBytes / PredictedPeakBytes are maxima across iterations.
	PeakBytes          int64 `json:"peak_bytes,omitempty"`
	PredictedPeakBytes int64 `json:"predicted_peak_bytes,omitempty"`
	// CriticalPathNs sums IterationResult.CriticalPath over the run — the
	// wall time the training loop experienced.
	CriticalPathNs int64 `json:"critical_path_ns,omitempty"`
	OOMs           int   `json:"ooms,omitempty"`
}

// Overlap is the exposed/hidden accounting summed over the run: how much
// transfer, planning and communication time hid behind compute versus
// stalling the loop.
type Overlap struct {
	HiddenTransferNs  int64 `json:"hidden_transfer_ns,omitempty"`
	ExposedPlanningNs int64 `json:"exposed_planning_ns,omitempty"`
	ExposedCommNs     int64 `json:"exposed_comm_ns,omitempty"`
	HiddenCommNs      int64 `json:"hidden_comm_ns,omitempty"`
}

// Estimator is the memory estimator's predicted-vs-actual error
// distribution (the estimate/error_bp histogram, converted to percent):
// Table III's live counterpart, percentage points of |predicted - actual| /
// actual.
type Estimator struct {
	Count   int64             `json:"count"`
	MeanPct float64           `json:"mean_pct"`
	P50     float64           `json:"p50"`
	P90     float64           `json:"p90"`
	P99     float64           `json:"p99"`
	Buckets []obs.BucketCount `json:"buckets,omitempty"`
}

// Device summarizes one simulated GPU: the ledger counters plus (when a
// trace was recorded) the reconstructed timeline's high-water-mark set and
// per-tag aggregates.
type Device struct {
	Name             string `json:"name"`
	CapacityBytes    int64  `json:"capacity_bytes,omitempty"`
	PeakBytes        int64  `json:"peak_bytes,omitempty"`
	FinalLiveBytes   int64  `json:"final_live_bytes,omitempty"`
	TransferredBytes int64  `json:"transferred_bytes,omitempty"`
	TransferNs       int64  `json:"transfer_ns,omitempty"`
	ComputeNs        int64  `json:"compute_ns,omitempty"`
	StallNs          int64  `json:"stall_ns,omitempty"`
	OOMs             int    `json:"ooms,omitempty"`
	// PeakSet lists the allocations coexisting at the peak instant, replay
	// order (obs.Timeline.PeakSet).
	PeakSet []TagBytes `json:"peak_set,omitempty"`
	// Tags is the per-tag live/peak aggregate, sorted by tag.
	Tags []TagStat `json:"tags,omitempty"`
}

// TagBytes is one allocation of a device's peak set.
type TagBytes struct {
	Tag   string `json:"tag"`
	Bytes int64  `json:"bytes"`
}

// TagStat is one allocation tag's ledger aggregate.
type TagStat struct {
	Tag    string `json:"tag"`
	Allocs int64  `json:"allocs"`
	Bytes  int64  `json:"bytes"`
	Peak   int64  `json:"peak"`
	Live   int64  `json:"live,omitempty"`
}

// Cache summarizes the feature cache(s).
type Cache struct {
	Entries   int           `json:"entries,omitempty"`
	UsedBytes int64         `json:"used_bytes,omitempty"`
	Hits      int64         `json:"hits"`
	Misses    int64         `json:"misses"`
	Evictions int64         `json:"evictions,omitempty"`
	HitRate   float64       `json:"hit_rate"`
	PerDevice []CacheDevice `json:"per_device,omitempty"`
}

// CacheDevice is one device's cache slice in a multi-GPU run.
type CacheDevice struct {
	Entries int   `json:"entries,omitempty"`
	Hits    int64 `json:"hits"`
	Misses  int64 `json:"misses"`
}

// Serving is the online-inference section (cmd/buffalo-serve): request
// lifecycle counters, batching effectiveness, and the SLO distribution —
// p50/p90/p99 latency, queue wait, and throughput.
type Serving struct {
	Requests   int64 `json:"requests,omitempty"`
	Responses  int64 `json:"responses,omitempty"`
	Shed       int64 `json:"shed,omitempty"`
	Canceled   int64 `json:"canceled,omitempty"`
	Batches    int64 `json:"batches,omitempty"`
	ExecErrors int64 `json:"exec_errors,omitempty"`
	// BatchSize / MaxWaitNs are the resolved coalescing policy.
	BatchSize    int     `json:"batch_size,omitempty"`
	MaxWaitNs    int64   `json:"max_wait_ns,omitempty"`
	AvgBatchSize float64 `json:"avg_batch_size,omitempty"`
	// ThroughputRPS is completed responses per wall second.
	ThroughputRPS  float64 `json:"throughput_rps,omitempty"`
	LatencyP50Ns   int64   `json:"latency_p50_ns,omitempty"`
	LatencyP90Ns   int64   `json:"latency_p90_ns,omitempty"`
	LatencyP99Ns   int64   `json:"latency_p99_ns,omitempty"`
	QueueWaitP50Ns int64   `json:"queue_wait_p50_ns,omitempty"`
	QueueWaitP99Ns int64   `json:"queue_wait_p99_ns,omitempty"`
}

// Sharding is the sharded-gradient section, present for ZeRO-1 runs: the
// per-replica byte ledger and the collective breakdown the
// cluster accumulated over the run. ParamBytes is the fully-replicated value
// buffer; GradShardBytes / OptimShardBytes are what one replica actually
// holds resident under ZeRO-1 (1/n of the padded flat buffer, and two Adam
// moments over that shard); DroppedBytes is the per-replica fixed-footprint
// reduction versus unsharded training — asymptotically (n-1)/n of the
// optimizer+gradient bytes.
type Sharding struct {
	Replicas int `json:"replicas"`
	// Buckets is the flat buffer's bucket count — one reduce-scatter per
	// bucket per iteration.
	Buckets         int   `json:"buckets,omitempty"`
	ParamBytes      int64 `json:"param_bytes,omitempty"`
	GradShardBytes  int64 `json:"grad_shard_bytes,omitempty"`
	OptimShardBytes int64 `json:"optim_shard_bytes,omitempty"`
	DroppedBytes    int64 `json:"dropped_bytes,omitempty"`
	// PaddingBytes is the shard-alignment padding carried by the flat buffer
	// (tail of each bucket, strictly less than one element row per bucket).
	PaddingBytes int64 `json:"padding_bytes,omitempty"`
	// The collective breakdown: busy time and launch counts per kind, summed
	// over the run (device.CollectiveBreakdown).
	ReduceScatterNs    int64 `json:"reduce_scatter_ns,omitempty"`
	ReduceScatterCount int64 `json:"reduce_scatter_count,omitempty"`
	AllGatherNs        int64 `json:"all_gather_ns,omitempty"`
	AllGatherCount     int64 `json:"all_gather_count,omitempty"`
}

// Pooling is the tensor-pool section behind the zero-allocation hot path:
// how well the pools and iteration arenas recycled backing storage over the
// run. Outstanding is the final checked-out count — nonzero at manifest time
// means a leak (every iteration and request returns its buffers on
// completion). RetainedBytes is the backing storage the pools hold released
// at manifest time: host memory that is on no device ledger.
type Pooling struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Resizes       int64   `json:"resizes,omitempty"`
	Outstanding   int64   `json:"outstanding,omitempty"`
	RetainedBytes int64   `json:"retained_bytes,omitempty"`
	HitRate       float64 `json:"hit_rate"`
}

// New returns an empty manifest at the current schema version.
func New(tool string) *Manifest {
	return &Manifest{Schema: SchemaVersion, Tool: tool}
}

// EstimatorFromMetrics extracts the memory estimator's error distribution
// from a registry's estimate/error_bp histogram (the instrument
// internal/memest records predicted-vs-actual deviations into, in basis
// points) and reports it in percent. Returns nil when the registry is absent
// or the histogram never observed anything.
func EstimatorFromMetrics(reg *obs.Metrics) *Estimator {
	if reg == nil {
		return nil
	}
	h := reg.Histogram("estimate/error_bp", obs.BasisPointBuckets)
	if h.Count() == 0 {
		return nil
	}
	buckets := h.Buckets()
	for i := range buckets {
		if buckets[i].LE > 0 { // the overflow bucket keeps LE = -1
			buckets[i].LE /= 100
		}
	}
	return &Estimator{
		Count:   h.Count(),
		MeanPct: h.Mean() / 100,
		P50:     h.Quantile(0.50) / 100,
		P90:     h.Quantile(0.90) / 100,
		P99:     h.Quantile(0.99) / 100,
		Buckets: buckets,
	}
}

// Write serializes the manifest as indented JSON. Output is deterministic
// for a given manifest value.
func Write(w io.Writer, m *Manifest) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(m); err != nil {
		return fmt.Errorf("report: writing manifest: %w", err)
	}
	return nil
}

// WriteFile writes the manifest to path (0644, truncating).
func WriteFile(path string, m *Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("report: %w", err)
	}
	if err := Write(f, m); err != nil {
		_ = f.Close() // the write failure is the error worth reporting
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("report: closing %s: %w", path, err)
	}
	return nil
}

// Read parses a manifest, rejecting unknown schema versions.
func Read(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("report: parsing manifest: %w", err)
	}
	if m.Schema != SchemaVersion {
		return nil, fmt.Errorf("report: unsupported manifest schema %d (this build reads schema %d)", m.Schema, SchemaVersion)
	}
	return &m, nil
}

// ReadFile reads and parses the manifest at path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("report: %w", err)
	}
	defer func() { _ = f.Close() }() // read-only; nothing to flush
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return m, nil
}

// Flatten projects the manifest's comparable numbers onto stable string
// keys — the alignment space Diff operates in. Stamps, config, and
// raw bucket distributions are excluded; everything with a meaningful
// magnitude is included.
func (m *Manifest) Flatten() map[string]float64 {
	out := make(map[string]float64, 64)
	put := func(key string, v float64) {
		if v != 0 {
			out[key] = v
		}
	}
	put("run/iterations", float64(m.Run.Iterations))
	put("run/k", float64(m.Run.K))
	put("run/peak_bytes", float64(m.Run.PeakBytes))
	put("run/predicted_peak_bytes", float64(m.Run.PredictedPeakBytes))
	put("run/critical_path_ns", float64(m.Run.CriticalPathNs))
	put("run/ooms", float64(m.Run.OOMs))
	for phase, ns := range m.PhasesNs {
		put("phase/"+phase+"_ns", float64(ns))
	}
	put("overlap/hidden_transfer_ns", float64(m.Overlap.HiddenTransferNs))
	put("overlap/exposed_planning_ns", float64(m.Overlap.ExposedPlanningNs))
	put("overlap/exposed_comm_ns", float64(m.Overlap.ExposedCommNs))
	put("overlap/hidden_comm_ns", float64(m.Overlap.HiddenCommNs))
	if e := m.Estimator; e != nil {
		put("estimator/error_pct/count", float64(e.Count))
		put("estimator/error_pct/mean", e.MeanPct)
		put("estimator/error_pct/p50", e.P50)
		put("estimator/error_pct/p90", e.P90)
		put("estimator/error_pct/p99", e.P99)
	}
	for _, d := range m.Devices {
		put("device/"+d.Name+"/peak_bytes", float64(d.PeakBytes))
		put("device/"+d.Name+"/transferred_bytes", float64(d.TransferredBytes))
		put("device/"+d.Name+"/stall_ns", float64(d.StallNs))
		put("device/"+d.Name+"/ooms", float64(d.OOMs))
	}
	if c := m.Cache; c != nil {
		put("cache/hit_rate", c.HitRate)
		put("cache/hits", float64(c.Hits))
		put("cache/misses", float64(c.Misses))
		put("cache/evictions", float64(c.Evictions))
	}
	if pl := m.Pooling; pl != nil {
		put("pooling/hits", float64(pl.Hits))
		put("pooling/misses", float64(pl.Misses))
		put("pooling/resizes", float64(pl.Resizes))
		put("pooling/outstanding", float64(pl.Outstanding))
		put("pooling/retained_bytes", float64(pl.RetainedBytes))
		put("pooling/hit_rate", pl.HitRate)
	}
	if s := m.Serving; s != nil {
		put("serving/requests", float64(s.Requests))
		put("serving/responses", float64(s.Responses))
		put("serving/shed", float64(s.Shed))
		put("serving/canceled", float64(s.Canceled))
		put("serving/batches", float64(s.Batches))
		put("serving/exec_errors", float64(s.ExecErrors))
		put("serving/avg_batch_size", s.AvgBatchSize)
		put("serving/throughput_rps", s.ThroughputRPS)
		put("serving/latency_p50_ns", float64(s.LatencyP50Ns))
		put("serving/latency_p90_ns", float64(s.LatencyP90Ns))
		put("serving/latency_p99_ns", float64(s.LatencyP99Ns))
		put("serving/queue_wait_p50_ns", float64(s.QueueWaitP50Ns))
		put("serving/queue_wait_p99_ns", float64(s.QueueWaitP99Ns))
	}
	if sh := m.Sharding; sh != nil {
		put("sharding/replicas", float64(sh.Replicas))
		put("sharding/buckets", float64(sh.Buckets))
		put("sharding/param_bytes", float64(sh.ParamBytes))
		put("sharding/grad_shard_bytes", float64(sh.GradShardBytes))
		put("sharding/optim_shard_bytes", float64(sh.OptimShardBytes))
		put("sharding/dropped_bytes", float64(sh.DroppedBytes))
		put("sharding/padding_bytes", float64(sh.PaddingBytes))
		put("sharding/reduce_scatter_ns", float64(sh.ReduceScatterNs))
		put("sharding/reduce_scatter_count", float64(sh.ReduceScatterCount))
		put("sharding/all_gather_ns", float64(sh.AllGatherNs))
		put("sharding/all_gather_count", float64(sh.AllGatherCount))
	}
	for _, mv := range m.Metrics {
		put("metric/"+mv.Name, float64(mv.Value))
		if mv.Type == "histogram" {
			put("metric/"+mv.Name+"/mean", mv.Mean)
			put("metric/"+mv.Name+"/p50", mv.P50)
			put("metric/"+mv.Name+"/p99", mv.P99)
		}
	}
	return out
}

// Delta is one flattened key's base-vs-current comparison.
type Delta struct {
	Key  string
	Base float64
	Cur  float64
	// HasBase/HasCur distinguish "value is zero" from "key absent".
	HasBase bool
	HasCur  bool
}

// PctChange is the relative change from base to current in percent;
// +Inf when the key appeared (base 0/absent), 0 when both are absent.
func (d Delta) PctChange() float64 {
	if d.Base == 0 {
		if d.Cur == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return 100 * (d.Cur - d.Base) / d.Base
}

// Diff aligns two manifests by flattened key and returns every key whose
// value differs (or exists on only one side), sorted by key.
func Diff(base, cur *Manifest) []Delta {
	fb, fc := base.Flatten(), cur.Flatten()
	keys := make(map[string]struct{}, len(fb)+len(fc))
	for k := range fb {
		keys[k] = struct{}{}
	}
	for k := range fc {
		keys[k] = struct{}{}
	}
	out := make([]Delta, 0, len(keys))
	for k := range keys {
		b, hasB := fb[k]
		c, hasC := fc[k]
		if hasB && hasC && b == c {
			continue
		}
		out = append(out, Delta{Key: k, Base: b, Cur: c, HasBase: hasB, HasCur: hasC})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}
