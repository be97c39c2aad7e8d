// Package obs is the observability layer for the Buffalo memory scheduler:
// a lock-cheap metrics registry (counters, gauges, fixed-bucket histograms),
// a structured trace recorder emitting timestamped spans and events for
// every scheduler-relevant operation (alloc, free, H2D transfer, sample,
// plan, estimate, block generation, micro-batch execution, backward,
// optimizer step), and a memory-timeline reconstructor that replays the GPU
// ledger's event stream into per-tag live/peak curves.
//
// Everything is stdlib-only and designed around one invariant: a nil
// *Recorder is a valid, fully disabled recorder. Every method on Recorder,
// Trace, Metrics, Counter, Gauge and Histogram no-ops on a nil receiver and
// allocates nothing, so instrumented hot paths (the device ledger charges
// every tensor of every micro-batch) pay only a nil check when
// observability is off. The disabled path is covered by an allocation test
// and a benchmark pair in the repository root.
package obs

import (
	"sync/atomic"
	"time"
)

// Kind classifies a trace event. Kinds mirror the operations the Buffalo
// papers' figures attribute time and memory to, so a trace can answer "why
// did iteration 37 spill into a second micro-batch" directly.
type Kind uint8

const (
	// KindAlloc is a ledger charge: Name is the allocation tag, Bytes the
	// size, Live the device live bytes after the charge.
	KindAlloc Kind = iota
	// KindFree is a ledger release: Name/Bytes as KindAlloc, Live the live
	// bytes after the release.
	KindFree
	// KindOOM is a rejected charge: Name is the tag, Bytes the requested
	// size, Live the live bytes at rejection time.
	KindOOM
	// KindTransferH2D is a simulated host-to-device copy span: Bytes moved,
	// Dur the simulated transfer time.
	KindTransferH2D
	// KindCompute is simulated kernel time accrued on a device clock.
	KindCompute
	// KindBucketReduce is one asynchronous ring all-reduce of gradients (one
	// bucket's, or the whole payload's at the compute tail): Bytes is the
	// reduced payload, Aux its launch index within the iteration's reduce
	// window.
	KindBucketReduce
	// KindSample is a batch-sampling span: Bytes is the seed count, Aux the
	// layer count.
	KindSample
	// KindPlan is a scheduler/partitioner planning span: Name is the
	// system, Bytes the predicted peak bytes of the winning plan (0 when
	// the system has no estimator), Aux the chosen micro-batch count K.
	KindPlan
	// KindEstimate is a predicted-vs-actual memory comparison: Bytes is the
	// predicted peak, Aux the measured peak.
	KindEstimate
	// KindBlockGen is a block-generation span for one micro-batch.
	KindBlockGen
	// KindFanout is one hop of the block generator (gather + renumbering):
	// Bytes is the frontier size, Aux the worker count (1 since the gather
	// became an array read).
	KindFanout
	// KindMicroBatch is one micro-batch's end-to-end execution span: Bytes
	// the micro-batch's features+activations footprint, Aux its index.
	KindMicroBatch
	// KindForward is a forward-pass (plus loss) compute span.
	KindForward
	// KindBackward is a backward-pass compute span.
	KindBackward
	// KindOptStep is an optimizer-step compute span.
	KindOptStep
	// KindIteration is a whole-iteration span: Bytes the iteration's peak
	// device bytes, Aux the executed micro-batch count.
	KindIteration
	// KindPrefetch is one micro-batch's asynchronous staging span (feature
	// gather + device reservation + async H2D issue): Bytes is the feature
	// tensor size, Aux the bytes actually transferred (cache misses).
	KindPrefetch
	// KindStall is a compute-engine wait for an async copy: the exposed,
	// non-hidden share of a prefetched transfer.
	KindStall
	// KindDispatch is an instant marking a planned micro-batch's assignment
	// to a replica lane by a shared multi-GPU prefetcher: Dev is the target
	// device, Bytes the staged feature bytes, Aux the lane index.
	KindDispatch
	// KindMark is a generic instant annotation (scheduler split decisions,
	// experiment boundaries).
	KindMark
	// KindReduceScatter is one gradient bucket's asynchronous ring
	// reduce-scatter (the first half of a sharded collective): Bytes is the
	// bucket's gradient payload, Aux its launch index within the window.
	KindReduceScatter
	// KindAllGather is an asynchronous ring all-gather broadcasting each
	// replica's updated parameter shard (the second half of a sharded
	// collective): Bytes is the gathered payload, Aux the launch index.
	KindAllGather

	numKinds
)

var kindNames = [numKinds]string{
	KindAlloc:         "alloc",
	KindFree:          "free",
	KindOOM:           "oom",
	KindTransferH2D:   "h2d",
	KindCompute:       "compute",
	KindBucketReduce:  "bucketreduce",
	KindSample:        "sample",
	KindPlan:          "plan",
	KindEstimate:      "estimate",
	KindBlockGen:      "blockgen",
	KindFanout:        "fanout",
	KindMicroBatch:    "microbatch",
	KindForward:       "forward",
	KindBackward:      "backward",
	KindOptStep:       "optstep",
	KindIteration:     "iteration",
	KindPrefetch:      "prefetch",
	KindStall:         "stall",
	KindDispatch:      "dispatch",
	KindMark:          "mark",
	KindReduceScatter: "reducescatter",
	KindAllGather:     "allgather",
}

// String returns the kind's trace category name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one trace record. Instants have Dur == 0; spans carry their
// duration and a TS of the span's start. The meaning of Bytes, Live and Aux
// is per Kind (see the Kind constants).
type Event struct {
	Seq   uint64        // monotonically increasing record order
	TS    time.Duration // offset from the trace's start instant
	Dur   time.Duration // span duration; 0 for instants
	Kind  Kind
	Name  string // tag or label, e.g. "activations/layer1"
	Dev   string // device name; "" when not device-scoped
	Bytes int64
	Live  int64
	Aux   int64
}

// Recorder bundles a trace sink and a metrics registry. Either may be nil
// to record only the other; a nil *Recorder records nothing at all. The
// sinks are immutable after construction and the tap slot is an atomic
// pointer, so the recorder is safe for concurrent use by every goroutine of
// a training run.
type Recorder struct {
	trace   *Trace
	metrics *Metrics

	// tap is the optional live-streaming subscriber (see stream.go). Nil
	// when nobody is listening — the common case — so the hot path pays one
	// atomic load to find out.
	tap atomic.Pointer[Tap]

	// Per-kind pre-registered instruments: the hot path (ledger charges,
	// transfers) updates these with two atomic adds and no map lookups.
	counts [numKinds]*Counter
	bytes  [numKinds]*Histogram
	durs   [numKinds]*Histogram
}

// NewRecorder builds a recorder over the given sinks. Both may be non-nil,
// one may be nil; NewRecorder(nil, nil) returns a recorder that counts
// nothing but is still non-nil (prefer a plain nil *Recorder to disable).
func NewRecorder(trace *Trace, metrics *Metrics) *Recorder {
	r := &Recorder{trace: trace, metrics: metrics}
	if metrics != nil {
		for k := Kind(0); k < numKinds; k++ {
			name := k.String()
			r.counts[k] = metrics.Counter(name + "/count")
			r.bytes[k] = metrics.Histogram(name+"/bytes", ByteBuckets)
			r.durs[k] = metrics.Histogram(name+"/duration_ns", DurationBuckets)
		}
	}
	return r
}

// Enabled reports whether the recorder records anything.
func (r *Recorder) Enabled() bool { return r != nil }

// Trace returns the trace sink (nil when tracing is off).
func (r *Recorder) Trace() *Trace {
	if r == nil {
		return nil
	}
	return r.trace
}

// Metrics returns the metrics registry (nil when metrics are off).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// Event records an instant of the given kind. Safe on a nil receiver.
func (r *Recorder) Event(kind Kind, dev, name string, bytes, live, aux int64) {
	if r == nil {
		return
	}
	r.counts[kind].Add(1)
	if bytes != 0 {
		r.bytes[kind].Observe(bytes)
	}
	t := r.tap.Load()
	if r.trace == nil && t == nil {
		return
	}
	ev := Event{Kind: kind, Name: name, Dev: dev, Bytes: bytes, Live: live, Aux: aux}
	if r.trace != nil {
		r.trace.record(ev)
	}
	if t != nil {
		t.offer(ev)
	}
}

// Span records a completed operation of the given kind whose measured
// duration is dur; the span's start timestamp is back-dated by dur so the
// trace shows the operation covering the wall time it actually took. Safe
// on a nil receiver.
func (r *Recorder) Span(kind Kind, dev, name string, dur time.Duration, bytes, aux int64) {
	if r == nil {
		return
	}
	r.counts[kind].Add(1)
	if bytes != 0 {
		r.bytes[kind].Observe(bytes)
	}
	r.durs[kind].Observe(int64(dur))
	t := r.tap.Load()
	if r.trace == nil && t == nil {
		return
	}
	ev := Event{Kind: kind, Name: name, Dev: dev, Dur: dur, Bytes: bytes, Aux: aux}
	if r.trace != nil {
		r.trace.record(ev)
	}
	if t != nil {
		t.offer(ev)
	}
}
