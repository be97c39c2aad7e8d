package buffalo

import (
	"io"
	"os"
	"os/exec"
	"strings"
	"time"

	"buffalo/internal/obs"
	"buffalo/internal/obs/report"
	"buffalo/internal/train"
)

// Observability facade: re-exports of internal/obs so library users can
// attach a recorder to TrainConfig.Obs, export the trace for Perfetto, and
// reconstruct memory timelines. A nil *Recorder disables everything at zero
// cost — see the internal/obs package documentation.

// Recorder bundles a trace sink and a metrics registry; attach one via
// TrainConfig.Obs. All methods are safe on a nil receiver.
type Recorder = obs.Recorder

// Trace is an in-memory event trace (unbounded or ring-buffered) with JSONL
// and Chrome trace_event exporters.
type Trace = obs.Trace

// Metrics is the lock-cheap named-instrument registry (counters, gauges,
// fixed-bucket histograms).
type Metrics = obs.Metrics

// TraceEvent is one trace record.
type TraceEvent = obs.Event

// Timeline is a reconstructed per-device memory timeline: live/peak curves,
// the high-water-mark instant and the allocation set coexisting there.
type Timeline = obs.Timeline

// NewRecorder builds a recorder over the given sinks (either may be nil to
// record only the other).
func NewRecorder(t *Trace, m *Metrics) *Recorder { return obs.NewRecorder(t, m) }

// NewTrace builds an unbounded trace.
func NewTrace() *Trace { return obs.NewTrace() }

// NewRingTrace builds a bounded trace retaining the most recent capacity
// events (older ones are dropped and counted).
func NewRingTrace(capacity int) *Trace { return obs.NewRingTrace(capacity) }

// NewMetrics builds an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewMetrics() }

// ReconstructTimeline replays a trace's ledger events for one device into a
// memory timeline. The replayed peak equals the device's Peak() exactly.
func ReconstructTimeline(events []TraceEvent, device string) *Timeline {
	return obs.Reconstruct(events, device)
}

// Tap is a live, bounded subscription to a recorder's event stream: events
// are offered with a non-blocking send and dropped (counted) when the
// subscriber lags, so the training hot path never waits on a consumer.
// Subscribe/Unsubscribe live on Recorder.
type Tap = obs.Tap

// Meter is a live terminal readout fed by a recorder tap: per-device
// live/peak memory, iteration rate and phase mix on one self-rewriting
// status line (the buffalo-train/experiments -live flag).
type Meter = obs.Meter

// NewMeter subscribes a meter to the recorder and starts its render loop
// (nil when the recorder is disabled); call Stop to detach.
func NewMeter(r *Recorder, w io.Writer, interval time.Duration) *Meter {
	return obs.NewMeter(r, w, interval)
}

// NewLiveMeter is the canonical -live wiring shared by the CLIs: a meter on
// stderr at the default refresh interval. Nil-safe like NewMeter — a disabled
// recorder yields a nil meter whose Stop is a no-op.
func NewLiveMeter(r *Recorder) *Meter {
	return obs.NewMeter(r, os.Stderr, 0)
}

// RunManifest is the versioned run-manifest artifact (internal/obs/report):
// config, phase breakdown, estimator error distribution, device memory
// summaries, cache/pipeline state and the metrics snapshot, serialized as
// deterministic JSON. Produced by RunReport.Build, consumed by the
// buffalo-report CLI (show / diff).
type RunManifest = report.Manifest

// RunReport accumulates per-iteration results into a RunManifest; see
// buffalo-train -report for the canonical wiring.
type RunReport = train.RunReport

// NewRunReport starts a run report for one training run of cfg over gpus
// devices on the named dataset.
func NewRunReport(tool, dataset string, cfg TrainConfig, gpus int) *RunReport {
	return train.NewRunReport(tool, dataset, cfg, gpus)
}

// StampManifest sets a manifest's provenance fields: the creation time (UTC,
// RFC3339) and the repository's short git revision. The revision is
// best-effort — a tarball checkout still gets a stamped manifest, just
// without git provenance. Shared by every manifest-writing CLI so the fields
// stay byte-compatible across tools.
func StampManifest(m *RunManifest) {
	m.CreatedAt = time.Now().UTC().Format(time.RFC3339)
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		m.Git = strings.TrimSpace(string(out))
	}
}

// WriteRunManifest writes a manifest to path as indented JSON.
func WriteRunManifest(path string, m *RunManifest) error {
	return report.WriteFile(path, m)
}

// ReadRunManifest reads and validates the manifest at path, rejecting
// foreign schema versions.
func ReadRunManifest(path string) (*RunManifest, error) {
	return report.ReadFile(path)
}

// BuildMetricsManifest assembles a manifest from a recorder's metrics
// registry alone — no per-run config or device state — which is what a
// multi-run sweep like cmd/experiments can honestly report: the accumulated
// metrics snapshot plus the estimator's error distribution across every run.
func BuildMetricsManifest(tool string, rec *Recorder) *RunManifest {
	m := report.New(tool)
	if reg := rec.Metrics(); reg != nil {
		m.Metrics = reg.Snapshot()
		m.Estimator = report.EstimatorFromMetrics(reg)
	}
	return m
}

// WriteFolded writes a trace's spans in collapsed-stack ("folded") format —
// one `frame;frame <weight-µs>` line per distinct stack — the input of
// standard flamegraph tooling (flamegraph.pl, inferno, speedscope). The
// Trace type also carries this as a method; this form folds an arbitrary
// event slice. Output is deterministic for a given event set.
func WriteFolded(w io.Writer, events []TraceEvent) error {
	return obs.WriteFolded(w, events)
}
