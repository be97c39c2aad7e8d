package report

import (
	"bytes"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"buffalo/internal/obs"
)

func sampleManifest() *Manifest {
	m := New("buffalo-train")
	m.CreatedAt = "2026-08-08T00:00:00Z"
	m.Git = "abc1234"
	m.Config = Config{
		System: "buffalo", Dataset: "cora", Arch: "sage", Aggregator: "mean",
		Layers: 2, Hidden: 16, Fanouts: []int{5, 5}, BatchSize: 256,
		MemBudgetBytes: 1 << 30, GPUs: 1, Seed: 7,
	}
	m.Run = Run{
		Iterations: 3, LossFirst: 1.9, LossLast: 1.2, K: 4,
		PeakBytes: 12 << 20, PredictedPeakBytes: 13 << 20, CriticalPathNs: 9_000_000,
	}
	m.PhasesNs = map[string]int64{
		"scheduling": 1_000_000, "block_gen": 2_000_000,
		"data_loading": 1_500_000, "gpu_compute": 4_500_000,
	}
	m.Overlap = Overlap{HiddenTransferNs: 400_000, ExposedCommNs: 100_000}
	m.Estimator = &Estimator{
		Count: 12, MeanPct: 2.5, P50: 2.0, P90: 4.0, P99: 5.0,
		Buckets: []obs.BucketCount{{LE: 2, N: 6}, {LE: 5, N: 6}},
	}
	m.Devices = []Device{{
		Name: "buffalo", CapacityBytes: 1 << 30, PeakBytes: 12 << 20,
		TransferredBytes: 30 << 20, TransferNs: 2_000_000, ComputeNs: 4_000_000,
		PeakSet: []TagBytes{{Tag: "model+optimizer", Bytes: 4 << 20}, {Tag: "features", Bytes: 8 << 20}},
		Tags:    []TagStat{{Tag: "features", Allocs: 12, Bytes: 96 << 20, Peak: 8 << 20}},
	}}
	m.Cache = &Cache{Entries: 100, UsedBytes: 1 << 20, Hits: 900, Misses: 100, HitRate: 0.9}
	m.Serving = &Serving{
		Requests: 1000, Responses: 980, Shed: 15, Canceled: 5, Batches: 40,
		ExecErrors: 2, BatchSize: 32, MaxWaitNs: 2_000_000, AvgBatchSize: 24.5,
		ThroughputRPS: 8500, LatencyP50Ns: 900_000, LatencyP90Ns: 2_500_000,
		LatencyP99Ns: 6_000_000, QueueWaitP50Ns: 400_000, QueueWaitP99Ns: 3_000_000,
	}
	m.Sharding = &Sharding{
		Replicas: 4, Buckets: 3,
		ParamBytes: 4 << 20, GradShardBytes: 1 << 20, OptimShardBytes: 2 << 20,
		DroppedBytes: 9 << 20, PaddingBytes: 48,
		ReduceScatterNs: 600_000, ReduceScatterCount: 9,
		AllGatherNs: 200_000, AllGatherCount: 3,
	}
	m.Metrics = []obs.MetricValue{
		{Name: "alloc/count", Type: "counter", Value: 42},
		{Name: "forward/duration_ns", Type: "histogram", Value: 12, Sum: 360, Mean: 30, P50: 28, P90: 40, P99: 44},
	}
	return m
}

// TestReportRoundTrip pins the schema contract: write -> read reproduces the
// manifest exactly, twice-serialized output is byte-identical, and foreign
// schema versions are rejected.
func TestReportRoundTrip(t *testing.T) {
	m := sampleManifest()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := WriteFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip changed the manifest:\nwrote %+v\nread  %+v", m, got)
	}
	var a, b bytes.Buffer
	if err := Write(&a, m); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, got); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("serialization is not deterministic across a round trip")
	}
	// Schema-1 manifests written while they still carried a benchmarks
	// section read as they always did, the section ignored.
	old, err := Read(strings.NewReader(`{"schema": 1, "run": {"k": 4}, "benchmarks": {"RunIteration_Pipelined": {"ns_per_op": 1, "allocs_per_op": 250}}}`))
	if err != nil || old.Run.K != 4 {
		t.Fatalf("schema-1 manifest with a benchmarks section: %+v, %v", old, err)
	}
}

func TestReportVersionMismatchRejected(t *testing.T) {
	m := sampleManifest()
	m.Schema = SchemaVersion + 1
	var buf bytes.Buffer
	if err := Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	_, err := Read(&buf)
	if err == nil {
		t.Fatal("foreign schema version accepted")
	}
	if !strings.Contains(err.Error(), "schema") {
		t.Fatalf("rejection does not name the schema: %v", err)
	}

	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReportSameConfigZeroRegressions: two manifests from the same run have
// an empty diff, and it renders as such.
func TestReportSameConfigZeroRegressions(t *testing.T) {
	a, b := sampleManifest(), sampleManifest()
	ds := Diff(a, b)
	if len(ds) != 0 {
		t.Fatalf("identical manifests produced deltas: %+v", ds)
	}
	var buf bytes.Buffer
	if err := WriteDiff(&buf, ds); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "identical") {
		t.Fatalf("empty diff output: %q", buf.String())
	}
}

func TestReportDiffAlignsByKey(t *testing.T) {
	base, cur := sampleManifest(), sampleManifest()
	cur.Run.PeakBytes += 1 << 20
	cur.PhasesNs["gpu_compute"] += 1_000_000
	delete(cur.PhasesNs, "scheduling")
	cur.PhasesNs["communication"] = 2_000_000
	ds := Diff(base, cur)
	byKey := map[string]Delta{}
	for _, d := range ds {
		byKey[d.Key] = d
	}
	if len(ds) != 4 {
		t.Fatalf("got %d deltas, want 4: %+v", len(ds), ds)
	}
	if d := byKey["run/peak_bytes"]; !d.HasBase || !d.HasCur || d.Cur-d.Base != float64(1<<20) {
		t.Errorf("peak delta: %+v", d)
	}
	if d := byKey["phase/scheduling_ns"]; d.HasCur {
		t.Errorf("removed key still has current side: %+v", d)
	}
	if d := byKey["phase/communication_ns"]; d.HasBase {
		t.Errorf("new key has base side: %+v", d)
	}
	if !math.IsInf(byKey["phase/communication_ns"].PctChange(), 1) {
		t.Errorf("new-key pct change: %v", byKey["phase/communication_ns"].PctChange())
	}
	// Sorted by key.
	for i := 1; i < len(ds); i++ {
		if ds[i-1].Key >= ds[i].Key {
			t.Fatalf("deltas unsorted: %q >= %q", ds[i-1].Key, ds[i].Key)
		}
	}
	var buf bytes.Buffer
	if err := WriteDiff(&buf, ds); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"run/peak_bytes", "(new)", "(gone)", "+8.3%"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, buf.String())
		}
	}
}

func TestReportWriteSummary(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSummary(&buf, sampleManifest()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"schema 1", "buffalo-train", "cora", "3 iterations", "gpu_compute",
		"estimator error", "p99=5.00%", "cache: 90.0% hit rate",
		"sharding: zero-1 over 4 replicas",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestReportShardingFlatten pins the sharding section's flatten contract:
// every byte-ledger and collective key a diff can reference is
// present, and a manifest without a sharding section emits no sharding/ keys
// at all.
func TestReportShardingFlatten(t *testing.T) {
	m := sampleManifest()
	flat := m.Flatten()
	want := map[string]float64{
		"sharding/replicas":             4,
		"sharding/buckets":              3,
		"sharding/param_bytes":          4 << 20,
		"sharding/grad_shard_bytes":     1 << 20,
		"sharding/optim_shard_bytes":    2 << 20,
		"sharding/dropped_bytes":        9 << 20,
		"sharding/padding_bytes":        48,
		"sharding/reduce_scatter_ns":    600_000,
		"sharding/reduce_scatter_count": 9,
		"sharding/all_gather_ns":        200_000,
		"sharding/all_gather_count":     3,
	}
	for k, v := range want {
		got, ok := flat[k]
		if !ok {
			t.Errorf("flatten missing %q", k)
			continue
		}
		if got != v {
			t.Errorf("flatten[%q] = %v, want %v", k, got, v)
		}
	}
	m.Sharding = nil
	for k := range m.Flatten() {
		if strings.HasPrefix(k, "sharding/") {
			t.Errorf("manifest without sharding section flattened %q", k)
		}
	}
}

// TestReportServingFlatten pins the serving section's flatten contract: every
// SLO and lifecycle key a diff can reference is present, the policy knobs
// (batch_size, max_wait_ns) are deliberately config-shaped and NOT flattened,
// and a manifest without a serving section emits no serving/ keys at all.
func TestReportServingFlatten(t *testing.T) {
	m := sampleManifest()
	flat := m.Flatten()
	want := map[string]float64{
		"serving/requests":          1000,
		"serving/responses":         980,
		"serving/shed":              15,
		"serving/canceled":          5,
		"serving/batches":           40,
		"serving/exec_errors":       2,
		"serving/avg_batch_size":    24.5,
		"serving/throughput_rps":    8500,
		"serving/latency_p50_ns":    900_000,
		"serving/latency_p90_ns":    2_500_000,
		"serving/latency_p99_ns":    6_000_000,
		"serving/queue_wait_p50_ns": 400_000,
		"serving/queue_wait_p99_ns": 3_000_000,
	}
	for k, v := range want {
		got, ok := flat[k]
		if !ok {
			t.Errorf("flatten missing %q", k)
			continue
		}
		if got != v {
			t.Errorf("flatten[%q] = %v, want %v", k, got, v)
		}
	}
	for _, k := range []string{"serving/batch_size", "serving/max_wait_ns"} {
		if _, ok := flat[k]; ok {
			t.Errorf("policy knob %q leaked into flatten; diffs must not compare config", k)
		}
	}

	m.Serving = nil
	for k := range m.Flatten() {
		if strings.HasPrefix(k, "serving/") {
			t.Errorf("manifest without serving section flattened %q", k)
		}
	}
}
