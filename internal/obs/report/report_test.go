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
	m.Benchmarks = map[string]Benchmark{
		"RunIteration_Pipelined": {NsPerOp: 1_000_000, AllocsPerOp: 250},
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

// TestReportSameConfigZeroRegressions is the acceptance criterion: two
// manifests from the same run gate clean under every threshold, and their
// diff is empty.
func TestReportSameConfigZeroRegressions(t *testing.T) {
	a, b := sampleManifest(), sampleManifest()
	th := Thresholds{
		EstimatorErrorDriftPP: 0.5, CriticalPathPct: 5,
		AllocsPct: 1, CacheHitRateDropPP: 1,
	}
	if vs := Gate(a, b, th); len(vs) != 0 {
		t.Fatalf("identical manifests produced violations: %+v", vs)
	}
	if ds := Diff(a, b); len(ds) != 0 {
		t.Fatalf("identical manifests produced deltas: %+v", ds)
	}
	var buf bytes.Buffer
	if err := WriteViolations(&buf, nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "ok") {
		t.Fatalf("pass output: %q", buf.String())
	}
}

// TestReportGateEstimatorDrift injects synthetic estimator-error drift and
// requires an actionable violation naming the metric and threshold.
func TestReportGateEstimatorDrift(t *testing.T) {
	base, cur := sampleManifest(), sampleManifest()
	cur.Estimator.MeanPct = base.Estimator.MeanPct + 4 // +4pp over a 1pp threshold
	th := Thresholds{EstimatorErrorDriftPP: 1}
	vs := Gate(base, cur, th)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Metric != "estimator/error_pct/mean" {
		t.Errorf("metric = %q", v.Metric)
	}
	for _, want := range []string{"estimator", "drifted", "1.00pp", "6.50%", "memest"} {
		if !strings.Contains(v.Message, want) {
			t.Errorf("message missing %q: %s", want, v.Message)
		}
	}
	// p99 drift alone also trips.
	cur2 := sampleManifest()
	cur2.Estimator.P99 = base.Estimator.P99 + 2
	if vs := Gate(base, cur2, th); len(vs) != 1 || vs[0].Metric != "estimator/error_pct/p99" {
		t.Fatalf("p99 drift: %+v", vs)
	}
	// Improvement never trips.
	cur3 := sampleManifest()
	cur3.Estimator.MeanPct = 0.5
	cur3.Estimator.P99 = 1
	if vs := Gate(base, cur3, th); len(vs) != 0 {
		t.Fatalf("improvement flagged: %+v", vs)
	}
}

// TestReportGateAllocsBump injects a synthetic allocs/op bump and requires
// an actionable violation naming the benchmark and threshold.
func TestReportGateAllocsBump(t *testing.T) {
	base, cur := sampleManifest(), sampleManifest()
	cur.Benchmarks["RunIteration_Pipelined"] = Benchmark{NsPerOp: 1_000_000, AllocsPerOp: 300} // +20%
	th := Thresholds{AllocsPct: 5}
	vs := Gate(base, cur, th)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Metric != "bench/RunIteration_Pipelined/allocs_per_op" {
		t.Errorf("metric = %q", v.Metric)
	}
	for _, want := range []string{"RunIteration_Pipelined", "+20.0%", "5.0%", "-memprofile"} {
		if !strings.Contains(v.Message, want) {
			t.Errorf("message missing %q: %s", want, v.Message)
		}
	}
	// Zero-baseline growth always fails regardless of percentage.
	base.Benchmarks["ZeroAlloc"] = Benchmark{NsPerOp: 100}
	cur.Benchmarks["ZeroAlloc"] = Benchmark{NsPerOp: 100, AllocsPerOp: 1}
	vs = Gate(base, cur, th)
	if len(vs) != 2 {
		t.Fatalf("zero-baseline bump not flagged: %+v", vs)
	}
	if !strings.Contains(vs[1].Message, "allocation-free baseline") {
		t.Errorf("zero-baseline message: %s", vs[1].Message)
	}
	// Benchmarks only present on one side are ignored, not gated.
	delete(base.Benchmarks, "ZeroAlloc")
	if vs := Gate(base, cur, th); len(vs) != 1 {
		t.Fatalf("one-sided benchmark gated: %+v", vs)
	}
}

func TestReportGateCriticalPathAndCache(t *testing.T) {
	base, cur := sampleManifest(), sampleManifest()
	cur.Run.CriticalPathNs = base.Run.CriticalPathNs * 2
	cur.Cache.HitRate = 0.7 // -20pp
	th := Thresholds{CriticalPathPct: 10, CacheHitRateDropPP: 5}
	vs := Gate(base, cur, th)
	if len(vs) != 2 {
		t.Fatalf("got %d violations, want 2: %+v", len(vs), vs)
	}
	if vs[0].Metric != "cache/hit_rate" || vs[1].Metric != "run/critical_path_ns" {
		t.Fatalf("violations: %+v", vs)
	}
	// Zero thresholds disable both gates.
	if vs := Gate(base, cur, Thresholds{}); len(vs) != 0 {
		t.Fatalf("zero thresholds still gated: %+v", vs)
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

func TestReportThresholdsFile(t *testing.T) {
	th, err := ReadThresholds(strings.NewReader(`{"estimator_error_drift_pp": 2, "allocs_pct": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	if th.EstimatorErrorDriftPP != 2 || th.AllocsPct != 10 || th.CriticalPathPct != 0 {
		t.Fatalf("thresholds: %+v", th)
	}
	if _, err := ReadThresholds(strings.NewReader(`{"alocs_pct": 10}`)); err == nil {
		t.Fatal("typoed threshold field accepted")
	}
}

func TestReportMergeBench(t *testing.T) {
	m := New("bench")
	text := `goos: linux
BenchmarkRunIteration_Pipelined-8   	     100	   9876543 ns/op	  512000 B/op	     321 allocs/op
BenchmarkRunIteration_Pipelined-8   	     100	   9000000 ns/op	  512000 B/op	     321 allocs/op
PASS`
	if err := m.MergeBenchText(strings.NewReader(text)); err != nil {
		t.Fatal(err)
	}
	// Fastest sample wins.
	if b := m.Benchmarks["RunIteration_Pipelined"]; b.NsPerOp != 9000000 || b.AllocsPerOp != 321 {
		t.Fatalf("merged text: %+v", m.Benchmarks)
	}
	if err := m.MergeBenchText(strings.NewReader("no benchmarks here")); err == nil {
		t.Fatal("empty bench text accepted")
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
		"estimator error", "p99=5.00%", "cache: 90.0% hit rate", "RunIteration_Pipelined",
		"sharding: zero-1 over 4 replicas",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestReportShardingFlatten pins the sharding section's flatten contract:
// every byte-ledger and collective key a gate or diff can reference is
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

// TestReportGateShardingPadding pins the padding gate: marginal padding
// passes, bloated padding fails with an actionable message, a zero threshold
// and a missing section both disable the gate.
func TestReportGateShardingPadding(t *testing.T) {
	base, cur := sampleManifest(), sampleManifest()
	th := Thresholds{ShardingPaddingPct: 1}
	if vs := Gate(base, cur, th); len(vs) != 0 {
		t.Fatalf("marginal padding gated: %+v", vs)
	}
	cur.Sharding.PaddingBytes = cur.Sharding.ParamBytes / 10 // 10% over a 1% threshold
	vs := Gate(base, cur, th)
	if len(vs) != 1 {
		t.Fatalf("got %d violations, want 1: %+v", len(vs), vs)
	}
	v := vs[0]
	if v.Metric != "sharding/padding_bytes" {
		t.Errorf("metric = %q", v.Metric)
	}
	for _, want := range []string{"padding", "10.00%", "1.00%", "Flatten"} {
		if !strings.Contains(v.Message, want) {
			t.Errorf("message missing %q: %s", want, v.Message)
		}
	}
	// The gate is absolute: it fires even when the baseline has no sharding
	// section (a run newly switched to ZeRO-1 still must not waste space).
	base.Sharding = nil
	if vs := Gate(base, cur, th); len(vs) != 1 {
		t.Fatalf("sharding-less baseline disabled the gate: %+v", vs)
	}
	// Zero threshold / missing current section disable it.
	if vs := Gate(base, cur, Thresholds{}); len(vs) != 0 {
		t.Fatalf("zero threshold still gated: %+v", vs)
	}
	cur.Sharding = nil
	if vs := Gate(base, cur, th); len(vs) != 0 {
		t.Fatalf("sharding-less current gated: %+v", vs)
	}
}

// TestReportServingFlatten pins the serving section's flatten contract: every
// SLO and lifecycle key a gate can reference is present, the policy knobs
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
			t.Errorf("policy knob %q leaked into flatten; gates must not diff config", k)
		}
	}

	m.Serving = nil
	for k := range m.Flatten() {
		if strings.HasPrefix(k, "serving/") {
			t.Errorf("manifest without serving section flattened %q", k)
		}
	}
}
