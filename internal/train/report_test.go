package train

import (
	"bytes"
	"reflect"
	"testing"

	"buffalo/internal/obs"
	"buffalo/internal/obs/report"
)

// TestRunReportManifestSession drives a real observed run through the
// RunReport accumulator and checks the manifest carries what the run knew:
// config, phases, the estimator's error distribution, and the device's
// reconstructed peak set — then round-trips it through the serializer.
func TestRunReportManifestSession(t *testing.T) {
	ds := loadData(t, "cora")
	rec := obs.NewRecorder(obs.NewTrace(), obs.NewMetrics())
	cfg := baseConfig(ds, Buffalo)
	cfg.Obs = rec
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rr := NewRunReport("test", "cora", cfg, 1)
	var wantCritical int64
	for i := 0; i < 2; i++ {
		res, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rr.Record(res)
		wantCritical += int64(res.CriticalPath())
	}
	rr.CaptureSession(s)
	m := rr.Build(rec)

	if m.Schema != report.SchemaVersion || m.Tool != "test" {
		t.Fatalf("header: schema=%d tool=%q", m.Schema, m.Tool)
	}
	if m.Config.System != "buffalo" || m.Config.Dataset != "cora" ||
		m.Config.BatchSize != cfg.BatchSize || m.Config.MemBudgetBytes != cfg.MemBudget {
		t.Fatalf("config: %+v", m.Config)
	}
	if m.Run.Iterations != 2 || m.Run.CriticalPathNs != wantCritical {
		t.Fatalf("run: %+v (want 2 iterations, critical %d)", m.Run, wantCritical)
	}
	if m.Run.PeakBytes <= 0 || m.Run.PredictedPeakBytes <= 0 {
		t.Fatalf("peaks not captured: %+v", m.Run)
	}
	for _, phase := range []string{"scheduling", "block_gen", "data_loading", "gpu_compute"} {
		if m.PhasesNs[phase] <= 0 {
			t.Errorf("phase %s missing from %v", phase, m.PhasesNs)
		}
	}
	if m.Estimator == nil || m.Estimator.Count < 2 {
		t.Fatalf("estimator distribution missing: %+v", m.Estimator)
	}
	if len(m.Devices) != 1 {
		t.Fatalf("devices: %+v", m.Devices)
	}
	d := m.Devices[0]
	if d.Name != "buffalo" || d.PeakBytes <= 0 || d.TransferredBytes <= 0 {
		t.Fatalf("device counters: %+v", d)
	}
	// The trace was attached, so the timeline-derived peak set must be
	// present and sum to the device peak.
	var peakSum int64
	for _, a := range d.PeakSet {
		peakSum += a.Bytes
	}
	if peakSum != d.PeakBytes {
		t.Fatalf("peak set sums to %d, device peak %d (%+v)", peakSum, d.PeakBytes, d.PeakSet)
	}
	if len(d.Tags) == 0 {
		t.Fatal("per-tag aggregates missing")
	}
	if len(m.Metrics) == 0 {
		t.Fatal("metrics snapshot missing")
	}
	// Between iterations everything is back in the pools: nothing checked
	// out, and the retained bytes the manifest reports are what the
	// per-iteration gauge last published.
	po := m.Pooling
	if po == nil || po.Outstanding != 0 || po.RetainedBytes <= 0 {
		t.Fatalf("pooling section: %+v", po)
	}
	if flat := m.Flatten(); flat["metric/tensor/pool/retained_bytes"] != float64(po.RetainedBytes) {
		t.Fatalf("retained-bytes gauge %v, manifest %d", flat["metric/tensor/pool/retained_bytes"], po.RetainedBytes)
	}

	var buf bytes.Buffer
	if err := report.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := report.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("manifest round trip changed the run report")
	}

	// Two manifests built from the same accumulated state do not differ.
	m2 := rr.Build(rec)
	if ds := report.Diff(m, m2); len(ds) != 0 {
		t.Fatalf("same-state manifests diff: %+v", ds)
	}
}

// TestRunReportManifestSharding checks the data-parallel capture path under
// ZeRO-1: the sharding section reaches the manifest with numbers consistent
// with the engine's flat buffer and the cluster's collective breakdown, the
// flattened sharding/ keys survive a serialize/diff round trip, and an
// unsharded run emits no section at all.
func TestRunReportManifestSharding(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	cfg.ZeRO1 = true
	cfg.CommOverlap = true
	const gpus, iters = 4, 2
	dp, err := NewDataParallel(ds, cfg, gpus)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()

	rr := NewRunReport("test", "cora", cfg, gpus)
	for i := 0; i < iters; i++ {
		res, err := dp.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rr.Record(&res.IterationResult)
	}
	rr.CaptureDataParallel(dp)
	m := rr.Build(nil)

	if !m.Config.ZeRO1 {
		t.Fatalf("config flags: %+v", m.Config)
	}
	sh := m.Sharding
	if sh == nil {
		t.Fatal("sharding section missing from a ZeRO-1 run")
	}
	fb := dp.eng.flat0
	params := dp.eng.replicas[0].model.Params
	if sh.Replicas != gpus {
		t.Fatalf("sharding header: %+v", sh)
	}
	if sh.Buckets != len(fb.Buckets()) || sh.ParamBytes != params.ValueBytes() {
		t.Fatalf("sharding geometry: %+v", sh)
	}
	if sh.GradShardBytes != fb.ShardBytes() || sh.OptimShardBytes != 2*fb.ShardBytes() {
		t.Fatalf("shard bytes: %+v (shard %d)", sh, fb.ShardBytes())
	}
	if sh.PaddingBytes != int64(fb.PaddingElems())*4 {
		t.Fatalf("padding: %+v (elems %d)", sh, fb.PaddingElems())
	}
	wantDrop := 3 * (params.ValueBytes() - fb.ShardBytes())
	if sh.DroppedBytes != wantDrop {
		t.Fatalf("dropped bytes %d, want %d", sh.DroppedBytes, wantDrop)
	}
	bd := dp.Cluster.Collectives()
	if sh.ReduceScatterCount != bd.ReduceScatterCount || sh.ReduceScatterCount != int64(iters*len(fb.Buckets())) {
		t.Fatalf("reduce-scatter count %d, breakdown %d, want %d", sh.ReduceScatterCount, bd.ReduceScatterCount, iters*len(fb.Buckets()))
	}
	if sh.AllGatherCount != int64(iters) || sh.ReduceScatterNs <= 0 || sh.AllGatherNs <= 0 {
		t.Fatalf("collective breakdown: %+v", sh)
	}

	// Round trip preserves the section; the flattened keys participate in
	// diff against a sharding-less manifest.
	var buf bytes.Buffer
	if err := report.Write(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := report.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("manifest round trip changed the sharding section")
	}
	flat := m.Flatten()
	if flat["sharding/dropped_bytes"] != float64(wantDrop) || flat["sharding/replicas"] != gpus {
		t.Fatalf("flatten: %v", flat)
	}
	if 100*sh.PaddingBytes > sh.ParamBytes {
		t.Fatalf("padding %d bytes is over 1%% of the %d parameter bytes", sh.PaddingBytes, sh.ParamBytes)
	}

	// An unsharded run of the same shape carries no section.
	cfg2 := baseConfig(ds, Buffalo)
	cfg2.MicroBatches = 4
	dp2, err := NewDataParallel(ds, cfg2, gpus)
	if err != nil {
		t.Fatal(err)
	}
	defer dp2.Close()
	rr2 := NewRunReport("test", "cora", cfg2, gpus)
	rr2.CaptureDataParallel(dp2)
	m2 := rr2.Build(nil)
	if m2.Sharding != nil {
		t.Fatalf("all-reduce run grew a sharding section: %+v", m2.Sharding)
	}
	for k := range m2.Flatten() {
		if len(k) >= 9 && k[:9] == "sharding/" {
			t.Fatalf("all-reduce run flattened %q", k)
		}
	}
}

// TestRunReportManifestPipelined checks the pipelined capture path: loader
// depth, cache state and the overlap accounting reach the manifest.
func TestRunReportManifestPipelined(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	pcfg := PipelineConfig{Depth: 2, CacheBudget: 8 << 20}
	p, err := NewPipelinedSession(ds, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()

	rr := NewRunReport("test", "cora", cfg, 1)
	rr.SetPipeline(pcfg)
	for i := 0; i < 3; i++ {
		res, err := p.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rr.Record(res)
	}
	rr.CaptureSession(p)
	m := rr.Build(nil)

	if !m.Config.Pipelined || m.Config.PrefetchDepth != 2 || m.Config.CacheBudgetBytes != 8<<20 {
		t.Fatalf("pipeline config: %+v", m.Config)
	}
	if m.Cache == nil || m.Cache.Hits+m.Cache.Misses == 0 {
		t.Fatalf("cache state: %+v", m.Cache)
	}
	if m.Estimator != nil || len(m.Metrics) != 0 {
		t.Fatalf("nil recorder produced metrics: est=%+v metrics=%d", m.Estimator, len(m.Metrics))
	}
	if len(m.Devices) != 1 || m.Devices[0].PeakBytes <= 0 {
		t.Fatalf("devices: %+v", m.Devices)
	}
	if len(m.Devices[0].PeakSet) != 0 {
		t.Fatal("peak set present without a trace")
	}
}
