package train

import (
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/obs"
)

// TestMultiGPUPipelinedLossParity: the pipelined data-parallel loader
// reproduces the sequential DataParallel path's batches, plans, and float
// operation order exactly — same stream, same pinned K, same round-robin
// device mapping, same gradient-accumulation order — so per-iteration losses
// are bit-identical; only the timing model differs.
func TestMultiGPUPipelinedLossParity(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	// Pin K so both paths schedule identical groups (the pipelined planner
	// scales its memory limit by the batch's feature share, which could
	// otherwise move the K-search on tight budgets).
	cfg.MicroBatches = 4
	seq, err := NewDataParallel(ds, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	pip, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer pip.Close()
	for i := 0; i < 3; i++ {
		rs, err := seq.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := pip.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Loss != rp.Loss {
			t.Fatalf("iteration %d: sequential loss %v vs pipelined %v", i, rs.Loss, rp.Loss)
		}
		if rs.K != rp.K {
			t.Fatalf("iteration %d: K diverged: %d vs %d", i, rs.K, rp.K)
		}
		if rs.Pipelined || !rp.Pipelined {
			t.Fatalf("iteration %d: Pipelined flags wrong: seq=%v pip=%v", i, rs.Pipelined, rp.Pipelined)
		}
		if len(rp.PerGPUCompute) != 2 {
			t.Fatalf("iteration %d: want per-GPU compute for 2 devices, got %d", i, len(rp.PerGPUCompute))
		}
		if rp.Peak > cfg.MemBudget {
			t.Fatalf("iteration %d: pipelined peak %d over capacity %d", i, rp.Peak, cfg.MemBudget)
		}
	}
}

// TestMultiGPUPipelinedCancelMidDispatch: shutting the shared prefetcher
// down while it is dispatching staged micro-batches across replica lanes (no
// iteration ever consumed) must unwind every stage goroutine and release
// every staged byte on every device.
func TestMultiGPUPipelinedCancelMidDispatch(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	m := obs.NewMetrics()
	cfg.Obs = obs.NewRecorder(nil, m)
	pcfg := PipelineConfig{Depth: 2, CacheBudget: 2 * device.MB}
	dp, err := NewDataParallelPipelined(ds, cfg, 2, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	waitLoaderFull(t, m, pcfg, 2)
	if err := dp.Shutdown(); err != nil {
		t.Fatalf("shutdown of healthy mid-dispatch pipeline: %v", err)
	}
	for i := 0; i < dp.Cluster.Size(); i++ {
		if live := dp.Cluster.GPU(i).Live(); live != 0 {
			t.Fatalf("gpu %d leaked %d device bytes through shutdown", i, live)
		}
	}
	waitForGoroutineBaseline(t, before)
}

// TestMultiGPUPipelinedReplicaOOM: when one replica's device fills up (here:
// a hog allocation grabbed nearly all of gpu-1 behind the loader's back),
// staging onto that replica must fail with an OOM that cancels the whole
// shared pipeline, surfaces through RunIteration, is reported again by
// Shutdown, and leaks nothing on either device.
func TestMultiGPUPipelinedReplicaOOM(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	dp, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Leave gpu-1 only a few KB of headroom: far below any micro-batch's
	// feature tensor, so the next stage onto replica 1 cannot fit once the
	// tensors staged before the hog landed are drained.
	gpu1 := dp.Cluster.GPU(1)
	hog, err := gpu1.Alloc("test/hog", gpu1.Capacity()-gpu1.Live()-4096)
	if err != nil {
		t.Fatal(err)
	}
	var runErr error
	for i := 0; i < 20; i++ {
		if _, runErr = dp.RunIteration(); runErr != nil {
			break
		}
	}
	if runErr == nil {
		t.Fatal("expected an OOM from staging onto the full replica")
	}
	if !device.IsOOM(runErr) {
		t.Fatalf("want OOM error through the pipeline, got %v", runErr)
	}
	if err := dp.Shutdown(); !device.IsOOM(err) {
		t.Fatalf("Shutdown should report the stage OOM, got %v", err)
	}
	hog.Free()
	for i := 0; i < dp.Cluster.Size(); i++ {
		if live := dp.Cluster.GPU(i).Live(); live != 0 {
			t.Fatalf("gpu %d leaked %d device bytes after OOM shutdown", i, live)
		}
	}
	waitForGoroutineBaseline(t, before)
}

// TestMultiGPUPipelinedCacheStats: per-device caches see only their own
// replica's traffic, and the aggregate view sums them.
func TestMultiGPUPipelinedCacheStats(t *testing.T) {
	ds := skewedDataset(t)
	cfg := Config{
		System:  Buffalo,
		Model:   baseConfig(ds, Buffalo).Model,
		Fanouts: []int{10, 25}, BatchSize: 256,
		MemBudget: 2 * device.GB, Seed: 7,
		MicroBatches: 4,
	}
	cfg.Model.InDim = ds.FeatDim()
	cfg.Model.OutDim = ds.NumClasses
	dp, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2, CacheBudget: 2 * device.MB})
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	for i := 0; i < 4; i++ {
		if _, err := dp.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce first: the depth-2 prefetcher is still admitting rows for the
	// next iterations, and the two snapshots below are two calls. The caches
	// outlive the loader.
	if err := dp.Shutdown(); err != nil {
		t.Fatal(err)
	}
	per := dp.PerDeviceCacheStats()
	if len(per) != 2 {
		t.Fatalf("want 2 per-device cache snapshots, got %d", len(per))
	}
	agg := dp.CacheStats()
	var hits, misses int64
	for i, st := range per {
		if st.Misses == 0 {
			t.Fatalf("device %d cache saw no traffic", i)
		}
		hits += st.Hits
		misses += st.Misses
	}
	if hits != agg.Hits || misses != agg.Misses {
		t.Fatalf("aggregate (%d/%d) != summed per-device (%d/%d)", agg.Hits, agg.Misses, hits, misses)
	}
	if agg.Hits == 0 {
		t.Fatal("skewed hubs recur every batch; expected cache hits on both devices")
	}
}
