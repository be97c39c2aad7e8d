package train

import (
	"math"
	"slices"
	"testing"
	"time"

	"buffalo/internal/device"
	"buffalo/internal/obs"
)

// TestCommOverlapLossBitIdentical: the bucketed overlapped all-reduce changes
// only the timing model. Whatever the bucket size, the per-parameter gradient
// additions happen in exactly the sequential combine's order (each parameter
// in one bucket, replica order fixed inside each), so per-iteration losses
// are bit-identical to CommOverlap off.
func TestCommOverlapLossBitIdentical(t *testing.T) {
	ds := loadData(t, "cora")
	base := baseConfig(ds, Buffalo)
	base.MicroBatches = 4
	ref, err := NewDataParallel(ds, base, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	const iters = 3
	refLoss := make([]float32, iters)
	for i := 0; i < iters; i++ {
		r, err := ref.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		refLoss[i] = r.Loss
		if r.ExposedComm != r.Phases.Communication || r.HiddenComm != 0 {
			t.Fatalf("iteration %d: sequential reduce must be fully exposed: exposed %v hidden %v comm %v",
				i, r.ExposedComm, r.HiddenComm, r.Phases.Communication)
		}
	}
	// 0 → default 32 KB buckets; 2 KB → several buckets; 1 B → one bucket
	// per parameter (the worst case for the bit-identity argument).
	for _, bucketBytes := range []int64{0, 2048, 1} {
		cfg := base
		cfg.CommOverlap = true
		cfg.BucketBytes = bucketBytes
		dp, err := NewDataParallel(ds, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < iters; i++ {
			r, err := dp.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			if r.Loss != refLoss[i] {
				t.Fatalf("BucketBytes=%d iteration %d: overlapped loss %v != sequential %v",
					bucketBytes, i, r.Loss, refLoss[i])
			}
			if r.ExposedComm+r.HiddenComm != r.Phases.Communication {
				t.Fatalf("BucketBytes=%d iteration %d: exposed %v + hidden %v != comm busy %v",
					bucketBytes, i, r.ExposedComm, r.HiddenComm, r.Phases.Communication)
			}
			if r.ExposedComm <= 0 {
				t.Fatalf("BucketBytes=%d iteration %d: the last bucket launches at the compute tail; ExposedComm must be positive, got %v",
					bucketBytes, i, r.ExposedComm)
			}
			if r.HiddenComm < 0 {
				t.Fatalf("BucketBytes=%d iteration %d: negative HiddenComm %v", bucketBytes, i, r.HiddenComm)
			}
			if want := r.Phases.Total() - r.Phases.Communication + r.ExposedComm; r.CriticalPath() != want {
				t.Fatalf("BucketBytes=%d iteration %d: CriticalPath %v, want %v", bucketBytes, i, r.CriticalPath(), want)
			}
		}
		dp.Close()
	}
}

// TestCommOverlapHidesCommunication: with several buckets, the early buckets'
// reduces run behind the compute tail — some communication must actually be
// hidden, and single-GPU runs report no communication at all.
func TestCommOverlapHidesCommunication(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	cfg.CommOverlap = true
	cfg.BucketBytes = 1 // one bucket per parameter: maximal launch spread
	dp, err := NewDataParallel(ds, cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	var hidden time.Duration
	for i := 0; i < 3; i++ {
		r, err := dp.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		hidden += r.HiddenComm
	}
	if hidden <= 0 {
		t.Fatal("per-parameter buckets launch throughout the backward window; some communication must hide behind compute")
	}

	single, err := NewSession(ds, baseConfig(ds, Buffalo))
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	r, err := single.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if r.Phases.Communication != 0 || r.ExposedComm != 0 || r.HiddenComm != 0 {
		t.Fatalf("single-GPU run reported communication: comm %v exposed %v hidden %v",
			r.Phases.Communication, r.ExposedComm, r.HiddenComm)
	}
}

// TestPlanAheadLossParity: a plan-ahead pool is dealt batches round-robin and
// its plans are collected in the same rotation, so the pipelined multi-GPU
// path keeps producing the sequential path's exact batch order and losses —
// with overlapped reduces on top, still bit-identical.
func TestPlanAheadLossParity(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	seq, err := NewDataParallel(ds, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	pcfg := cfg
	pcfg.CommOverlap = true
	pip, err := NewDataParallelPipelined(ds, pcfg, 2, PipelineConfig{Depth: 2, PlanAhead: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer pip.Close()
	for i := 0; i < 4; i++ {
		rs, err := seq.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := pip.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if rs.Loss != rp.Loss {
			t.Fatalf("iteration %d: sequential loss %v vs plan-ahead pipelined %v", i, rs.Loss, rp.Loss)
		}
		if rs.K != rp.K {
			t.Fatalf("iteration %d: K diverged: %d vs %d", i, rs.K, rp.K)
		}
		if rp.ExposedComm+rp.HiddenComm != rp.Phases.Communication {
			t.Fatalf("iteration %d: exposed %v + hidden %v != comm %v",
				i, rp.ExposedComm, rp.HiddenComm, rp.Phases.Communication)
		}
	}
}

// TestPlanAheadCancelMidPool: shutting down while several planner workers are
// mid-K-search (and their outboxes hold undelivered plans) must unwind every
// pool goroutine and leak nothing on any device.
func TestPlanAheadCancelMidPool(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	m := obs.NewMetrics()
	cfg.Obs = obs.NewRecorder(nil, m)
	pcfg := PipelineConfig{Depth: 2, PlanAhead: 3}
	dp, err := NewDataParallelPipelined(ds, cfg, 2, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Wait for the pool to have every plan in flight (full outboxes, full
	// lanes) without ever consuming an iteration.
	waitLoaderFull(t, m, pcfg, 2)
	if err := dp.Shutdown(); err != nil {
		t.Fatalf("shutdown of healthy plan-ahead pipeline: %v", err)
	}
	for i := 0; i < dp.Cluster.Size(); i++ {
		if live := dp.Cluster.GPU(i).Live(); live != 0 {
			t.Fatalf("gpu %d leaked %d device bytes through shutdown", i, live)
		}
	}
	waitForGoroutineBaseline(t, before)
}

// TestPlanAheadReplicaOOM: a replica device filling up mid-run — with the
// planner pool planning ahead and bucketed reduces in flight every iteration
// — must surface the OOM through RunIteration, cancel every pool worker, and
// leak neither device bytes nor goroutines.
func TestPlanAheadReplicaOOM(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	cfg.CommOverlap = true
	dp, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2, PlanAhead: 2})
	if err != nil {
		t.Fatal(err)
	}
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

// TestPlanAheadSearchedKMatchesSinglePlanner: with K searched instead of
// pinned, a pipelined planner starts its K-search one below the K of its own
// previous plan, and settles on the larger of that start and the batch's
// smallest feasible K. A single planner warm-starts batch n from batch n−1;
// planner n mod W of a pool of W from batch n−W. On arxiv under a 12 MB
// device, where K moves between 4 and 6, no batch's plan depends on which
// of the recent plans it starts from, so a pool of three delivers the single
// planner's K sequence and loss bits, with ZeRO-1 and overlapped reduces on.
// Under tighter budgets the start decides K for some batches, and a pool's
// plans differ from one planner's (TestPlanAheadPoolDeterministic holds
// them fixed for the pool).
func TestPlanAheadSearchedKMatchesSinglePlanner(t *testing.T) {
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Hidden = 16
	cfg.BatchSize = 512
	cfg.MemBudget = 12 * device.MB
	cfg.CommOverlap = true
	cfg.ZeRO1 = true
	const iters = 12
	run := func(planAhead int) (ks []int, losses []uint32) {
		dp, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2, PlanAhead: planAhead})
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		for i := 0; i < iters; i++ {
			r, err := dp.RunIteration()
			if err != nil {
				t.Fatalf("PlanAhead %d, iteration %d: %v", planAhead, i, err)
			}
			ks = append(ks, r.K)
			losses = append(losses, math.Float32bits(r.Loss))
		}
		return ks, losses
	}
	singleK, singleLoss := run(1)
	poolK, poolLoss := run(3)
	varied := false
	for i := range singleK {
		if singleK[i] != poolK[i] || singleLoss[i] != poolLoss[i] {
			t.Fatalf("iteration %d: single planner K %d loss %#x, pool of 3 K %d loss %#x",
				i, singleK[i], singleLoss[i], poolK[i], poolLoss[i])
		}
		varied = varied || singleK[i] != singleK[0]
	}
	if !varied {
		t.Fatalf("K was %d on every iteration: the warm start was never exercised", singleK[0])
	}
	t.Logf("K sequence %v", singleK)
}

// TestPlanAheadPoolDeterministic: the sampler deals batch n to planner
// n mod W, and each planner warm-starts its K-search from its own previous
// plan, so a pool's plans are a function of (seed, config, W). On arxiv
// under a 4 MB device the warm start decides K for some batches; three
// sessions of a pool of four must still deliver one K sequence and one
// sequence of loss bits.
func TestPlanAheadPoolDeterministic(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Hidden = 16
	cfg.BatchSize = 512
	cfg.MemBudget = 4 * device.MB
	cfg.CommOverlap = true
	cfg.ZeRO1 = true
	const iters = 40
	run := func() (ks []int, losses []uint32) {
		dp, err := NewDataParallelPipelined(ds, cfg, 2, PipelineConfig{Depth: 2, PlanAhead: 4})
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		for i := 0; i < iters; i++ {
			r, err := dp.RunIteration()
			if err != nil {
				t.Fatalf("iteration %d: %v", i, err)
			}
			ks = append(ks, r.K)
			losses = append(losses, math.Float32bits(r.Loss))
		}
		return ks, losses
	}
	firstK, firstLoss := run()
	for session := 1; session < 3; session++ {
		ks, losses := run()
		for i := range ks {
			if ks[i] != firstK[i] || losses[i] != firstLoss[i] {
				t.Fatalf("session %d, iteration %d: K %d loss %#x, first session K %d loss %#x",
					session, i, ks[i], losses[i], firstK[i], firstLoss[i])
			}
		}
	}
	if slices.Min(firstK) == slices.Max(firstK) {
		t.Fatalf("K was %d on every iteration: the warm start was never exercised", firstK[0])
	}
}
