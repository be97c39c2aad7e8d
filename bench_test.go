package buffalo

// One benchmark per paper table/figure (DESIGN.md §4 maps ids to modules).
// Each benchmark exercises the kernel that figure measures — scheduling,
// block generation, estimation, partitioning, or a training iteration — at
// a size that keeps `go test -bench=.` tractable; the full-scale
// regeneration of each artifact is `go run ./cmd/experiments -run <id>`.

import (
	"context"
	"math/rand"
	"testing"

	"buffalo/internal/baseline/betty"
	"buffalo/internal/block"
	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
	"buffalo/internal/partition"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
	"buffalo/internal/serve"
	"buffalo/internal/train"
)

// benchState caches the shared fixtures across benchmarks.
type benchState struct {
	arxiv *datagen.Dataset
	cora  *datagen.Dataset
	batch *sampling.Batch // arxiv batch, 512 seeds, fanouts 10/25
	est   *memest.Estimator
}

var benchCache *benchState

func fixtures(b *testing.B) *benchState {
	b.Helper()
	if benchCache != nil {
		return benchCache
	}
	arxiv, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		b.Fatal(err)
	}
	cora, err := datagen.Load("cora", 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seeds, err := sampling.UniformSeeds(arxiv.Graph, 512, rng)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := sampling.SampleBatch(arxiv.Graph, seeds, []int{10, 25}, rng)
	if err != nil {
		b.Fatal(err)
	}
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2,
		InDim: arxiv.FeatDim(), Hidden: 32, OutDim: arxiv.NumClasses, Seed: 1}
	est, err := memest.New(memest.SpecFromConfig(cfg),
		memest.ProfileBatch(batch, arxiv.Graph.ApproxClusteringCoefficient(1, 2000)))
	if err != nil {
		b.Fatal(err)
	}
	benchCache = &benchState{arxiv: arxiv, cora: cora, batch: batch, est: est}
	return benchCache
}

func coraSession(b *testing.B, sys train.System, micro int) *train.Session {
	b.Helper()
	st := fixtures(b)
	s, err := train.NewSession(st.cora, train.Config{
		System: sys,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:      []int{5, 5},
		BatchSize:    256,
		MemBudget:    device.GB,
		MicroBatches: micro,
		Seed:         7,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkFig01DegreeFrequency: the degree histogram behind Fig 1.
func BenchmarkFig01DegreeFrequency(b *testing.B) {
	st := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if h := st.arxiv.Graph.DegreeHistogram(); len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// BenchmarkTable02Datasets: the graph statistics of Table II.
func BenchmarkTable02Datasets(b *testing.B) {
	st := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := st.arxiv.Graph.ComputeStats(3, 500); s.Nodes == 0 {
			b.Fatal("no stats")
		}
	}
}

// BenchmarkFig02MemoryWall: one full-batch (DGL-style) training iteration —
// Fig 2's unit of measurement.
func BenchmarkFig02MemoryWall(b *testing.B) {
	s := coraSession(b, train.DGL, 0)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig04BucketVolumes: degree bucketing of a batch's output layer.
func BenchmarkFig04BucketVolumes(b *testing.B) {
	st := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bk := bucket.Bucketize(st.batch); bk.TotalNodes() == 0 {
			b.Fatal("no buckets")
		}
	}
}

// BenchmarkFig05PhaseTimes: the per-iteration METIS partitioning Fig 5 shows
// dominating GPU compute.
func BenchmarkFig05PhaseTimes(b *testing.B) {
	st := fixtures(b)
	wg := partition.OutputGraph(st.batch)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.KWay(wg, 8, int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig09ScheduleExample: one full Buffalo scheduling pass
// (Algorithms 3+4) against a half-batch budget.
func BenchmarkFig09ScheduleExample(b *testing.B) {
	st := fixtures(b)
	whole, err := st.est.BatchMem(st.batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := schedule.Schedule(st.batch, st.est, schedule.Options{MemLimit: whole / 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10Pareto: a complete Buffalo iteration (schedule + blocks +
// train) — Fig 10's time axis.
func BenchmarkFig10Pareto(b *testing.B) {
	s := coraSession(b, train.Buffalo, 4)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig11Breakdown: a complete Betty iteration (REG + METIS + naive
// blocks + train), the comparison bar of Fig 11.
func BenchmarkFig11Breakdown(b *testing.B) {
	s := coraSession(b, train.Betty, 4)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12BlockGenFast and ...Naive: the two block generators of
// Fig 12.
func BenchmarkFig12BlockGenFast(b *testing.B) {
	st := fixtures(b)
	outputs := st.batch.Seeds[:128]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := block.Generate(st.batch, outputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig12BlockGenNaive is the connection-check baseline.
func BenchmarkFig12BlockGenNaive(b *testing.B) {
	st := fixtures(b)
	outputs := st.batch.Seeds[:128]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := block.GenerateNaive(st.batch, outputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig13BreakWall: Buffalo iteration under a tight budget (auto-K),
// the mechanism that resolves Fig 2's OOMs.
func BenchmarkFig13BreakWall(b *testing.B) {
	st := fixtures(b)
	s, err := train.NewSession(st.arxiv, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.arxiv.FeatDim(), Hidden: 16, OutDim: st.arxiv.NumClasses, Seed: 1},
		Fanouts:   []int{10, 25},
		BatchSize: 512,
		MemBudget: 12 * device.MB,
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig14LoadBalance: scheduling plus the per-group estimates whose
// spread Fig 14 reports.
func BenchmarkFig14LoadBalance(b *testing.B) {
	st := fixtures(b)
	whole, err := st.est.BatchMem(st.batch)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := schedule.Schedule(st.batch, st.est, schedule.Options{MemLimit: whole / 4})
		if err != nil {
			b.Fatal(err)
		}
		if p.Imbalance() > 1 {
			b.Fatal("impossible imbalance")
		}
	}
}

// BenchmarkFig15BudgetSweep: scheduling across the four Fig 15 budgets.
func BenchmarkFig15BudgetSweep(b *testing.B) {
	st := fixtures(b)
	whole, err := st.est.BatchMem(st.batch)
	if err != nil {
		b.Fatal(err)
	}
	budgets := []int64{whole / 6, whole / 4, whole / 2, whole}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, lim := range budgets {
			if _, err := schedule.Schedule(st.batch, st.est, schedule.Options{MemLimit: lim}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig16ComputeEfficiency: the three baseline partition strategies
// of Fig 16 on one batch.
func BenchmarkFig16ComputeEfficiency(b *testing.B) {
	st := fixtures(b)
	strategies := []partition.Strategy{partition.Random{}, partition.Range{}, partition.Metis{}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range strategies {
			if _, err := s.Partition(st.batch, 8, int64(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig17Convergence: one matched pair of full-batch and micro-batch
// iterations on the same batch — the unit of Fig 17's curves.
func BenchmarkFig17Convergence(b *testing.B) {
	full := coraSession(b, train.DGL, 0)
	defer full.Close()
	micro := coraSession(b, train.Buffalo, 4)
	defer micro.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := full.SampleBatch()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := full.RunIterationOn(batch); err != nil {
			b.Fatal(err)
		}
		if _, err := micro.RunIterationOn(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable03EstimationError: the redundancy-aware group estimator,
// Table III's subject.
func BenchmarkTable03EstimationError(b *testing.B) {
	st := fixtures(b)
	bk := bucket.Bucketize(st.batch)
	g := &bucket.Group{Buckets: bk.Buckets}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.est.GroupMem(st.batch, g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable04LossParity: the DGL-vs-Buffalo matched iteration pair of
// Table IV.
func BenchmarkTable04LossParity(b *testing.B) {
	dgl := coraSession(b, train.DGL, 0)
	defer dgl.Close()
	buf := coraSession(b, train.Buffalo, 2)
	defer buf.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := dgl.SampleBatch()
		if err != nil {
			b.Fatal(err)
		}
		r1, err := dgl.RunIterationOn(batch)
		if err != nil {
			b.Fatal(err)
		}
		r2, err := buf.RunIterationOn(batch)
		if err != nil {
			b.Fatal(err)
		}
		if d := r1.Loss - r2.Loss; d > 0.01 || d < -0.01 {
			b.Fatalf("loss parity broken: %v vs %v", r1.Loss, r2.Loss)
		}
	}
}

// BenchmarkMultiGPU: one 2-GPU data-parallel iteration (§V-G).
func BenchmarkMultiGPU(b *testing.B) {
	st := fixtures(b)
	dp, err := train.NewDataParallel(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:      []int{5, 5},
		BatchSize:    256,
		MemBudget:    device.GB,
		MicroBatches: 4,
		Seed:         7,
	}, 2)
	if err != nil {
		b.Fatal(err)
	}
	defer dp.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dp.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIteration_ObsDisabled and ...Enabled bound the observability
// tax: the disabled path (nil recorder) must cost nothing, and the enabled
// path (ring trace + metrics) must stay within a few percent of it. README
// records the targets: <3% overhead enabled, 0 allocs/op attributable to
// obs when disabled.
func BenchmarkRunIteration_ObsDisabled(b *testing.B) {
	s := coraSession(b, train.Buffalo, 4)
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunIteration_ObsEnabled(b *testing.B) {
	st := fixtures(b)
	rec := obs.NewRecorder(obs.NewRingTrace(4096), obs.NewMetrics())
	s, err := train.NewSession(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:      []int{5, 5},
		BatchSize:    256,
		MemBudget:    device.GB,
		MicroBatches: 4,
		Seed:         7,
		Obs:          rec,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIteration_Sequential and ...Pipelined compare the sequential
// loader against the async prefetch pipeline on the same configuration. The
// pipelined variant's host-side cost includes the staging goroutines; the
// win it exists for — hidden transfer time — shows up in the simulated
// phase clocks (see the `pipeline` experiment), not in ns/op.
func BenchmarkRunIteration_Sequential(b *testing.B) {
	s := coraSession(b, train.Buffalo, 4)
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIteration_SequentialArxiv is the sequential iteration at the
// paper's regime — ogbn-arxiv, batch 512, fanouts 10/25, K searched under a
// 12 MB device — where the layer-0 GEMMs sit around parallelFlopThreshold, so
// the row-parallel kernel path has a tracked number.
func BenchmarkRunIteration_SequentialArxiv(b *testing.B) {
	st := fixtures(b)
	s, err := train.NewSession(st.arxiv, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.arxiv.FeatDim(), Hidden: 16, OutDim: st.arxiv.NumClasses, Seed: 1},
		Fanouts:   []int{10, 25},
		BatchSize: 512,
		MemBudget: 12 * device.MB,
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIteration_SequentialLSTM is the sequential iteration on the
// memory-wall configuration of the train-cora-lstm workload — cora, the first
// 64 feature columns, hidden 16, batch 128, fanouts 5/5, K searched under
// 2 MB — the one iteration that runs nn.LSTMCell. Its allocs/op is the fourth
// number the report gate holds.
func BenchmarkRunIteration_SequentialLSTM(b *testing.B) {
	st := fixtures(b)
	s, err := train.NewSession(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2,
			InDim: 64, Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:   []int{5, 5},
		BatchSize: 128,
		MemBudget: 2 * device.MB,
		Seed:      7,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRunIteration_Pipelined(b *testing.B) {
	st := fixtures(b)
	p, err := train.NewPipelinedSession(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:      []int{5, 5},
		BatchSize:    256,
		MemBudget:    device.GB,
		MicroBatches: 4,
		Seed:         7,
	}, train.PipelineConfig{Depth: 2, CacheBudget: 8 * device.MB})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunIteration_PipelinedTap is BenchmarkRunIteration_Pipelined with
// a live streaming tap subscribed and drained by a consumer goroutine: the
// acceptance benchmark for the -live meter path. README records the target:
// within 1% of the untapped pipelined run — the offer path is one atomic
// load when no tap is attached and one non-blocking send per event when one
// is.
func BenchmarkRunIteration_PipelinedTap(b *testing.B) {
	st := fixtures(b)
	rec := obs.NewRecorder(nil, nil)
	p, err := train.NewPipelinedSession(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:      []int{5, 5},
		BatchSize:    256,
		MemBudget:    device.GB,
		MicroBatches: 4,
		Seed:         7,
		Obs:          rec,
	}, train.PipelineConfig{Depth: 2, CacheBudget: 8 * device.MB})
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	tap := rec.Subscribe(0)
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-tap.Events():
			case <-stop:
				return
			}
		}
	}()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RunIteration(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	rec.Unsubscribe(tap)
	close(stop)
}

// BenchmarkServeRequest: the end-to-end online-serving request path —
// intake channel → batcher seal + admission charge → executor running the
// forward-only inference session → fan-out — at batch size 1, so ns/op is
// the uncoalesced per-request floor that the micro-batching rows of the
// serving experiment (`-run serving`) amortize across coalesced requests.
func BenchmarkServeRequest(b *testing.B) {
	st := fixtures(b)
	sess, err := train.NewInferenceSession(st.cora, train.Config{
		System: train.Buffalo,
		Model: gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: st.cora.FeatDim(), Hidden: 16, OutDim: st.cora.NumClasses, Seed: 1},
		Fanouts:   []int{5, 5},
		BatchSize: 256,
		MemBudget: device.GB,
		Seed:      7,
		Obs:       obs.NewRecorder(nil, obs.NewMetrics()),
	}, 0)
	if err != nil {
		b.Fatal(err)
	}
	defer sess.Close()
	srv, err := serve.NewServer(sess, serve.Config{BatchSize: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	ctx := context.Background()
	nodes := st.cora.Graph.NumNodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := srv.Infer(ctx, graph.NodeID(i%nodes)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBettyREG: REG construction, the dominant Betty phase Fig 11
// attributes 46.8% of end-to-end time to.
func BenchmarkBettyREG(b *testing.B) {
	st := fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if reg := betty.BuildREG(st.batch); reg.NumNodes() == 0 {
			b.Fatal("empty REG")
		}
	}
}
