package buffalo

// The iteration and serving benchmarks. The ObsDisabled/ObsEnabled and
// Pipelined/PipelinedTap pairs bound the observability tax. The warm
// allocation counts of the ObsDisabled, SequentialLSTM, Pipelined and
// ServeRequest configurations are tier-1 tests in internal/train
// (TestRunIterationWarmAllocs, TestServeRequestWarmAllocs), exact per
// iteration or request. Throughput and per-layer numbers are the bench/
// module's job (BENCHMARK.json); each paper artifact regenerates with
// `go run ./cmd/experiments -run <id>`.

import (
	"context"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/obs"
	"buffalo/internal/serve"
	"buffalo/internal/train"
)

// benchState caches the shared datasets across benchmarks.
type benchState struct {
	arxiv *datagen.Dataset
	cora  *datagen.Dataset
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
	benchCache = &benchState{arxiv: arxiv, cora: cora}
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
// 12 MB device — where the layer-0 GEMMs read the feature table through the
// row-indexed products and planning runs an inline K-search. The vector GEMMs
// never fan out (DESIGN.md §6), so on an AVX2 host this tracks the one-thread
// kernels; the row-parallel path runs only in portable builds.
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
// 2 MB — the one iteration that runs nn.LSTMCell.
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
