package gnn

import (
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/nn"
	"buffalo/internal/sampling"
	"buffalo/internal/tensor"
)

// sageBenchCases are one micro-batch of the training workloads, run as the
// engine runs them: layer 0 reads a [nodes x inDim] feature table through the
// micro-batch's input list (Model.ForwardTable). The cora cases run each
// aggregator on tinySetup's random graph at cora's size: 2708 nodes, 64 seeds
// (batch 256 at K=4), fanouts 5/5, hidden 16, 7 classes; 256-wide inputs, or
// 64 for the LSTM as train-cora-lstm runs it. The arxiv case is
// train-arxiv-tight's: arxivMicroBatch, where the power-law frontier makes
// aggregation, not the GEMMs, most of the mean layer.
var sageBenchCases = []struct {
	name  string
	agg   Aggregator
	inDim int
	arxiv bool
}{{"mean", Mean, 256, false}, {"pool", Pool, 256, false}, {"lstm", LSTM, 64, false}, {"mean-arxiv", Mean, 128, true}}

// arxivMicroBatch is one micro-batch of train-arxiv-tight: datagen's
// ogbn-arxiv (clustered power law, 128 features, 40 classes), 128 seeds
// (batch 512 at K=4), fanouts 10/25, with the dataset's feature table (a view
// of its features). Built once: the benchmarks only read it, and every b.N
// escalation of every sub-benchmark would otherwise regenerate the dataset.
func arxivMicroBatch(b *testing.B) (*block.MicroBatch, *tensor.Matrix, []int32, int) {
	b.Helper()
	if arxivBench.mb != nil {
		return arxivBench.mb, arxivBench.table, arxivBench.labels, arxivBench.classes
	}
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	seeds, err := sampling.UniformSeeds(ds.Graph, 128, rng)
	if err != nil {
		b.Fatal(err)
	}
	batch, err := sampling.SampleBatch(ds.Graph, seeds, []int{10, 25}, rng)
	if err != nil {
		b.Fatal(err)
	}
	mb, err := block.Generate(batch, batch.Seeds)
	if err != nil {
		b.Fatal(err)
	}
	table := ds.FeatureTable(ds.FeatDim())
	labels := make([]int32, len(seeds))
	for i, v := range seeds {
		labels[i] = ds.Labels[v]
	}
	arxivBench.mb, arxivBench.table, arxivBench.labels, arxivBench.classes = mb, table, labels, ds.NumClasses
	return mb, table, labels, ds.NumClasses
}

var arxivBench struct {
	mb      *block.MicroBatch
	table   *tensor.Matrix
	labels  []int32
	classes int
}

func sageBenchSetup(b *testing.B, agg Aggregator, inDim int, arxiv bool) (*Model, *block.MicroBatch, *tensor.Matrix, []int32, *tensor.Arena) {
	b.Helper()
	classes := 7
	var mb *block.MicroBatch
	var table *tensor.Matrix
	var labels []int32
	if arxiv {
		mb, table, labels, classes = arxivMicroBatch(b)
	} else {
		const nodes = 2708
		_, mb, _, labels = tinySetup(b, 7, nodes, 64, classes, inDim, []int{5, 5})
		rng := rand.New(rand.NewSource(8))
		table = tensor.New(nodes, inDim)
		for i := range table.Data {
			table.Data[i] = rng.Float32() - 0.5
		}
	}
	m, err := New(Config{Arch: SAGE, Aggregator: agg, Layers: 2, InDim: inDim, Hidden: 16, OutDim: classes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arena := tensor.NewArena(tensor.NewPool())
	m.SetArena(arena)
	return m, mb, table, labels, arena
}

func BenchmarkSAGEForward(b *testing.B) {
	for _, c := range sageBenchCases {
		b.Run(c.name, func(b *testing.B) {
			m, mb, table, _, arena := sageBenchSetup(b, c.agg, c.inDim, c.arxiv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.ForwardTable(mb, table, nil); err != nil {
					b.Fatal(err)
				}
				arena.Reset()
			}
			b.ReportMetric(float64(len(mb.InputNodes()))*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkSAGEBackward times Model.Backward alone, as training calls it (no
// layer-0 input gradient); the forward that feeds it runs off the clock.
func BenchmarkSAGEBackward(b *testing.B) {
	for _, c := range sageBenchCases {
		b.Run(c.name, func(b *testing.B) {
			m, mb, table, labels, arena := sageBenchSetup(b, c.agg, c.inDim, c.arxiv)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arena.Reset()
				res, err := m.ForwardTable(mb, table, nil)
				if err != nil {
					b.Fatal(err)
				}
				_, dLogits, err := nn.CrossEntropy(res.Logits, labels, 1)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if _, err := m.Backward(res, dLogits); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(mb.InputNodes()))*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkMeanAggregate times the fused mean kernel alone on layer 0 of
// arxivMicroBatch — the block where train-arxiv-tight spends its aggregation
// time — in edges averaged per second and GB/s of neighbor rows read: /table
// reads the dataset's feature table through the composed index, as layer 0
// does; /gathered reads a copy of the micro-batch's input rows, as layer 0
// did while the engine staged one on the host.
func BenchmarkMeanAggregate(b *testing.B) {
	mb, table, _, _ := arxivMicroBatch(b)
	blk := mb.Blocks[0]
	dbs := bucketizeBlock(blk)
	gathered := tensor.New(blk.NumSrc(), table.Cols)
	for i, v := range mb.InputNodes() {
		copy(gathered.Row(i), table.Row(int(v)))
	}
	nbr := make([]int32, dbs[len(dbs)-1].degree)
	for _, c := range []struct {
		name string
		src  *tensor.Matrix
		idx  []int32
	}{{"table", table, mb.InputNodes()}, {"gathered", gathered, nil}} {
		b.Run(c.name, func(b *testing.B) {
			aggAll := tensor.New(blk.NumDst(), table.Cols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clear(aggAll.Data) // the kernel's contract: rows zero on entry, as the arena hands them out
				meanFused(aggAll, dbs, blk, c.src, c.idx, nbr)
			}
			edges := float64(blk.NumEdges()) * float64(b.N) / b.Elapsed().Seconds()
			b.ReportMetric(edges, "edges/s")
			b.ReportMetric(edges*float64(table.Cols)*4/1e9, "GB/s")
		})
	}
}
