package gnn

import (
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/nn"
	"buffalo/internal/tensor"
)

// sageBenchCases are one micro-batch of the cora training workloads per
// aggregator, on tinySetup's random graph at cora's size: 2708 nodes, 64 seeds
// (batch 256 at K=4), fanouts 5/5, hidden 16, 7 classes; 256-wide inputs, or
// 64 for the LSTM as train-cora-lstm runs it.
var sageBenchCases = []struct {
	agg   Aggregator
	inDim int
}{{Mean, 256}, {Pool, 256}, {LSTM, 64}}

func sageBenchSetup(b *testing.B, agg Aggregator, inDim int) (*Model, *block.MicroBatch, *tensor.Matrix, []int32, *tensor.Arena) {
	b.Helper()
	const classes = 7
	_, mb, features, labels := tinySetup(b, 7, 2708, 64, classes, inDim, []int{5, 5})
	m, err := New(Config{Arch: SAGE, Aggregator: agg, Layers: 2, InDim: inDim, Hidden: 16, OutDim: classes, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	arena := tensor.NewArena(tensor.NewPool())
	m.SetArena(arena)
	return m, mb, features, labels, arena
}

func BenchmarkSAGEForward(b *testing.B) {
	for _, c := range sageBenchCases {
		b.Run(string(c.agg), func(b *testing.B) {
			m, mb, features, _, arena := sageBenchSetup(b, c.agg, c.inDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Forward(mb, features); err != nil {
					b.Fatal(err)
				}
				arena.Reset()
			}
			b.ReportMetric(float64(features.Rows)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}

// BenchmarkSAGEBackward times Model.Backward alone, as training calls it (no
// layer-0 input gradient); the forward that feeds it runs off the clock.
func BenchmarkSAGEBackward(b *testing.B) {
	for _, c := range sageBenchCases {
		b.Run(string(c.agg), func(b *testing.B) {
			m, mb, features, labels, arena := sageBenchSetup(b, c.agg, c.inDim)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				arena.Reset()
				res, err := m.Forward(mb, features)
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
			b.ReportMetric(float64(features.Rows)*float64(b.N)/b.Elapsed().Seconds(), "nodes/s")
		})
	}
}
