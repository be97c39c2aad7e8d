package graph_test

import (
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
)

// BenchmarkLocalityOrder times the once-per-graph locality order on the
// generated datasets the scheduler splits buckets of.
func BenchmarkLocalityOrder(b *testing.B) {
	for _, name := range []string{"cora", "ogbn-arxiv", "ogbn-products"} {
		ds, err := datagen.Load(name, 3)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				graph.ComputeLocality(ds.Graph)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}

// clusteringSink keeps the benchmarked estimate live.
var clusteringSink float64

// BenchmarkApproxClustering times the 2,000-sample clustering estimate every
// session's engine takes of its graph (memest's C).
func BenchmarkApproxClustering(b *testing.B) {
	for _, name := range []string{"reddit", "ogbn-arxiv", "ogbn-products", "ogbn-papers"} {
		ds, err := datagen.Load(name, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				clusteringSink = ds.Graph.ApproxClusteringCoefficient(7, 2000)
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
		})
	}
}
