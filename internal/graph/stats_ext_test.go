package graph_test

import (
	"math"
	"math/rand"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/stamp"
)

// checkAgainstPairScan holds the stamped count to the pair-scan oracle on
// the given nodes, bit for bit, and returns the oracle's sum over them.
func checkAgainstPairScan(t *testing.T, name string, g *graph.Graph, nodes []graph.NodeID, marks *stamp.Table) float64 {
	t.Helper()
	total := 0.0
	for _, v := range nodes {
		want := graph.PairScanClustering(g, v)
		total += want
		if got := graph.LocalClustering(g, v, marks); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s node %d (degree %d): C = %v, pair scan %v", name, v, g.Degree(v), got, want)
		}
	}
	return total
}

// TestClusteringMatchesPairScanOnGenerators holds every node of small graphs
// from both generators, hubs and rewired rings included, to the oracle.
func TestClusteringMatchesPairScanOnGenerators(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var marks stamp.Table
	for trial := 0; trial < 40; trial++ {
		spec := datagen.Spec{Name: "oracle", Nodes: 64 + rng.Intn(400), FeatDim: 1, NumClasses: 2}
		if trial%2 == 0 {
			spec.Model, spec.KMin, spec.Alpha, spec.Locality = datagen.ClusteredPowerLaw, 1+rng.Intn(8), 2.1+rng.Float64(), 0.5+4*rng.Float64()
		} else {
			spec.Model, spec.K, spec.Rewire = datagen.WattsStrogatz, 2*(1+rng.Intn(5)), rng.Float64()
		}
		ds, err := datagen.Generate(spec, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		nodes := make([]graph.NodeID, g.NumNodes())
		for v := range nodes {
			nodes[v] = graph.NodeID(v)
		}
		total := checkAgainstPairScan(t, spec.Name, g, nodes, &marks)
		if got, want := g.ClusteringCoefficient(), total/float64(len(nodes)); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d: mean C = %v, pair scan %v", trial, got, want)
		}
	}
}

// TestApproxClusteringMatchesPairScanOnRegistry holds the 2,000 nodes
// ApproxClusteringCoefficient samples on every registry dataset to the
// oracle, and the estimate to the oracle's mean over them.
func TestApproxClusteringMatchesPairScanOnRegistry(t *testing.T) {
	const seed, samples = 3, 2000
	var marks stamp.Table
	for _, name := range datagen.Names() {
		ds, err := datagen.Load(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		g := ds.Graph
		rng := rand.New(rand.NewSource(seed))
		nodes := make([]graph.NodeID, samples)
		for i := range nodes {
			nodes[i] = graph.NodeID(rng.Intn(g.NumNodes()))
		}
		total := checkAgainstPairScan(t, name, g, nodes, &marks)
		if got, want := g.ApproxClusteringCoefficient(seed, samples), total/samples; math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: estimate %v, pair scan %v", name, got, want)
		}
	}
}
