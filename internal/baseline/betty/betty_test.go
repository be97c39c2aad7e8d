package betty

import (
	"math/rand"
	"reflect"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/partition"
	"buffalo/internal/sampling"
)

func setup(t testing.TB, seeds int) (*sampling.Batch, *memest.Estimator) {
	t.Helper()
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	sd, err := sampling.UniformSeeds(ds.Graph, seeds, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, sd, []int{10, 25}, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2,
		InDim: 64, Hidden: 64, OutDim: 16, Seed: 1}
	est, err := memest.New(memest.SpecFromConfig(cfg),
		memest.ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	return b, est
}

func TestBuildREG(t *testing.T) {
	b, _ := setup(t, 400)
	reg := BuildREG(b)
	if reg.NumNodes() != len(b.Seeds) {
		t.Fatalf("REG nodes = %d, want %d", reg.NumNodes(), len(b.Seeds))
	}
	// Shared 1-hop neighborhoods exist on a clustered graph: the REG must
	// have edges, and weights must be positive.
	edges := 0
	for v := range reg.Adj {
		for _, e := range reg.Adj[v] {
			if e.Weight < 1 {
				t.Fatal("non-positive REG edge weight")
			}
			edges++
		}
	}
	if edges == 0 {
		t.Fatal("REG has no edges on a clustered graph")
	}
}

func TestREGWeightsCountSharedNeighbors(t *testing.T) {
	// Hand-built batch: two seeds sharing exactly two sampled neighbors.
	g, err := graph.FromEdges(6,
		[]graph.NodeID{2, 3, 2, 3, 4, 5},
		[]graph.NodeID{0, 0, 1, 1, 0, 1}, true)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b, err := sampling.SampleBatch(g, []graph.NodeID{0, 1}, []int{10}, rng)
	if err != nil {
		t.Fatal(err)
	}
	reg := BuildREG(b)
	// Seeds 0 and 1 share sampled neighbors {2, 3} (fanout above degree, so
	// all neighbors kept): REG weight must be 2.
	var w int64
	for _, e := range reg.Adj[0] {
		if e.To == 1 {
			w = e.Weight
		}
	}
	if w != 2 {
		t.Fatalf("REG weight = %d, want 2", w)
	}
}

func TestPartitionValid(t *testing.T) {
	b, _ := setup(t, 500)
	plan, err := Partition(b, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 4 {
		t.Fatalf("K = %d", plan.K)
	}
	seen := map[graph.NodeID]bool{}
	total := 0
	for _, p := range plan.Parts {
		for _, v := range p {
			if seen[v] {
				t.Fatalf("node %d twice", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != len(b.Seeds) {
		t.Fatalf("parts cover %d, want %d", total, len(b.Seeds))
	}
}

// TestOneREGServesEveryK: the engine's K-search builds the REG once and
// partitions it at every K; each K's parts must be those Partition returns
// from a fresh REG.
func TestOneREGServesEveryK(t *testing.T) {
	b, _ := setup(t, 200)
	reg := BuildREG(b)
	for k := 1; k <= len(b.Seeds); k += 13 {
		parts, err := partition.Parts(b, reg, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Partition(b, k, 7)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(parts, fresh.Parts) {
			t.Fatalf("k %d: partitioning a reused REG differs from a fresh one", k)
		}
	}
}

func TestPartitionErrors(t *testing.T) {
	b, _ := setup(t, 50)
	if _, err := Partition(b, 0, 1); err == nil {
		t.Error("want error for k=0")
	}
	if _, err := Partition(b, 51, 1); err == nil {
		t.Error("want error for k > seeds")
	}
}

func TestEstimatePartLinear(t *testing.T) {
	b, est := setup(t, 300)
	whole := EstimatePart(b, est, b.Seeds)
	half1 := EstimatePart(b, est, b.Seeds[:150])
	half2 := EstimatePart(b, est, b.Seeds[150:])
	// Betty's model has no redundancy discount: halves sum to at least the
	// whole, with only the batch-frontier cap (which bounds every bucket's
	// growth) allowed to open a small sub-additive gap.
	if half1+half2 < whole {
		t.Fatalf("linear estimate super-additive: %d vs %d+%d", whole, half1, half2)
	}
	if d := half1 + half2 - whole; d > whole/20 {
		t.Fatalf("linear estimate gap too large: %d vs %d+%d", whole, half1, half2)
	}
	if EstimatePart(b, est, nil) != 0 {
		t.Fatal("empty part must cost 0")
	}
}

// Betty must be a pure function of (batch, k, seed): the REG's edges reach
// METIS in position order, not in a map's.
func TestPartitionDeterministic(t *testing.T) {
	for _, c := range []struct {
		dataset string
		seeds   int
		fanouts []int
		k       int
	}{
		{"cora", 256, []int{10, 25}, 4},
		{"ogbn-arxiv", 1024, []int{10, 25}, 8},
	} {
		ds, err := datagen.Load(c.dataset, 3)
		if err != nil {
			t.Fatal(err)
		}
		b := &sampling.Batch{}
		if err := sampling.NewStream(ds.Graph, c.seeds, c.fanouts, 5).NextInto(b); err != nil {
			t.Fatal(err)
		}
		first, err := Partition(b, c.k, 9)
		if err != nil {
			t.Fatal(err)
		}
		for run := 1; run < 5; run++ {
			again, err := Partition(b, c.k, 9)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(again.Parts, first.Parts) {
				t.Fatalf("%s: run %d partitions the same batch differently", c.dataset, run)
			}
		}
	}
}

// TestPartitionUpToOnePartPerOutput: Betty partitions at every K up to the
// output count — the engine's K-search walks that far when nothing fits.
// The REG's uneven bisections leave some sides with fewer outputs than
// parts (on this batch from K = 122); those parts stay empty and are
// dropped, and every output still lands in exactly one part.
func TestPartitionUpToOnePartPerOutput(t *testing.T) {
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	b := &sampling.Batch{}
	if err := sampling.NewStream(ds.Graph, 128, []int{10, 25}, 5).NextInto(b); err != nil {
		t.Fatal(err)
	}
	for k := 1; k <= len(b.Seeds); k++ {
		plan, err := Partition(b, k, 7)
		if err != nil {
			t.Fatalf("k %d: %v", k, err)
		}
		seen := 0
		for _, p := range plan.Parts {
			if len(p) == 0 {
				t.Fatalf("k %d: empty part kept", k)
			}
			seen += len(p)
		}
		if seen != len(b.Seeds) || plan.K > k {
			t.Fatalf("k %d: %d parts cover %d of %d outputs", k, plan.K, seen, len(b.Seeds))
		}
	}
}
