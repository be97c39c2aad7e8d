package block

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"buffalo/internal/datagen"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

// datagenBatch refills b from a random graph of the given datagen model.
func datagenBatch(t testing.TB, b *sampling.Batch, rng *rand.Rand, model, nodes, seeds int, fanouts []int) {
	t.Helper()
	spec := datagen.Spec{Name: "gen", Nodes: nodes, FeatDim: 1, NumClasses: 2, Homophily: 0.5}
	if model == 0 {
		spec.Model = datagen.ClusteredPowerLaw
		spec.KMin, spec.Alpha, spec.Locality = 1+rng.Intn(3), 2.2, 0.5+2*rng.Float64()
	} else {
		spec.Model = datagen.WattsStrogatz
		spec.K, spec.Rewire = 2+2*rng.Intn(3), 0.4*rng.Float64()
	}
	ds, err := datagen.Generate(spec, rng.Int63())
	if err != nil {
		t.Fatal(err)
	}
	s, err := sampling.UniformSeeds(ds.Graph, seeds, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := sampling.SampleBatchInto(b, ds.Graph, s, fanouts, rng); err != nil {
		t.Fatal(err)
	}
}

// checkPositions holds what GenerateInto builds on, on every hop of b:
// NbrPos's two invariants and Position(Frontier(h)[p]) == p.
func checkPositions(t testing.TB, b *sampling.Batch) {
	t.Helper()
	for h := 0; h <= b.Layers(); h++ {
		for p, v := range b.Frontier(h) {
			if got, ok := b.Position(v); !ok || int(got) != p {
				t.Fatalf("Position(Frontier(%d)[%d] = %d) = %d, %v", h, p, v, got, ok)
			}
		}
	}
	for h := range b.Hops {
		hop, next := &b.Hops[h], b.Frontier(h+1)
		if len(next) < len(hop.Dst) {
			t.Fatalf("hop %d: next frontier shorter than Dst", h)
		}
		for i, v := range hop.Dst {
			if next[i] != v {
				t.Fatalf("hop %d: Frontier(%d)[%d] = %d, Dst[%d] = %d", h, h+1, i, next[i], i, v)
			}
			if len(hop.NbrPos[i]) != len(hop.Nbrs[i]) {
				t.Fatalf("hop %d row %d: %d positions for %d neighbors", h, i, len(hop.NbrPos[i]), len(hop.Nbrs[i]))
			}
			for j, u := range hop.Nbrs[i] {
				if q := hop.NbrPos[i][j]; q < 0 || int(q) >= len(next) || next[q] != u {
					t.Fatalf("hop %d row %d: NbrPos[%d] = %d does not name neighbor %d", h, i, j, q, u)
				}
			}
		}
	}
}

// checkAgainstNaive holds got against GenerateNaive field for field and
// checks the inter-block frontier sharing.
func checkAgainstNaive(t testing.TB, b *sampling.Batch, outputs []graph.NodeID, got *MicroBatch) {
	t.Helper()
	want, err := GenerateNaive(b, outputs)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.Outputs, want.Outputs) {
		t.Fatalf("outputs differ from naive")
	}
	assertEqualMicroBatches(t, got, want)
	for l, blk := range got.Blocks {
		if !slices.Equal(blk.Dst, want.Blocks[l].Dst) {
			t.Fatalf("layer %d: Dst differs from naive", l)
		}
		if l > 0 && !slices.Equal(blk.Src, got.Blocks[l-1].Dst) {
			t.Fatalf("Blocks[%d].Src != Blocks[%d].Dst", l, l-1)
		}
	}
}

// One batch and one scratch serve the whole fuzz corpus, so every input also
// tests recycling across graphs, depths and sizes.
var (
	fuzzBatch   sampling.Batch
	fuzzScratch GenScratch
)

// FuzzGenerateInto: on a random graph from either datagen generator, 1-3
// layers, random fanouts and a random non-empty subset of the seeds,
// GenerateInto equals GenerateNaive and the sampler's positions hold their
// invariants.
func FuzzGenerateInto(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%2), uint8(seed%3), uint16(40+37*seed))
	}
	f.Fuzz(func(t *testing.T, seed int64, model, depth uint8, nodes uint16) {
		rng := rand.New(rand.NewSource(seed))
		n := 16 + int(nodes%600)
		fanouts := make([]int, 1+int(depth%3))
		for i := range fanouts {
			fanouts[i] = 1 + rng.Intn(6)
		}
		datagenBatch(t, &fuzzBatch, rng, int(model%2), n, 1+rng.Intn(n/2), fanouts)
		checkPositions(t, &fuzzBatch)
		var outputs []graph.NodeID
		for _, s := range fuzzBatch.Seeds {
			if rng.Intn(3) > 0 {
				outputs = append(outputs, s)
			}
		}
		if len(outputs) == 0 {
			outputs = append(outputs, fuzzBatch.Seeds[rng.Intn(len(fuzzBatch.Seeds))])
		}
		rng.Shuffle(len(outputs), func(i, j int) { outputs[i], outputs[j] = outputs[j], outputs[i] })
		mb, err := GenerateInto(&fuzzScratch, &fuzzBatch, outputs, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstNaive(t, &fuzzBatch, outputs, mb)
	})
}

// A scratch recycled across batches of different size and different graphs
// must never read a stamp an earlier batch left, including across the epoch
// wrap-around: alternate a large and a small batch through one scratch with
// the epoch parked just below the wrap.
func TestGenerateIntoStaleScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var large, small sampling.Batch
	datagenBatch(t, &large, rng, 0, 900, 300, []int{5, 4})
	datagenBatch(t, &small, rng, 1, 60, 9, []int{2, 2, 3})
	var sc GenScratch
	sc.local.Epoch = math.MaxUint32 - 1
	for round := 0; round < 6; round++ {
		for _, b := range []*sampling.Batch{&large, &small} {
			outputs := b.Seeds[round%3:]
			mb, err := GenerateInto(&sc, b, outputs, nil)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstNaive(t, b, outputs, mb)
		}
	}
	if sc.local.Epoch > 100 {
		t.Fatalf("epoch %d: the rounds should have crossed the wrap-around", sc.local.Epoch)
	}
}

// arxivBatch samples the plan-arxiv-sweep shape: 1024 seeds of the
// ogbn-arxiv graph at fanouts 10, 25.
func arxivBatch(t testing.TB) *sampling.Batch {
	t.Helper()
	ds, err := datagen.Load("ogbn-arxiv", 7)
	if err != nil {
		t.Fatal(err)
	}
	b := &sampling.Batch{}
	if err := sampling.NewStream(ds.Graph, 1024, []int{10, 25}, 7).NextInto(b); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestGenerateIntoWarmZeroAllocs(t *testing.T) {
	b := arxivBatch(t)
	var sc GenScratch
	if _, err := GenerateInto(&sc, b, b.Seeds, nil); err != nil {
		t.Fatal(err)
	}
	half := b.Seeds[:len(b.Seeds)/2]
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := GenerateInto(&sc, b, b.Seeds, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := GenerateInto(&sc, b, half, nil); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm GenerateInto allocates %v times per run, want 0", allocs)
	}
}

func BenchmarkGenerateIntoArxiv(b *testing.B) {
	batch := arxivBatch(b)
	var sc GenScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GenerateInto(&sc, batch, batch.Seeds, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sc.mb.Blocks[0].NumEdges()+sc.mb.Blocks[1].NumEdges())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
}
