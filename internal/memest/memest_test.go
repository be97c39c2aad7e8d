package memest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
)

func arxivBatch(t testing.TB, seeds int, fanouts []int) (*datagen.Dataset, *sampling.Batch) {
	t.Helper()
	ds, err := datagen.Load("ogbn-arxiv", 3)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	sd, err := sampling.UniformSeeds(ds.Graph, seeds, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(ds.Graph, sd, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return ds, b
}

func TestProfileBatch(t *testing.T) {
	_, b := arxivBatch(t, 500, []int{10, 25})
	p := ProfileBatch(b, 0.25)
	if len(p.AvgDeg) != 2 || len(p.Frontier) != 3 {
		t.Fatalf("profile lengths: %+v", p)
	}
	if p.AvgDeg[0] <= 0 || p.AvgDeg[0] > 10 {
		t.Fatalf("hop0 avg degree %v outside (0,10]", p.AvgDeg[0])
	}
	if p.AvgDeg[1] <= 0 || p.AvgDeg[1] > 25 {
		t.Fatalf("hop1 avg degree %v outside (0,25]", p.AvgDeg[1])
	}
	if p.Frontier[0] != 500 {
		t.Fatalf("frontier0 = %v, want the 500 seeds", p.Frontier[0])
	}
	for h := 1; h < 3; h++ {
		if p.Frontier[h] < p.Frontier[h-1] {
			t.Fatalf("frontiers must not shrink (dst carry): %v", p.Frontier)
		}
	}
	if p.C != 0.25 {
		t.Fatal("C not propagated")
	}
}

func TestNewValidation(t *testing.T) {
	spec := ModelSpec{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2, InDim: 8, Hidden: 8, OutDim: 4}
	good := Profile{AvgDeg: []float64{3, 3}, Frontier: []float64{10, 40, 160}, C: 0.3}
	if _, err := New(spec, good); err != nil {
		t.Fatal(err)
	}
	if _, err := New(ModelSpec{Layers: 0}, good); err == nil {
		t.Error("want error for 0 layers")
	}
	if _, err := New(spec, Profile{AvgDeg: []float64{3}, C: 0.3}); err == nil {
		t.Error("want error for hop mismatch")
	}
	// C is defined on [0, 1): 0 is a graph without triangles.
	for _, c := range []float64{0, 0.5, math.Nextafter(1, 0)} {
		if _, err := New(spec, Profile{AvgDeg: []float64{3, 3}, Frontier: []float64{10, 40, 160}, C: c}); err != nil {
			t.Errorf("C = %v: %v", c, err)
		}
	}
	for _, c := range []float64{-0.1, 1, math.NaN()} {
		if _, err := New(spec, Profile{AvgDeg: []float64{3, 3}, C: c}); err == nil {
			t.Errorf("want error for C = %v", c)
		}
	}
	_, b := arxivBatch(t, 50, []int{3, 3})
	var est Estimator
	for _, c := range []float64{0, 0.5, math.Nextafter(1, 0)} {
		if err := NewInto(&est, spec, b, c); err != nil || est.Prof.C != c {
			t.Errorf("NewInto with C = %v: profile C %v, err %v", c, est.Prof.C, err)
		}
	}
	for _, c := range []float64{-0.1, 1, math.NaN()} {
		if err := NewInto(&est, spec, b, c); err == nil {
			t.Errorf("NewInto: want error for C = %v", c)
		}
	}
	// ClampC maps a sampled estimate into the range.
	for c, want := range map[float64]float64{-0.2: 0, 0: 0, 0.3: 0.3, 1: math.Nextafter(1, 0), 1.5: math.Nextafter(1, 0), math.NaN(): 0} {
		if got := ClampC(c); got != want {
			t.Errorf("ClampC(%v) = %v, want %v", c, got, want)
		}
		if _, err := New(spec, ProfileBatch(b, ClampC(c))); err != nil {
			t.Errorf("New(ProfileBatch(ClampC(%v))): %v", c, err)
		}
	}
}

func TestBucketMemMonotonic(t *testing.T) {
	spec := ModelSpec{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2, InDim: 16, Hidden: 16, OutDim: 4}
	prof := Profile{AvgDeg: []float64{5, 8}, Frontier: []float64{200, 1200, 10000}, C: 0.25}
	e, err := New(spec, prof)
	if err != nil {
		t.Fatal(err)
	}
	if e.BucketMem(0, 5) != 0 {
		t.Error("empty bucket must cost 0")
	}
	if !(e.BucketMem(100, 5) < e.BucketMem(200, 5)) {
		t.Error("memory must grow with volume")
	}
	if !(e.BucketMem(100, 2) < e.BucketMem(100, 9)) {
		t.Error("memory must grow with degree")
	}
}

func TestAggregatorCostOrdering(t *testing.T) {
	prof := Profile{AvgDeg: []float64{5, 8}, Frontier: []float64{200, 1200, 10000}, C: 0.25}
	cost := map[gnn.Aggregator]int64{}
	for _, agg := range []gnn.Aggregator{gnn.Mean, gnn.Pool, gnn.LSTM} {
		spec := ModelSpec{Arch: gnn.SAGE, Aggregator: agg, Layers: 2, InDim: 16, Hidden: 16, OutDim: 4}
		e, err := New(spec, prof)
		if err != nil {
			t.Fatal(err)
		}
		cost[agg] = e.BucketMem(100, 5)
	}
	if !(cost[gnn.LSTM] > cost[gnn.Pool] && cost[gnn.Pool] > cost[gnn.Mean]) {
		t.Fatalf("cost ordering wrong: %v", cost)
	}
}

// Inputs reports I: the group's distinct hop-0 neighbors that are not
// themselves outputs of the group.
func (a *GroupAcc) Inputs() int { return a.frontier - a.outputs }

// Hop1DegSum reports the exact sampled-degree sum of the group's hop-1
// frontier (outputs carried over plus the distinct inputs).
func (a *GroupAcc) Hop1DegSum() int64 { return a.degSum }

// rowIndex maps each destination of a hop to its row, from Dst alone.
func rowIndex(hop *sampling.HopAdj) map[graph.NodeID]int {
	m := make(map[graph.NodeID]int, len(hop.Dst))
	for i, v := range hop.Dst {
		m[v] = i
	}
	return m
}

// oracleGroupStats is the reference measurement the accumulator is checked
// against: one pass over the group's sampled hop-0 edges through Go maps it
// builds itself from Dst and Nbrs (nothing of the batch's positions), marking
// every output first and then counting the neighbors that are new — I
// (distinct hop-0 neighbors beyond the outputs themselves) and the exact
// sampled-degree sum of the group's hop-1 frontier.
func oracleGroupStats(b *sampling.Batch, nodes []graph.NodeID) (inputs int, hop1DegSum int64, err error) {
	inFrontier := make(map[graph.NodeID]bool, len(nodes)*2)
	hop0 := &b.Hops[0]
	row0 := rowIndex(hop0)
	var hop1 *sampling.HopAdj
	var row1 map[graph.NodeID]int
	if len(b.Hops) > 1 {
		hop1 = &b.Hops[1]
		row1 = rowIndex(hop1)
	}
	addDeg := func(v graph.NodeID) {
		if i, ok := row1[v]; ok {
			hop1DegSum += int64(len(hop1.Nbrs[i]))
		}
	}
	for _, v := range nodes {
		if !inFrontier[v] {
			inFrontier[v] = true
			addDeg(v)
		}
	}
	for _, v := range nodes {
		idx, ok := row0[v]
		if !ok {
			return 0, 0, fmt.Errorf("memest: node %d is not an output of the batch", v)
		}
		for _, u := range hop0.Nbrs[idx] {
			if !inFrontier[u] {
				inFrontier[u] = true
				inputs++
				addDeg(u)
			}
		}
	}
	return inputs, hop1DegSum, nil
}

func TestBucketInputs(t *testing.T) {
	_, b := arxivBatch(t, 200, []int{5, 5})
	e, err := New(ModelSpec{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2, InDim: 8, Hidden: 8, OutDim: 4}, ProfileBatch(b, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	bk := bucket.Bucketize(b)
	var acc GroupAcc
	for _, bu := range bk.Buckets {
		if err := e.BeginGroup(&acc, b); err != nil {
			t.Fatal(err)
		}
		if err := e.AddBucket(&acc, bu); err != nil {
			t.Fatal(err)
		}
		inputs := acc.Inputs()
		if inputs <= 0 {
			t.Fatalf("bucket %s: no inputs", bu.Label())
		}
		if inputs > bu.Volume()*bu.Degree {
			t.Fatalf("bucket %s: inputs %d exceed O*D=%d", bu.Label(), inputs, bu.Volume()*bu.Degree)
		}
		if want, _, err := oracleGroupStats(b, bu.Nodes); err != nil || inputs != want {
			t.Fatalf("bucket %s: inputs %d, oracle %d (%v)", bu.Label(), inputs, want, err)
		}
	}
	if err := e.BeginGroup(&acc, b); err != nil {
		t.Fatal(err)
	}
	if err := e.AddBucket(&acc, &bucket.Bucket{Degree: 1, Nodes: []int32{-5}, Rows: []int32{0}}); err == nil {
		t.Error("want error for non-output node")
	}
	// Rows are mandatory, and rows that do not name the node's own hop-0 row
	// are rejected too.
	seed := b.Seeds[0]
	if err := e.AddBucket(&acc, &bucket.Bucket{Degree: 1, Nodes: []int32{seed}}); err == nil {
		t.Error("want error for a bucket without rows")
	}
	if err := e.AddBucket(&acc, &bucket.Bucket{Degree: 1, Nodes: []int32{seed}, Rows: []int32{int32(len(b.Seeds))}}); err == nil {
		t.Error("want error for an out-of-range row")
	}
	if err := e.AddBucket(&acc, &bucket.Bucket{Degree: 1, Nodes: []int32{seed}, Rows: []int32{1}}); err == nil {
		t.Error("want error for a row that holds another node")
	}
}

// measureActual runs a real forward pass for the micro-batch of a node set
// and returns features+activation bytes — the ground truth of Table III.
func measureActual(t *testing.T, ds *datagen.Dataset, b *sampling.Batch, cfg gnn.Config, nodes []int32) int64 {
	t.Helper()
	mb, err := block.Generate(b, nodes)
	if err != nil {
		t.Fatal(err)
	}
	m, err := gnn.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ForwardTable(mb, ds.FeatureTable(cfg.InDim), nil)
	if err != nil {
		t.Fatal(err)
	}
	return res.ActivationBytes() + int64(len(mb.InputNodes()))*int64(cfg.InDim)*4
}

// TestEstimationAccuracy is the package-level version of Table III: the
// analytical estimate of the whole batch and of per-bucket groups must land
// within a modest band of the measured footprint.
func TestEstimationAccuracy(t *testing.T) {
	ds, b := arxivBatch(t, 600, []int{10, 25})
	for _, agg := range []gnn.Aggregator{gnn.Mean, gnn.LSTM} {
		cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: agg, Layers: 2,
			InDim: 64, Hidden: 64, OutDim: 16, Seed: 1}
		e, err := New(SpecFromConfig(cfg), ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
		if err != nil {
			t.Fatal(err)
		}
		est, err := e.BatchMem(b)
		if err != nil {
			t.Fatal(err)
		}
		actual := measureActual(t, ds, b, cfg, b.Seeds)
		errRate := math.Abs(float64(est)-float64(actual)) / float64(actual)
		t.Logf("%s: est=%d actual=%d err=%.1f%%", agg, est, actual, errRate*100)
		if errRate > 0.35 {
			t.Errorf("%s: estimation error %.1f%% too high (est %d vs actual %d)",
				agg, errRate*100, est, actual)
		}
	}
}

// Estimated group memory must be at most the linear sum of bucket estimates
// (R <= 1) and positive.
func TestGroupMemSubLinear(t *testing.T) {
	ds, b := arxivBatch(t, 500, []int{10, 25})
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2,
		InDim: 32, Hidden: 32, OutDim: 8, Seed: 1}
	e, err := New(SpecFromConfig(cfg), ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	bk := bucket.Bucketize(b)
	g := &bucket.Group{Buckets: bk.Buckets}
	grouped, err := e.GroupMem(b, g)
	if err != nil {
		t.Fatal(err)
	}
	var linear int64
	for _, bu := range bk.Buckets {
		linear += e.BucketMem(bu.Volume(), bu.Degree)
	}
	if grouped <= 0 {
		t.Fatal("group estimate must be positive")
	}
	if grouped > linear {
		t.Fatalf("redundancy-aware estimate %d exceeds linear sum %d", grouped, linear)
	}
}

// TestPartMemOfEveryOutputIsBatchMem: an arbitrary part is bucketed by
// sampled degree in ascending order, which for the whole output set is the
// batch's own bucketing, so the two estimates agree exactly. A node that is
// not an output is an error, not a price.
func TestPartMemOfEveryOutputIsBatchMem(t *testing.T) {
	for _, fanouts := range [][]int{{10, 25}, {5, 5}} {
		ds, b := arxivBatch(t, 400, fanouts)
		cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: 32, Hidden: 32, OutDim: 8, Seed: 1}
		e, err := New(SpecFromConfig(cfg), ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
		if err != nil {
			t.Fatal(err)
		}
		whole, err := e.BatchMem(b)
		if err != nil {
			t.Fatal(err)
		}
		part, err := e.PartMem(b, b.Seeds)
		if err != nil {
			t.Fatal(err)
		}
		if part != whole {
			t.Fatalf("fanouts %v: PartMem of every output %d, BatchMem %d", fanouts, part, whole)
		}
		if _, err := e.PartMem(b, []graph.NodeID{-1}); err == nil {
			t.Fatalf("fanouts %v: a node that is not an output was priced", fanouts)
		}
	}
}

func TestGroupMemErrorPaths(t *testing.T) {
	_, b := arxivBatch(t, 100, []int{5, 5})
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2, InDim: 8, Hidden: 8, OutDim: 4, Seed: 1}
	e, err := New(SpecFromConfig(cfg), ProfileBatch(b, 0.3))
	if err != nil {
		t.Fatal(err)
	}
	badGroup := &bucket.Group{Buckets: []*bucket.Bucket{{Degree: 3, Nodes: []int32{-1}, Rows: []int32{0}}}}
	if _, err := e.GroupMem(b, badGroup); err == nil {
		t.Error("want error for group containing non-output nodes")
	}

	// Malformed positions are an error where the estimator binds to the
	// batch — from GroupMem, BatchMem and BeginGroup alike — never a panic,
	// and a bind that failed is retried, not remembered.
	whole := &bucket.Group{Buckets: bucket.Bucketize(b).Buckets}
	want, err := e.GroupMem(b, whole)
	if err != nil {
		t.Fatal(err)
	}
	hop0 := &b.Hops[0]
	row := 0
	for len(hop0.NbrPos[row]) == 0 {
		row++
	}
	good := hop0.NbrPos[row][0]
	mustFail := func(what string) {
		t.Helper()
		var acc GroupAcc
		fresh, err := New(SpecFromConfig(cfg), ProfileBatch(b, 0.3)) // the profile reads positions too
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fresh.GroupMem(b, whole); err == nil {
			t.Errorf("%s: want error from GroupMem", what)
		}
		if _, err := fresh.BatchMem(b); err == nil {
			t.Errorf("%s: want error from BatchMem", what)
		}
		if err := fresh.BeginGroup(&acc, b); err == nil {
			t.Errorf("%s: want error from BeginGroup", what)
		}
		if err := NewInto(e, SpecFromConfig(cfg), b, 0.3); err != nil {
			t.Fatal(err)
		}
		if _, err := e.GroupMem(b, whole); err == nil {
			t.Errorf("%s: want error from a rebound estimator", what)
		}
	}
	for _, bad := range []int32{int32(len(b.Frontier(1))), -1, 1 << 30} {
		hop0.NbrPos[row][0] = bad
		mustFail(fmt.Sprintf("position %d", bad))
	}
	hop0.NbrPos[row][0] = good
	short := hop0.NbrPos[row]
	hop0.NbrPos[row] = short[:len(short)-1]
	mustFail("a row with fewer positions than neighbors")
	hop0.NbrPos[row] = short
	all := hop0.NbrPos
	hop0.NbrPos = nil
	mustFail("no positions at all")
	hop0.NbrPos = all
	if err := NewInto(e, SpecFromConfig(cfg), b, 0.3); err != nil {
		t.Fatal(err)
	}
	if got, err := e.GroupMem(b, whole); err != nil || got != want {
		t.Fatalf("restored batch: estimate %d (%v), want %d", got, err, want)
	}
}

// TestSubsetEstimationAccuracy checks the group estimator on micro-batch
// sized subsets — the case that matters for OOM avoidance (a micro-batch
// deduplicates far less than its parent batch).
func TestSubsetEstimationAccuracy(t *testing.T) {
	ds, b := arxivBatch(t, 1600, []int{10, 25})
	cfg := gnn.Config{Arch: gnn.SAGE, Aggregator: gnn.LSTM, Layers: 2,
		InDim: 64, Hidden: 64, OutDim: 16, Seed: 1}
	e, err := New(SpecFromConfig(cfg), ProfileBatch(b, ds.Graph.ApproxClusteringCoefficient(1, 2000)))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{2, 4, 8} {
		// Take every k-th bucket slice as a pseudo-group of ~1/k of nodes.
		n := len(b.Seeds) / k
		nodes := b.Seeds[:n]
		// Build a group matching those nodes' buckets.
		byDeg := map[int]*bucket.Bucket{}
		var g bucket.Group
		for _, v := range nodes {
			r, ok := b.Position(v)
			if !ok {
				t.Fatalf("seed %d has no position", v)
			}
			d := len(b.Hops[0].Nbrs[r])
			if byDeg[d] == nil {
				byDeg[d] = &bucket.Bucket{Degree: d}
				g.Buckets = append(g.Buckets, byDeg[d])
			}
			byDeg[d].Nodes = append(byDeg[d].Nodes, v)
			byDeg[d].Rows = append(byDeg[d].Rows, r)
		}
		est, err := e.GroupMem(b, &g)
		if err != nil {
			t.Fatal(err)
		}
		actual := measureActual(t, ds, b, cfg, nodes)
		errRate := math.Abs(float64(est)-float64(actual)) / float64(actual)
		t.Logf("k=%d: est=%d actual=%d err=%.1f%%", k, est, actual, errRate*100)
		if errRate > 0.20 {
			t.Errorf("k=%d: subset estimation error %.1f%% too high", k, errRate*100)
		}
	}
}

// smallGraphBatch samples a batch over a small graph from either datagen
// generator (model 0: clustered power law, 1: Watts-Strogatz), the seeds and
// fanouts drawn from rng.
func smallGraphBatch(t testing.TB, rng *rand.Rand, model, layers int) *sampling.Batch {
	t.Helper()
	spec := datagen.Spec{Name: "fuzz", Nodes: 150 + rng.Intn(250), FeatDim: 2, NumClasses: 2, Homophily: 0.5}
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
	seeds, err := sampling.UniformSeeds(ds.Graph, 20+rng.Intn(80), rng)
	if err != nil {
		t.Fatal(err)
	}
	fanouts := make([]int, layers)
	for i := range fanouts {
		fanouts[i] = 1 + rng.Intn(6)
	}
	b, err := sampling.SampleBatch(ds.Graph, seeds, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkNumbering holds the batch's one numbering: every frontier node's
// Position is its index there.
func checkNumbering(t testing.TB, b *sampling.Batch) {
	t.Helper()
	for h := 0; h <= b.Layers(); h++ {
		for p, v := range b.Frontier(h) {
			if got, ok := b.Position(v); !ok || int(got) != p {
				t.Fatalf("Position(Frontier(%d)[%d] = %d) = %d, %v", h, p, v, got, ok)
			}
		}
	}
}

// checkAccumulator adds a random subset of b's buckets (some of them split)
// to one accumulator in a random order and holds every prefix against the
// oracle and against a one-shot GroupMem. It reports how many outputs
// arrived after the group already held them as inputs — the demotion case.
func checkAccumulator(t testing.TB, rng *rand.Rand, b *sampling.Batch, spec ModelSpec) (demoted int) {
	t.Helper()
	checkNumbering(t, b)
	e, err := New(spec, ProfileBatch(b, 0.05+0.5*rng.Float64()))
	if err != nil {
		t.Fatal(err)
	}
	e.ForwardOnly = rng.Intn(4) == 0
	var pool []bucket.Bucket
	for _, bu := range bucket.Bucketize(b).Buckets {
		pool = bucket.AppendSplit(nil, pool, bu, 1+rng.Intn(4), b.Graph)
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	pool = pool[:1+rng.Intn(len(pool))]

	var acc GroupAcc
	var group bucket.Group
	var nodes []graph.NodeID
	seen := map[graph.NodeID]bool{} // outputs and neighbors added so far
	if err := e.BeginGroup(&acc, b); err != nil {
		t.Fatal(err)
	}
	for i := range pool {
		bu := &pool[i]
		for _, v := range bu.Nodes {
			if seen[v] {
				demoted++
			}
		}
		for j, v := range bu.Nodes {
			seen[v] = true
			for _, u := range b.Hops[0].Nbrs[bu.Rows[j]] {
				seen[u] = true
			}
		}
		if err := e.AddBucket(&acc, bu); err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, bu.Nodes...)
		group.Buckets = append(group.Buckets, bu)
		inputs, degSum, err := oracleGroupStats(b, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if acc.outputs != len(nodes) || acc.Inputs() != inputs || acc.Hop1DegSum() != degSum {
			t.Fatalf("after %d buckets: accumulator (outputs %d, inputs %d, degSum %d), oracle (%d, %d, %d)",
				i+1, acc.outputs, acc.Inputs(), acc.Hop1DegSum(), len(nodes), inputs, degSum)
		}
		oneShot, err := e.GroupMem(b, &group)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.AccMem(&acc); got != oneShot {
			t.Fatalf("after %d buckets: incremental estimate %d, one-shot %d", i+1, got, oneShot)
		}
	}
	return demoted
}

func fuzzSpec(rng *rand.Rand, layers int) ModelSpec {
	aggs := []gnn.Aggregator{gnn.Mean, gnn.Pool, gnn.LSTM}
	return ModelSpec{Arch: gnn.SAGE, Aggregator: aggs[rng.Intn(len(aggs))], Layers: layers,
		InDim: 4 + rng.Intn(12), Hidden: 4 + rng.Intn(12), OutDim: 3}
}

// FuzzGroupAccumulator: on graphs from both datagen generators, for 1- to
// 3-layer models, any subset of (split) buckets added in any order leaves
// the accumulator with exactly the oracle's (inputs, hop1DegSum), and its
// estimate equals the one-shot estimate of the same buckets.
func FuzzGroupAccumulator(f *testing.F) {
	for seed := int64(0); seed < 12; seed++ {
		f.Add(seed, uint8(seed%2), uint8(seed%3))
	}
	f.Fuzz(func(t *testing.T, seed int64, model, depth uint8) {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + int(depth%3)
		b := smallGraphBatch(t, rng, int(model%2), layers)
		checkAccumulator(t, rng, b, fuzzSpec(rng, layers))
	})
}

// TestGroupAccumulatorMatchesOracle is the seeded form of the fuzz target,
// wide enough that the interesting placements are known to occur: an output
// added after the group already counted it as an input, on both generators
// and with and without a hop-1 adjacency.
func TestGroupAccumulatorMatchesOracle(t *testing.T) {
	for model := 0; model < 2; model++ {
		for layers := 1; layers <= 3; layers++ {
			demoted := 0
			for seed := int64(0); seed < 25; seed++ {
				rng := rand.New(rand.NewSource(1000*int64(model) + 100*int64(layers) + seed))
				b := smallGraphBatch(t, rng, model, layers)
				demoted += checkAccumulator(t, rng, b, fuzzSpec(rng, layers))
			}
			if demoted == 0 {
				t.Errorf("model %d, %d layers: no output was ever an earlier input; the demotion case went untested", model, layers)
			}
		}
	}
}

// handBatch builds a batch by hand so the adjacency can hold what the
// sampler never produces: a duplicate neighbor and a degree-0 output. With
// hole set, the hop-1 adjacency does not list hop-0 neighbor 21.
func handBatch(layers int, hole bool) *sampling.Batch {
	dst0 := []graph.NodeID{10, 11, 12, 13}
	b := &sampling.Batch{
		Seeds:   dst0,
		Fanouts: []int{3, 2}[:layers],
		Hops: []sampling.HopAdj{{
			Dst:  dst0,
			Nbrs: [][]graph.NodeID{{11, 20, 20}, {}, {10, 21}, {20}},
		}},
	}
	if layers == 2 {
		b.Hops = append(b.Hops, sampling.HopAdj{
			Dst:  []graph.NodeID{10, 11, 12, 13, 20, 21},
			Nbrs: [][]graph.NodeID{{11, 20}, {}, {30, 31}, {20}, {10, 32}, {}},
		})
		if hole {
			b.Hops[1].Dst, b.Hops[1].Nbrs = b.Hops[1].Dst[:5], b.Hops[1].Nbrs[:5]
		}
	}
	return b
}

func TestGroupAccumulatorHandBuiltBatch(t *testing.T) {
	// A hop-1 adjacency that misses a hop-0 neighbor cannot be numbered, and
	// a batch that was not numbered is an error where the estimator binds.
	holed := handBatch(2, true)
	if err := holed.AssignPositions(); err == nil {
		t.Error("want AssignPositions to reject a hop-1 adjacency that misses a hop-0 neighbor")
	}
	for layers := 1; layers <= 2; layers++ {
		b := handBatch(layers, false)
		spec := ModelSpec{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: layers, InDim: 4, Hidden: 4, OutDim: 2}
		var acc GroupAcc
		if err := new(Estimator).BeginGroup(&acc, b); err == nil {
			t.Fatalf("%d layers: want error for a hand-built batch without positions", layers)
		}
		if err := b.AssignPositions(); err != nil {
			t.Fatal(err)
		}
		checkNumbering(t, b)
		e, err := New(spec, ProfileBatch(b, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		byDegree := map[int]*bucket.Bucket{}
		for _, bu := range bucket.Bucketize(b).Buckets {
			byDegree[bu.Degree] = bu
		}
		if len(byDegree) != 4 {
			t.Fatalf("want one bucket per output, got %d", len(byDegree))
		}
		// Degree order 1, 2, 3, 0: node 10 is first an input of 12's bucket
		// and then an output; 20 arrives three times; 11 has no neighbors.
		var nodes []graph.NodeID
		if err := e.BeginGroup(&acc, b); err != nil {
			t.Fatal(err)
		}
		for _, d := range []int{1, 2, 3, 0} {
			if err := e.AddBucket(&acc, byDegree[d]); err != nil {
				t.Fatal(err)
			}
			nodes = append(nodes, byDegree[d].Nodes...)
			inputs, degSum, err := oracleGroupStats(b, nodes)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Inputs() != inputs || acc.Hop1DegSum() != degSum {
				t.Fatalf("%d layers, after degree %d: accumulator (%d, %d), oracle (%d, %d)",
					layers, d, acc.Inputs(), acc.Hop1DegSum(), inputs, degSum)
			}
		}
		if acc.outputs != 4 || acc.Inputs() != 2 { // inputs: 20 and 21
			t.Fatalf("%d layers: outputs %d inputs %d, want 4 and 2", layers, acc.outputs, acc.Inputs())
		}
		if want := int64([]int{0, 7}[layers-1]); acc.Hop1DegSum() != want {
			t.Fatalf("%d layers: hop-1 degree sum %d, want %d", layers, acc.Hop1DegSum(), want)
		}
	}
}

// TestNewIntoRebuildsIndex: a recycled estimator and a recycled batch give
// the same estimates as fresh ones, batch after batch.
func TestNewIntoRebuildsIndex(t *testing.T) {
	ds, _ := arxivBatch(t, 10, []int{5, 5})
	spec := ModelSpec{Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2, InDim: 8, Hidden: 8, OutDim: 4}
	var est Estimator
	var batch sampling.Batch
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 4; i++ {
		seeds, err := sampling.UniformSeeds(ds.Graph, 100+50*i, rng)
		if err != nil {
			t.Fatal(err)
		}
		if err := sampling.SampleBatchInto(&batch, ds.Graph, seeds, []int{5, 5}, rng); err != nil {
			t.Fatal(err)
		}
		if err := NewInto(&est, spec, &batch, 0.3); err != nil {
			t.Fatal(err)
		}
		got, err := est.BatchMem(&batch)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := New(spec, ProfileBatch(&batch, 0.3))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.BatchMem(&batch)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("batch %d: recycled estimator %d, fresh %d", i, got, want)
		}
	}
}
