package train

import (
	"errors"
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
)

// loaded memoizes loadData: every test of the package shares one copy of each
// dataset, which none may write. TestMain holds them to that.
var loaded struct {
	sync.Mutex
	m map[string]*datagen.Dataset
}

func loadData(t testing.TB, name string) *datagen.Dataset {
	t.Helper()
	loaded.Lock()
	defer loaded.Unlock()
	if ds := loaded.m[name]; ds != nil {
		return ds
	}
	ds, err := datagen.Load(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.m == nil {
		loaded.m = map[string]*datagen.Dataset{}
	}
	loaded.m[name] = ds
	return ds
}

// TestMain runs the package's tests, then regenerates every dataset loadData
// shared and fails the run if a test wrote to its copy: the graph, the
// features or the labels.
func TestMain(m *testing.M) {
	code := m.Run()
	for name, ds := range loaded.m {
		fresh, err := datagen.Load(name, 3)
		if err == nil && !sameDataset(ds, fresh) {
			err = fmt.Errorf("a test wrote to the shared %s dataset", name)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "train:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// sameDataset reports whether a and b hold the same graph, feature bits and
// labels.
func sameDataset(a, b *datagen.Dataset) bool {
	if a.NumClasses != b.NumClasses || !slices.Equal(a.Labels, b.Labels) ||
		featureHash(a.Features) != featureHash(b.Features) || a.Graph.NumNodes() != b.Graph.NumNodes() {
		return false
	}
	for v := 0; v < a.Graph.NumNodes(); v++ {
		if !slices.Equal(a.Graph.Neighbors(graph.NodeID(v)), b.Graph.Neighbors(graph.NodeID(v))) {
			return false
		}
	}
	return true
}

func baseConfig(ds *datagen.Dataset, sys System) Config {
	return Config{
		System: sys,
		Model: gnn.Config{
			Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: ds.FeatDim(), Hidden: 32, OutDim: ds.NumClasses, Seed: 1,
		},
		Fanouts:   []int{10, 25},
		BatchSize: 256,
		MemBudget: 2 * device.GB,
		Seed:      7,
	}
}

func TestConfigValidate(t *testing.T) {
	ds := loadData(t, "cora")
	good := baseConfig(ds, Buffalo)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.System = "tensorflow"
	if err := bad.Validate(); err == nil {
		t.Error("want error for unknown system")
	}
	bad = good
	bad.Fanouts = []int{10}
	if err := bad.Validate(); err == nil {
		t.Error("want error for fanout/layer mismatch")
	}
	bad = good
	bad.BatchSize = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero batch")
	}
	bad = good
	bad.MemBudget = 0
	if err := bad.Validate(); err == nil {
		t.Error("want error for zero budget")
	}
}

func TestNewSessionErrors(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, DGL)
	cfg.Model.InDim = ds.FeatDim() + 1
	if _, err := NewSession(ds, cfg); err == nil {
		t.Error("want error for InDim above dataset dim")
	}
	cfg = baseConfig(ds, DGL)
	cfg.Model.OutDim = 2 // cora has 7 classes
	if _, err := NewSession(ds, cfg); err == nil {
		t.Error("want error for OutDim below classes")
	}
	cfg = baseConfig(ds, DGL)
	cfg.MemBudget = 10 // model cannot fit
	if _, err := NewSession(ds, cfg); err == nil {
		t.Error("want OOM for tiny budget")
	}
}

func TestFullBatchIteration(t *testing.T) {
	ds := loadData(t, "cora")
	for _, sys := range []System{DGL, PyG} {
		s, err := NewSession(ds, baseConfig(ds, sys))
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SampleBatch()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunIterationOn(b)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.K != 1 {
			t.Fatalf("%s: K = %d, want 1", sys, res.K)
		}
		if res.Loss <= 0 || math.IsNaN(float64(res.Loss)) {
			t.Fatalf("%s: loss = %v", sys, res.Loss)
		}
		if res.Peak <= 0 {
			t.Fatalf("%s: no peak recorded", sys)
		}
		if res.Phases.GPUCompute <= 0 || res.Phases.DataLoading <= 0 {
			t.Fatalf("%s: phases not recorded: %+v", sys, res.Phases)
		}
		// The one micro-batch's input rows (the batch's whole input
		// frontier) stay on the device as cached bytes, not live ones; Close
		// hands them back with the rest.
		resident := int64(len(b.Frontier(b.Layers()))) * s.eng.rowBytes
		if live, cached := s.GPU.Live(), s.GPU.Cached(); live != s.Model.Params.Bytes()*2 || cached != resident {
			t.Fatalf("%s: live %d cached %d after the iteration, want fixed %d live and %d resident",
				sys, live, cached, s.Model.Params.Bytes()*2, resident)
		}
		s.Close()
		if live, cached := s.GPU.Live(), s.GPU.Cached(); live != 0 || cached != 0 {
			t.Fatalf("%s: leaked device memory: live %d cached %d after Close", sys, live, cached)
		}
	}
}

// TestTrianglelessGraphTrains: on a Watts–Strogatz ring of degree 2 with no
// rewiring the clustering coefficient is 0, which the memory model is
// defined for, so Buffalo and Betty both plan and train there (each planning
// with the estimate), and Buffalo's Evaluate plans too.
func TestTrianglelessGraphTrains(t *testing.T) {
	ds, err := datagen.Generate(datagen.Spec{
		Name: "ring", Model: datagen.WattsStrogatz, Nodes: 1200, FeatDim: 16,
		NumClasses: 3, K: 2, Rewire: 0, Homophily: 0.8,
	}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if c := ds.Graph.ApproxClusteringCoefficient(7, 2000); c != 0 {
		t.Fatalf("ring clustering coefficient %v, want 0", c)
	}
	for _, sys := range []System{Buffalo, Betty} {
		cfg := baseConfig(ds, sys)
		cfg.MemBudget = device.GB
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			res, err := s.RunIteration()
			if err != nil {
				t.Fatalf("%s iteration %d: %v", sys, i, err)
			}
			if res.K < 1 || res.Loss <= 0 || math.IsNaN(float64(res.Loss)) {
				t.Fatalf("%s iteration %d: K %d loss %v", sys, i, res.K, res.Loss)
			}
		}
		if sys == Buffalo {
			if _, _, err := s.Evaluate(goldenNodes(ds)); err != nil {
				t.Fatalf("%s Evaluate: %v", sys, err)
			}
		}
		s.Close()
	}
}

func TestPyGComputePenalty(t *testing.T) {
	ds := loadData(t, "cora")
	dglS, err := NewSession(ds, baseConfig(ds, DGL))
	if err != nil {
		t.Fatal(err)
	}
	pygS, err := NewSession(ds, baseConfig(ds, PyG))
	if err != nil {
		t.Fatal(err)
	}
	// Same batch for both.
	b, err := dglS.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	// The phase is host time, which a cold first iteration or a preempted one
	// inflates: compare the least of five interleaved iterations per system.
	dgl, pyg := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
	for i := 0; i < 5; i++ {
		r1, err := dglS.RunIterationOn(b)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := pygS.RunIterationOn(b)
		if err != nil {
			t.Fatal(err)
		}
		dgl, pyg = min(dgl, r1.Phases.GPUCompute), min(pyg, r2.Phases.GPUCompute)
	}
	if pyg <= dgl {
		t.Fatalf("PyG compute (%v) should exceed DGL (%v)", pyg, dgl)
	}
}

func TestFullBatchOOMOnLargeGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	// arxiv-mini with LSTM at a small budget must OOM for DGL (Fig 10's
	// shape) while Buffalo schedules around it.
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, DGL)
	cfg.Model.Aggregator = gnn.LSTM
	cfg.Model.Hidden = 32
	cfg.BatchSize = 800
	cfg.MemBudget = 16 * device.MB
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, err = s.RunIteration()
	if err == nil {
		t.Fatal("expected OOM")
	}
	if !device.IsOOM(err) {
		t.Fatalf("want OOM error, got %v", err)
	}

	cfg.System = Buffalo
	sb, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer sb.Close()
	res, err := sb.RunIteration()
	if err != nil {
		t.Fatalf("buffalo under the same budget: %v", err)
	}
	if res.K < 2 {
		t.Fatalf("buffalo should need multiple micro-batches, got %d", res.K)
	}
	if res.Peak > cfg.MemBudget {
		t.Fatalf("peak %d exceeded budget %d", res.Peak, cfg.MemBudget)
	}
}

func TestBuffaloRespectsBudgetPeaks(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Aggregator = gnn.LSTM
	cfg.Model.Hidden = 32
	cfg.BatchSize = 600
	cfg.MemBudget = 16 * device.MB
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res.Peak > cfg.MemBudget {
		t.Fatalf("peak %d over budget %d", res.Peak, cfg.MemBudget)
	}
	if len(res.PerMicroBytes) != res.K {
		t.Fatalf("per-micro bytes %d entries for K=%d", len(res.PerMicroBytes), res.K)
	}
	if res.Phases.Scheduling <= 0 {
		t.Fatal("buffalo scheduling time not recorded")
	}
	if res.Phases.REGConstruction != 0 || res.Phases.MetisPartition != 0 {
		t.Fatal("buffalo must not pay REG/METIS time")
	}
}

func TestBettyIteration(t *testing.T) {
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Betty)
	cfg.BatchSize = 600
	cfg.MicroBatches = 4
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 {
		t.Fatalf("K = %d, want 4", res.K)
	}
	if res.Phases.REGConstruction <= 0 || res.Phases.MetisPartition <= 0 {
		t.Fatalf("betty must pay REG+METIS time: %+v", res.Phases)
	}
	if res.Phases.ConnectionCheck <= 0 {
		t.Fatal("betty must pay connection-check time")
	}
	if res.Phases.Scheduling != 0 {
		t.Fatal("betty has no Buffalo scheduling phase")
	}
}

func TestStrategySystems(t *testing.T) {
	ds := loadData(t, "cora")
	for _, sys := range []System{RandomP, RangeP, MetisP} {
		cfg := baseConfig(ds, sys)
		cfg.MicroBatches = 3
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunIteration()
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if res.K != 3 {
			t.Fatalf("%s: K = %d, want 3", sys, res.K)
		}
		s.Close()
	}
}

// TestLossParityAcrossSystems: identical batch + identical model seed =>
// identical loss for full-batch vs Buffalo micro-batches (Table IV /
// Fig 17: micro-batch training is mathematically equivalent).
func TestLossParityAcrossSystems(t *testing.T) {
	ds := loadData(t, "cora")
	cfgA := baseConfig(ds, DGL)
	cfgB := baseConfig(ds, Buffalo)
	cfgB.MicroBatches = 4
	a, err := NewSession(ds, cfgA)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	bSess, err := NewSession(ds, cfgB)
	if err != nil {
		t.Fatal(err)
	}
	defer bSess.Close()
	batch, err := a.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	ra, err := a.RunIterationOn(batch)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := bSess.RunIterationOn(batch)
	if err != nil {
		t.Fatal(err)
	}
	if rb.K < 2 {
		t.Fatalf("buffalo K = %d, want >= 2 for a meaningful comparison", rb.K)
	}
	if diff := math.Abs(float64(ra.Loss - rb.Loss)); diff > 2e-3 {
		t.Fatalf("loss parity broken: dgl %v vs buffalo %v", ra.Loss, rb.Loss)
	}
}

// Losses must trend down over iterations for Buffalo on a learnable dataset.
func TestTrainEpochsConverges(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.BatchSize = 512
	cfg.LearningRate = 0.02
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	hist, err := s.TrainEpochs(12)
	if err != nil {
		t.Fatal(err)
	}
	first := (hist[0].Loss + hist[1].Loss + hist[2].Loss) / 3
	last := (hist[9].Loss + hist[10].Loss + hist[11].Loss) / 3
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
	if hist[len(hist)-1].Accuracy <= 1.0/float64(ds.NumClasses) {
		t.Fatalf("accuracy %v not above chance", hist[len(hist)-1].Accuracy)
	}
}

// TestBucketVolumes: the output-layer buckets of a session's sampled batch
// (Fig 4's volume distribution) hold every seed exactly once.
func TestBucketVolumes(t *testing.T) {
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, DGL)
	cfg.BatchSize = 800
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := s.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	vols := bucket.Bucketize(b).Volumes()
	total := 0
	for _, v := range vols {
		total += v
	}
	if total != 800 {
		t.Fatalf("volumes sum to %d, want 800", total)
	}
}

func TestDataParallelMatchesSingleGPUShape(t *testing.T) {
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Aggregator = gnn.LSTM
	cfg.Model.Hidden = 16
	cfg.BatchSize = 400
	cfg.MemBudget = 12 * device.MB

	dp, err := NewDataParallel(ds, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	res, err := dp.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Fatalf("K = %d", res.K)
	}
	if res.Peak > cfg.MemBudget {
		t.Fatalf("peak %d over per-GPU budget %d", res.Peak, cfg.MemBudget)
	}
	if len(res.PerGPUCompute) != 2 {
		t.Fatal("per-GPU compute missing")
	}
	if res.Phases.Communication <= 0 {
		t.Fatal("2-GPU run must pay all-reduce time")
	}
	// §V-G: compute parallelizes (max < sum) but scheduling/block gen do not.
	sum := res.PerGPUCompute[0] + res.PerGPUCompute[1]
	if !(res.Phases.GPUCompute < sum) {
		t.Fatalf("parallel compute %v should be below serial sum %v", res.Phases.GPUCompute, sum)
	}
	if res.Phases.Scheduling <= 0 || res.Phases.BlockGen <= 0 {
		t.Fatal("host-side phases missing")
	}
}

func TestDataParallelValidation(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, DGL)
	if _, err := NewDataParallel(ds, cfg, 2); err == nil {
		t.Error("want error for non-buffalo system")
	}
	cfg = baseConfig(ds, Buffalo)
	if _, err := NewDataParallel(ds, cfg, 0); err == nil {
		t.Error("want error for zero GPUs")
	}
}

// Single-GPU data-parallel must agree with the plain session's loss on the
// same seed (sanity: the data-parallel path introduces no math changes).
func TestDataParallelSingleDeviceLoss(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 2
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	dp, err := NewDataParallel(ds, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	r1, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := dp.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	// Same cfg.Seed drives both samplers identically.
	if math.Abs(float64(r1.Loss-r2.Loss)) > 1e-5 {
		t.Fatalf("loss mismatch: %v vs %v", r1.Loss, r2.Loss)
	}
}

func TestPhasesAddAndTotal(t *testing.T) {
	a := Phases{Scheduling: 1, REGConstruction: 2, MetisPartition: 3,
		ConnectionCheck: 4, BlockGen: 5, DataLoading: 6, GPUCompute: 7, Communication: 8}
	b := a
	b.Add(a)
	if b.Total() != 2*a.Total() {
		t.Fatalf("Add/Total mismatch: %v vs %v", b.Total(), 2*a.Total())
	}
	if a.Total() != 36 {
		t.Fatalf("Total = %v", a.Total())
	}
}

func TestGATSystemIteration(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.Model.Arch = gnn.GAT
	cfg.Model.Aggregator = ""
	cfg.MicroBatches = 2
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss <= 0 || res.K != 2 {
		t.Fatalf("gat iteration: loss=%v K=%d", res.Loss, res.K)
	}
}

func TestBettyAutoK(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, Betty)
	cfg.BatchSize = 400
	cfg.Model.Aggregator = gnn.LSTM
	cfg.MemBudget = 16 * device.MB
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.RunIteration()
	if err != nil {
		t.Fatal(err)
	}
	if res.K < 2 {
		t.Fatalf("betty auto-K should split under a tight budget, got K=%d", res.K)
	}
}

// partition is one K of searchParts' walk on its own: b's outputs split
// into k parts, Betty's over a REG built for this call.
func (e *engine) partition(b *sampling.Batch, k int) (parts [][]graph.NodeID, regTime, partTime time.Duration, err error) {
	reg, regTime := e.buildREG(b)
	parts, partTime, err = e.split(b, reg, k)
	return parts, regTime, partTime, err
}

// TestPartitionedSystemsSearchK: with MicroBatches = 0 every partitioned
// baseline searches its smallest fitting K inside the engine. On ogbn-arxiv
// at 12 MB with batch 512 the whole batch does not fit: K = 1 OOMs. Each
// system trains; each kept part fits its price and the result reports those
// prices; some part of the K−1 partition does not fit; and a 1-byte limit
// wraps schedule.ErrInfeasible. Betty prices with its linear estimate
// against the activation budget, the others with the redundancy-aware
// estimate against planLimit; that one refuses a node that is not an
// output, where Betty's counts it as nothing.
func TestPartitionedSystemsSearchK(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	ds := loadData(t, "ogbn-arxiv")
	for _, sys := range []System{Betty, RandomP, RangeP, MetisP} {
		cfg := baseConfig(ds, sys)
		cfg.BatchSize = 512
		cfg.MemBudget = 12 * device.MB
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := s.SampleBatch()
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunIterationOn(b)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		e := s.eng
		limit := e.planLimit()
		if sys == Betty {
			limit = e.activationBudget()
		}
		if res.K < 2 || len(res.PerMicroEstimate) != res.K {
			t.Fatalf("%s: K %d with %d estimates, want K >= 2 and one estimate per part", sys, res.K, len(res.PerMicroEstimate))
		}
		sc := e.getIterScratch()
		if err := e.estimatorInto(&sc.est, b); err != nil {
			t.Fatal(err)
		}
		// maxPrice is the largest part price of b's partition at k.
		maxPrice := func(k int) int64 {
			parts, _, _, err := e.partition(b, k)
			if err != nil {
				t.Fatal(err)
			}
			var hi int64
			for i, part := range parts {
				m, err := e.price(&sc.est, b, part)
				if err != nil {
					t.Fatal(err)
				}
				if k == res.K && m != res.PerMicroEstimate[i] {
					t.Fatalf("%s: part %d priced %d, result reports %d", sys, i, m, res.PerMicroEstimate[i])
				}
				hi = max(hi, m)
			}
			return hi
		}
		if m := maxPrice(res.K); m > limit {
			t.Errorf("%s: kept K %d has a part priced %d over the limit %d", sys, res.K, m, limit)
		}
		if m := maxPrice(res.K - 1); m <= limit {
			t.Errorf("%s: K %d already fits (largest part %d, limit %d), but the search kept K %d", sys, res.K-1, m, limit, res.K)
		}
		t.Logf("%s: K %d, largest part %d of limit %d", sys, res.K, maxPrice(res.K), limit)
		if _, err := e.price(&sc.est, b, []graph.NodeID{-1}); (err == nil) != (sys == Betty) {
			t.Errorf("%s: pricing a node that is not an output: err %v", sys, err)
		}
		// Nothing fits 1 byte, so the search walks every K; a 64-output
		// batch keeps that walk short.
		if err := sampling.NewStream(ds.Graph, 64, cfg.Fanouts, 5).NextInto(b); err != nil {
			t.Fatal(err)
		}
		if err := e.estimatorInto(&sc.est, b); err != nil {
			t.Fatal(err)
		}
		if _, err := e.searchParts(sc, b, 1, &IterationResult{}); !errors.Is(err, schedule.ErrInfeasible) {
			t.Errorf("%s: 1-byte limit: got %v, want schedule.ErrInfeasible", sys, err)
		}
		s.Close()
	}
}

// TestNaiveBlockGenAblation: every baseline system builds its blocks with the
// connection-check generator and is billed for it; Buffalo's sampling-order
// generator never checks a connection.
func TestNaiveBlockGenAblation(t *testing.T) {
	ds := loadData(t, "cora")
	check := func(sys System) time.Duration {
		s, err := NewSession(ds, baseConfig(ds, sys))
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, err := s.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		return res.Phases.ConnectionCheck
	}
	if d := check(DGL); d <= 0 {
		t.Fatal("naive block generation must record connection-check time")
	}
	if d := check(Buffalo); d != 0 {
		t.Fatalf("Buffalo's generator recorded connection-check time %v", d)
	}
}

// After an OOM mid-iteration, every transient allocation must be released:
// the ledger returns to exactly the fixed model footprint (no leaks).
func TestOOMReleasesAllTransientMemory(t *testing.T) {
	ds := loadData(t, "ogbn-arxiv")
	cfg := baseConfig(ds, DGL)
	cfg.Model.Aggregator = gnn.LSTM
	cfg.BatchSize = 800
	cfg.MemBudget = 16 * device.MB
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	fixed := s.GPU.Live()
	if _, err := s.RunIteration(); !device.IsOOM(err) {
		t.Fatalf("want OOM, got %v", err)
	}
	if live := s.GPU.Live(); live != fixed {
		t.Fatalf("OOM leaked device memory: live %d, fixed %d", live, fixed)
	}
	// The configuration remains usable at a smaller scale: tiny fanouts fit.
	s2cfg := cfg
	s2cfg.BatchSize = 64
	s2cfg.Fanouts = []int{3, 3}
	s2, err := NewSession(ds, s2cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.RunIteration(); err != nil {
		t.Fatalf("small batch after OOM config: %v", err)
	}
}

// All partitioned systems produce the same loss as full-batch on the same
// batch — the equivalence holds regardless of HOW outputs are partitioned.
func TestAllSystemsLossParity(t *testing.T) {
	ds := loadData(t, "pubmed")
	mkSession := func(sys System, k int) *Session {
		cfg := baseConfig(ds, sys)
		cfg.BatchSize = 512
		cfg.MicroBatches = k
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ref := mkSession(DGL, 0)
	defer ref.Close()
	batch, err := ref.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.RunIterationOn(batch)
	if err != nil {
		t.Fatal(err)
	}
	for _, sys := range []System{Buffalo, Betty, RandomP, RangeP, MetisP} {
		s := mkSession(sys, 3)
		res, err := s.RunIterationOn(batch)
		if err != nil {
			t.Fatalf("%s: %v", sys, err)
		}
		if diff := math.Abs(float64(res.Loss - want.Loss)); diff > 3e-3 {
			t.Errorf("%s: loss %v differs from full-batch %v", sys, res.Loss, want.Loss)
		}
		s.Close()
	}
}

// TestAccuracyCountsEveryCorrectPrediction: a K>1 iteration reports the summed
// per-micro-batch correct count over the batch size — the count a K=1 run of
// the same batch from the same weights reports. Rebuilding each micro-batch's
// count as int(fraction × n) truncates below it for some (count, n) pairs
// (first: 15/22 → 14), losing up to one correct prediction per micro-batch.
// The batch size is a power of two, so the K=1 fraction converts back exactly.
func TestAccuracyCountsEveryCorrectPrediction(t *testing.T) {
	ds := loadData(t, "cora")
	for seed := int64(7); seed <= 14; seed++ {
		cfg := baseConfig(ds, Buffalo)
		cfg.BatchSize = 512
		cfg.Seed = seed
		cfg.Model.Seed = seed
		whole, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tight := cfg
		tight.MemBudget = 4 * device.MB
		split, err := NewSession(ds, tight)
		if err != nil {
			t.Fatal(err)
		}
		b, err := whole.SampleBatch()
		if err != nil {
			t.Fatal(err)
		}
		r1, err := whole.RunIterationOn(b)
		if err != nil {
			t.Fatal(err)
		}
		rk, err := split.RunIterationOn(b)
		if err != nil {
			t.Fatal(err)
		}
		whole.Close()
		split.Close()
		if r1.K != 1 || rk.K < 2 {
			t.Fatalf("seed %d: K = %d and %d, want 1 and > 1", seed, r1.K, rk.K)
		}
		count := math.Round(r1.Accuracy * float64(cfg.BatchSize))
		if got := rk.Accuracy * float64(cfg.BatchSize); got != count {
			t.Errorf("seed %d: K=%d run counts %v correct of %d, the K=1 run %v", seed, rk.K, got, cfg.BatchSize, count)
		}
	}
}

func TestEvaluateHeldOut(t *testing.T) {
	ds := loadData(t, "cora")
	trainNodes, evalNodes := ds.Split(5, 0.8)
	if len(trainNodes)+len(evalNodes) != ds.NumNodes() {
		t.Fatal("split does not cover the graph")
	}
	cfg := baseConfig(ds, Buffalo)
	cfg.BatchSize = 512
	cfg.LearningRate = 0.02
	s, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	before, accBefore, err := s.Evaluate(evalNodes[:300])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TrainEpochs(10); err != nil {
		t.Fatal(err)
	}
	// Evaluation must not touch gradients or parameters: replica 0's
	// parameters hold the last training step's values and gradients, bit for
	// bit.
	snapshot := func() (values, grads []float32) {
		for _, p := range s.Model.Params.Params() {
			values = append(values, p.Value.Data...)
			grads = append(grads, p.Grad.Data...)
		}
		return values, grads
	}
	values, grads := snapshot()
	after, accAfter, err := s.Evaluate(evalNodes[:300])
	if err != nil {
		t.Fatal(err)
	}
	gotValues, gotGrads := snapshot()
	for _, buf := range []struct {
		name      string
		got, want []float32
	}{{"value", gotValues, values}, {"grad", gotGrads, grads}} {
		for i := range buf.want {
			if math.Float32bits(buf.got[i]) != math.Float32bits(buf.want[i]) {
				t.Fatalf("Evaluate changed %s %d: %v -> %v", buf.name, i, buf.want[i], buf.got[i])
			}
		}
	}
	if after >= before {
		t.Fatalf("held-out loss did not improve: %v -> %v", before, after)
	}
	if accAfter <= accBefore {
		t.Fatalf("held-out accuracy did not improve: %v -> %v", accBefore, accAfter)
	}
	if _, _, err := s.Evaluate(nil); err == nil {
		t.Fatal("want error for empty node set")
	}
}

// TestEvaluateOOMReleases runs Evaluate on a device too small for its first
// micro-batch. The plan reads a frozen activation budget that overstates the
// device (as a pipelined session's would if its headroom shrank), so the
// charge fails — at the features on the smaller device, at layer 0's
// activations with the features live on the larger one. Evaluate must return
// the OOM and leave only the resident footprint on the ledger.
func TestEvaluateOOMReleases(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	probe, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	resident := probe.GPU.Live()
	probe.Close()
	for _, tc := range []struct {
		room int64
		tag  string // the charge that fails
	}{{device.MB / 16, "features"}, {device.MB, "activations/layer0"}} {
		cfg.MemBudget = resident + tc.room
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.eng.budgetOverride = device.GB
		_, _, err = s.Evaluate(goldenNodes(ds))
		var oom *device.OOMError
		if !errors.As(err, &oom) || oom.Tag != tc.tag {
			t.Errorf("room %d: want OOM charging %q, got %v", tc.room, tc.tag, err)
		}
		if live := s.GPU.Live(); live != resident {
			t.Errorf("room %d: live %d after OOM, want the resident footprint %d", tc.room, live, resident)
		}
		s.Close()
	}
}
