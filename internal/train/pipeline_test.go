package train

import (
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/obs"
)

// TestDataLoadingIsPerIterationDelta pins the delta-based phase accounting:
// with the device clocks cumulative across iterations, each iteration's
// DataLoading must still be the modelled duration of its own copies only,
// and the cumulative clock holds their sum. The same batch twice makes the
// second iteration copy nothing — its one micro-batch's rows are all still
// resident on the device from the first — so a regression to assigning the
// cumulative TransferTime would show as a non-zero second phase.
func TestDataLoadingIsPerIterationDelta(t *testing.T) {
	ds := loadData(t, "cora")
	s, err := NewSession(ds, baseConfig(ds, DGL))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := s.SampleBatch()
	if err != nil {
		t.Fatal(err)
	}
	var results [2]*IterationResult
	var copied [2]int64
	for i := range results {
		pre := s.GPU.Stats().Transferred
		if results[i], err = s.RunIterationOn(b); err != nil {
			t.Fatal(err)
		}
		copied[i] = s.GPU.Stats().Transferred - pre
		var want time.Duration // no copy, no latency
		if copied[i] > 0 {
			want = s.GPU.TransferDuration(copied[i])
		}
		if got := results[i].Phases.DataLoading; got != want {
			t.Fatalf("iteration %d copied %d bytes: DataLoading %v, want their modelled %v (cumulative clock leaking into the phase?)",
				i, copied[i], got, want)
		}
	}
	if want := int64(len(b.Frontier(b.Layers()))) * s.eng.rowBytes; copied[0] != want || copied[1] != 0 {
		t.Fatalf("same batch twice copied %d then %d bytes, want its %d input bytes then none",
			copied[0], copied[1], want)
	}
	if total := s.GPU.Stats().TransferTime; total != results[0].Phases.DataLoading+results[1].Phases.DataLoading {
		t.Fatalf("cumulative transfer clock %v != sum of per-iteration phases %v",
			total, results[0].Phases.DataLoading+results[1].Phases.DataLoading)
	}
}

// pipelineGoroutineBaseline waits until no goroutine an earlier test or
// session started is still running — one still winding down would sit in the
// baseline and hide a leak of its size — and returns the count to compare
// against after Close. A goroutine that never exits (an earlier test's leak)
// is waited on for 2 s and then counted, as it always was.
func pipelineGoroutineBaseline(t *testing.T) int {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(2 * time.Second)
	for strayGoroutines(buf) > 0 && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	return runtime.NumGoroutine()
}

// strayGoroutines counts the goroutines, other than the caller's, that run
// this module's code outside a test runner: what a session or a test's own go
// statement left behind. buf holds the runtime's goroutine dump.
func strayGoroutines(buf []byte) int {
	stray := 0
	for i, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if i > 0 && strings.Contains(g, "buffalo/") && !strings.Contains(g, "testing.tRunner") {
			stray++
		}
	}
	return stray
}

// waitLoaderFull blocks until every queue of the loader pcfg built over
// replicas devices reports full on its pipeline/queue/* depth gauge in m:
// each planner's inbox and outbox hold one entry and each replica's ready
// lane pcfg's depth, so the sampler, the planners and the prefetcher are all
// at their backpressure. The deadline only bounds a failing run.
func waitLoaderFull(t *testing.T, m *obs.Metrics, pcfg PipelineConfig, replicas int) {
	t.Helper()
	want := map[string]int64{}
	for w := 0; w < pcfg.planAhead(); w++ {
		want["pipeline/queue/batch/"+strconv.Itoa(w)] = 1
		want["pipeline/queue/plan/"+strconv.Itoa(w)] = 1
	}
	for i := 0; i < replicas; i++ {
		want["pipeline/queue/ready/"+strconv.Itoa(i)] = int64(pcfg.depth())
	}
	deadline := time.Now().Add(time.Minute)
	for name, n := range want {
		for g := m.Gauge(name); g.Value() != n; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("queue %s holds %d, want it full at %d", name, g.Value(), n)
			}
		}
	}
}

// waitForGoroutineBaseline waits until the goroutine count is back at
// baseline, yielding between checks rather than sleeping, so the goroutines
// Close stopped exit as soon as the scheduler runs them. The deadline only
// bounds a failing run.
func waitForGoroutineBaseline(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("pipeline leaked goroutines: %d, baseline %d", runtime.NumGoroutine(), baseline)
		}
		runtime.Gosched()
	}
}

// TestPipelinedLossParityWithSequential: the pipelined session reproduces
// the sequential session's batches and math exactly — only the timing model
// differs — so per-iteration losses match.
func TestPipelinedLossParityWithSequential(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, DGL)
	seq, err := NewSession(ds, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	pip, err := NewPipelinedSession(ds, cfg, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pip.Close()
	for i := 0; i < 3; i++ {
		rs, err := seq.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		rp, err := pip.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(float64(rs.Loss-rp.Loss)) > 1e-6 {
			t.Fatalf("iteration %d: sequential loss %v vs pipelined %v", i, rs.Loss, rp.Loss)
		}
		if rp.Peak > cfg.MemBudget {
			t.Fatalf("pipelined peak %d over capacity %d", rp.Peak, cfg.MemBudget)
		}
	}
}

// TestPipelinedOverlapHidesTransfer: with the pipeline staging iteration
// i+1's copies behind iteration i's compute, part of the transfer time must
// stop being exposed: HiddenTransfer > 0 somewhere in the run, and each
// iteration's exposed DataLoading never exceeds what the sequential model
// would have charged for the same copies.
func TestPipelinedOverlapHidesTransfer(t *testing.T) {
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 2
	p, err := NewPipelinedSession(ds, cfg, PipelineConfig{Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	var hidden, exposed time.Duration
	for i := 0; i < 4; i++ {
		res, err := p.RunIteration()
		if err != nil {
			t.Fatal(err)
		}
		hidden += res.HiddenTransfer
		exposed += res.Phases.DataLoading
		if res.Phases.DataLoading < 0 {
			t.Fatalf("negative exposed transfer: %v", res.Phases.DataLoading)
		}
	}
	if hidden <= 0 {
		t.Fatalf("no transfer time hidden across 4 iterations (exposed %v)", exposed)
	}
	if st := p.GPU.Stats(); st.StallTime != exposed {
		t.Fatalf("stall clock %v != summed DataLoading %v", st.StallTime, exposed)
	}
}

// skewedSpec is a small power-law graph whose hubs recur in nearly every
// sampled batch — the access pattern degree-aware caching exists for.
func skewedDataset(t *testing.T) *datagen.Dataset {
	t.Helper()
	ds, err := datagen.Generate(datagen.Spec{
		Name: "skewed", Model: datagen.ClusteredPowerLaw,
		Nodes: 2000, FeatDim: 64, NumClasses: 4,
		KMin: 4, Alpha: 2.05, Locality: 8.0, Homophily: 0.7,
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestPipelinedCacheHitsOnSkewedGraph: repeat-sampled hub nodes must hit the
// degree-aware cache, and the bytes actually moved over the bus must drop
// against an identical run without the cache. Both runs see identical batch
// sequences (same seed), so the comparison is deterministic.
func TestPipelinedCacheHitsOnSkewedGraph(t *testing.T) {
	ds := skewedDataset(t)
	cfg := Config{
		System: Buffalo,
		Model: gnn.Config{
			Arch: gnn.SAGE, Aggregator: gnn.Mean, Layers: 2,
			InDim: ds.FeatDim(), Hidden: 16, OutDim: ds.NumClasses, Seed: 1,
		},
		Fanouts:   []int{5, 10},
		BatchSize: 128,
		MemBudget: 512 * device.MB,
		Seed:      7,
	}
	run := func(cacheBudget int64) (transferred int64, hits int64, rate float64) {
		p, err := NewPipelinedSession(ds, cfg, PipelineConfig{CacheBudget: cacheBudget})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		for i := 0; i < 4; i++ {
			if _, err := p.RunIteration(); err != nil {
				t.Fatal(err)
			}
		}
		return p.GPU.Stats().Transferred, p.CacheStats().Hits, p.CacheHitRate()
	}
	coldBytes, _, _ := run(0)
	// Budget for half the graph's rows: hubs fit comfortably, cold tails churn.
	rowBytes := int64(ds.FeatDim()) * 4
	cachedBytes, hits, rate := run(rowBytes * int64(ds.NumNodes()) / 2)
	if hits == 0 {
		t.Fatal("skewed resampling produced zero cache hits")
	}
	if rate <= 0.05 {
		t.Fatalf("hit rate %.3f too low for a power-law graph", rate)
	}
	if cachedBytes >= coldBytes {
		t.Fatalf("cache did not reduce bus traffic: %d cached vs %d cold", cachedBytes, coldBytes)
	}
}

// TestPipelinedCancelMidPrefetch: closing a pipeline whose stages are mid
// flight (no iteration ever consumed) must unwind every goroutine and
// release every staged device byte.
func TestPipelinedCancelMidPrefetch(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, DGL)
	m := obs.NewMetrics()
	cfg.Obs = obs.NewRecorder(nil, m)
	pcfg := PipelineConfig{Depth: 3}
	p, err := NewPipelinedSession(ds, cfg, pcfg)
	if err != nil {
		t.Fatal(err)
	}
	waitLoaderFull(t, m, pcfg, 1)
	if err := p.Shutdown(); err != nil {
		t.Fatalf("close of healthy mid-flight pipeline: %v", err)
	}
	if live := p.GPU.Live(); live != 0 {
		t.Fatalf("device bytes leaked through shutdown: %d live", live)
	}
	waitForGoroutineBaseline(t, before)
}

// TestPipelinedOOMDuringPrefetch: when a prefetched feature tensor does not
// fit the device, the pipeline fails terminally — RunIteration surfaces the
// OOM, and Close still releases everything.
func TestPipelinedOOMDuringPrefetch(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, DGL)
	cfg.MemBudget = 1 * device.MB // model fits; a full batch's features do not
	p, err := NewPipelinedSession(ds, cfg, PipelineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.RunIteration()
	if err == nil {
		t.Fatal("expected OOM from the prefetch stage")
	}
	if !device.IsOOM(err) {
		t.Fatalf("want OOM error through the pipeline, got %v", err)
	}
	if err := p.Shutdown(); !device.IsOOM(err) {
		t.Fatalf("Shutdown should report the stage OOM, got %v", err)
	}
	if live := p.GPU.Live(); live != 0 {
		t.Fatalf("OOM shutdown leaked %d device bytes", live)
	}
	waitForGoroutineBaseline(t, before)
}

// TestPipelinedCloseIdempotent: Close twice (after real work) is safe and
// returns the same outcome.
func TestPipelinedCloseIdempotent(t *testing.T) {
	before := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	p, err := NewPipelinedSession(ds, baseConfig(ds, Buffalo), PipelineConfig{CacheBudget: 4 * device.MB})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.RunIteration(); err != nil {
		t.Fatal(err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := p.Shutdown(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if live := p.GPU.Live(); live != 0 {
		t.Fatalf("close leaked %d device bytes", live)
	}
	waitForGoroutineBaseline(t, before)
}

// TestPrefetchGateReservesEveryLiveIteration: the prefetcher may stage a
// micro-batch only while its device keeps room for the activations of every
// iteration with a feature tensor alive there, estimate error margin
// included — the consumer may still be computing an earlier iteration
// whose groups are larger than the one being staged. With depth 2 and no
// cache, no session may OOM: a single planner over 2 replicas on arxiv at
// 12 MB (K 3) and at 20 MB, where K is 1 or 2 and each device holds tensors
// of up to three iterations (8 sessions of 40 iterations each), and a
// pipelined cora session at 6 MB (20 sessions of 3 iterations).
func TestPrefetchGateReservesEveryLiveIteration(t *testing.T) {
	if raceEnabled {
		t.Skip("single-goroutine numerical workload; runs race-free in tier-1")
	}
	arxiv, cora := loadData(t, "ogbn-arxiv"), loadData(t, "cora")
	for _, c := range []struct {
		ds              *datagen.Dataset
		budget          int64
		gpus            int
		sessions, iters int
	}{
		{arxiv, 12 * device.MB, 2, 8, 40},
		{arxiv, 20 * device.MB, 2, 8, 40},
		{cora, 6 * device.MB, 1, 20, 3},
	} {
		cfg := baseConfig(c.ds, Buffalo)
		cfg.MemBudget = c.budget
		for session := 0; session < c.sessions; session++ {
			dp, err := NewDataParallelPipelined(c.ds, cfg, c.gpus, PipelineConfig{Depth: 2})
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < c.iters; i++ {
				if _, err := dp.RunIteration(); err != nil {
					t.Fatalf("%s at %d MB, session %d, iteration %d: %v", c.ds.Spec.Name, c.budget/device.MB, session, i, err)
				}
			}
			dp.Close()
		}
	}
}
