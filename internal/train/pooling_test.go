package train

import (
	"math"
	"testing"

	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
)

// unpool turns an engine's tensor reuse off: the nil arena degrades to plain
// allocation, so every tensor is fresh and nothing is ever released — the
// reference the pooled runs are compared against. It must run before any
// iteration.
func (e *engine) unpool() {
	e.arena = nil
	for _, r := range e.replicas {
		r.model.SetArena(nil)
	}
}

// TestPoolingBitIdenticalLosses is the zero-allocation hot path's safety
// regression: pooled and arena-backed tensors are zeroed on reuse, or checked
// out uncleared (GetUninit) by a consumer that writes every element first, so
// every execution mode must produce exactly the losses of a run with pooling
// off (fresh allocations everywhere). Any drift means a kernel read recycled
// data. scripts/check.sh also runs this and the serving twin below under
// -tags tensordebug, where an uncleared checkout is NaN until written and the
// unpooled run is the plain build's arithmetic: probs or a layer buffer read
// before its write makes the pooled loss NaN there. Layer 0's inputs are not a
// checkout at all: it reads the dataset's feature table in place.
func TestPoolingBitIdenticalLosses(t *testing.T) {
	ds := loadData(t, "cora")
	const iters = 3

	runSeq := func(cfg Config, pooled bool) []float32 {
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !pooled {
			s.eng.unpool()
		}
		out := make([]float32, iters)
		for i := range out {
			r, err := s.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Loss
		}
		return out
	}
	runPipelined := func(cfg Config, pooled bool) []float32 {
		// NewPipelinedSession in two steps, so the pools go before the
		// prefetcher starts drawing from them.
		s, err := newSession(ds, cfg, 4<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !pooled {
			s.eng.unpool()
		}
		defer s.Close()
		s.eng.ld = newLoader(s.eng, PipelineConfig{Depth: 2})
		out := make([]float32, iters)
		for i := range out {
			r, err := s.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Loss
		}
		return out
	}
	runMultiGPU := func(cfg Config, pooled bool) []float32 {
		dp, err := NewDataParallel(ds, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer dp.Close()
		if !pooled {
			dp.eng.unpool()
		}
		out := make([]float32, iters)
		for i := range out {
			r, err := dp.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			out[i] = r.Loss
		}
		return out
	}

	cases := []struct {
		name string
		prep func(*Config)
		run  func(Config, bool) []float32
	}{
		{"sequential", nil, runSeq},
		{"pipelined", nil, runPipelined},
		{"multigpu", nil, runMultiGPU},
		{"zero1", func(c *Config) { c.ZeRO1 = true; c.CommOverlap = true }, runMultiGPU},
	}
	for _, tc := range cases {
		cfg := baseConfig(ds, Buffalo)
		cfg.MicroBatches = 4
		if tc.prep != nil {
			tc.prep(&cfg)
		}
		pooled, plain := tc.run(cfg, true), tc.run(cfg, false)
		for i := range pooled {
			if pooled[i] != plain[i] {
				t.Fatalf("%s iteration %d: pooled loss %v != unpooled %v",
					tc.name, i, pooled[i], plain[i])
			}
		}
	}
}

// TestLSTMIterationUnderPoison: the LSTM aggregator keeps its trajectory —
// gate blocks activated in place, c, tanh(c), h per step — in arena matrices
// from a micro-batch's forward until its backward, and the arena is reset
// between micro-batches. Two iterations at the train-cora-lstm shape (K > 1
// under 2 MB, so matrices recycle within an iteration) must give the bits of
// an unpooled session. scripts/check.sh also runs this under -tags
// tensordebug, where every released matrix is NaN until its next checkout
// zeroes it and the unpooled session, which releases nothing, is the plain
// build's arithmetic: a trajectory read after its arena's Reset poisons the
// loss there.
func TestLSTMIterationUnderPoison(t *testing.T) {
	ds := loadData(t, "cora")
	run := func(pooled bool) []float32 {
		cfg := baseConfig(ds, Buffalo)
		cfg.Model.Aggregator = gnn.LSTM
		cfg.Model.InDim, cfg.Model.Hidden = 64, 16
		cfg.Fanouts, cfg.BatchSize, cfg.MemBudget = []int{5, 5}, 128, 2*device.MB
		s, err := NewSession(ds, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !pooled {
			s.eng.unpool()
		}
		var out []float32
		for i := 0; i < 2; i++ {
			r, err := s.RunIteration()
			if err != nil {
				t.Fatal(err)
			}
			if r.K < 2 {
				t.Fatalf("iteration %d: K = %d, want the budget to force K > 1", i, r.K)
			}
			out = append(out, r.Loss)
		}
		return out
	}
	pooled, plain := run(true), run(false)
	for i := range plain {
		if math.IsNaN(float64(plain[i])) || math.Float32bits(pooled[i]) != math.Float32bits(plain[i]) {
			t.Fatalf("iteration %d: pooled loss %v (%08x), unpooled %v (%08x)", i,
				pooled[i], math.Float32bits(pooled[i]), plain[i], math.Float32bits(plain[i]))
		}
	}
}

// TestPoolingBitIdenticalServing: the serving path (forward-only, pooled
// request scratch) predicts the same classes with pooling on and off, across
// repeated requests so warm reuse is actually exercised.
func TestPoolingBitIdenticalServing(t *testing.T) {
	ds := loadData(t, "cora")
	nodes := []graph.NodeID{1, 2, 3, 5, 8, 13, 21, 34}

	run := func(pooled bool) []map[graph.NodeID]int32 {
		s, err := NewInferenceSession(ds, baseConfig(ds, Buffalo), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if !pooled {
			s.eng.unpool()
		}
		var out []map[graph.NodeID]int32
		for i := 0; i < 3; i++ {
			r, err := s.Infer(nodes)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, r.Classes)
		}
		return out
	}
	pooled, plain := run(true), run(false)
	for i := range pooled {
		for id, c := range plain[i] {
			if pooled[i][id] != c {
				t.Fatalf("request %d node %d: pooled class %d != unpooled %d", i, id, pooled[i][id], c)
			}
		}
	}
}

// TestPoolingPipelineStress drives the pipelined loader's lanes hard (run
// under -race in CI) while the consumer recycles the arena, then verifies the
// stages unwind without leaking goroutines and the arena's pool comes back
// with nothing checked out.
func TestPoolingPipelineStress(t *testing.T) {
	baseline := pipelineGoroutineBaseline(t)
	ds := loadData(t, "cora")
	cfg := baseConfig(ds, Buffalo)
	cfg.MicroBatches = 4
	p, err := NewPipelinedSession(ds, cfg, PipelineConfig{Depth: 3, CacheBudget: 4 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if _, err := p.RunIteration(); err != nil {
			t.Fatal(err)
		}
	}
	st := p.PoolStats()
	if st.Hits == 0 {
		t.Fatal("stress run never hit the pool: reuse path dead")
	}
	p.Close()
	waitForGoroutineBaseline(t, baseline)
	if st := p.PoolStats(); st.Outstanding != 0 {
		t.Fatalf("pool outstanding after Close = %d, want 0 (leaked checkouts)", st.Outstanding)
	}
}
