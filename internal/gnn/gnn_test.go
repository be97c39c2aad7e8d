package gnn

import (
	"math"
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/graph"
	"buffalo/internal/nn"
	"buffalo/internal/sampling"
	"buffalo/internal/tensor"
)

// tinySetup builds a small random graph, a batch over it, a full micro-batch
// and random features/labels.
func tinySetup(t testing.TB, seed int64, n, seedCount, classes, inDim int, fanouts []int) (
	*sampling.Batch, *block.MicroBatch, *tensor.Matrix, []int32) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var src, dst []graph.NodeID
	for i := 0; i < n*3; i++ {
		src = append(src, graph.NodeID(rng.Intn(n)))
		dst = append(dst, graph.NodeID(rng.Intn(n)))
	}
	g, err := graph.FromEdges(n, src, dst, true)
	if err != nil {
		t.Fatal(err)
	}
	seeds, err := sampling.UniformSeeds(g, seedCount, rng)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sampling.SampleBatch(g, seeds, fanouts, rng)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := block.Generate(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	features := tensor.New(mb.Blocks[0].NumSrc(), inDim)
	for i := range features.Data {
		features.Data[i] = rng.Float32() - 0.5
	}
	labels := make([]int32, seedCount)
	for i := range labels {
		labels[i] = int32(rng.Intn(classes))
	}
	return b, mb, features, labels
}

func modelConfigs() []Config {
	return []Config{
		{Arch: SAGE, Aggregator: Mean, Layers: 2, InDim: 3, Hidden: 4, OutDim: 3, Seed: 1},
		{Arch: SAGE, Aggregator: Pool, Layers: 2, InDim: 3, Hidden: 4, OutDim: 3, Seed: 2},
		{Arch: SAGE, Aggregator: LSTM, Layers: 2, InDim: 3, Hidden: 4, OutDim: 3, Seed: 3},
		{Arch: GAT, Layers: 2, InDim: 3, Hidden: 4, OutDim: 3, Seed: 4},
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Arch: "cnn", Layers: 1, InDim: 1, Hidden: 1, OutDim: 2},
		{Arch: SAGE, Aggregator: "sum", Layers: 1, InDim: 1, Hidden: 1, OutDim: 2},
		{Arch: SAGE, Aggregator: Mean, Layers: 0, InDim: 1, Hidden: 1, OutDim: 2},
		{Arch: SAGE, Aggregator: Mean, Layers: 1, InDim: 0, Hidden: 1, OutDim: 2},
		{Arch: GAT, Layers: 1, InDim: 1, Hidden: 1, OutDim: 1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: want error for %+v", i, cfg)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: New must reject invalid config", i)
		}
	}
}

func TestForwardShapesAllModels(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 7, 30, 6, 3, 3, []int{3, 2})
	for _, cfg := range modelConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatalf("%v: %v", cfg.Arch, err)
		}
		res, err := m.ForwardWithHook(mb, features, nil)
		if err != nil {
			t.Fatalf("%v/%v forward: %v", cfg.Arch, cfg.Aggregator, err)
		}
		if res.Logits.Rows != len(mb.Outputs) || res.Logits.Cols != cfg.OutDim {
			t.Fatalf("%v logits %dx%d", cfg.Arch, res.Logits.Rows, res.Logits.Cols)
		}
		if res.ActivationBytes() <= 0 {
			t.Fatalf("%v activation bytes must be positive", cfg.Arch)
		}
		loss, dLogits, err := crossEntropy(res.Logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		if math.IsNaN(float64(loss)) {
			t.Fatalf("%v loss is NaN", cfg.Arch)
		}
		m.Params.ZeroGrad()
		if _, err := m.Backward(res, dLogits); err != nil {
			t.Fatalf("%v backward: %v", cfg.Arch, err)
		}
		if noGradSignal(m.Params) {
			t.Fatalf("%v produced zero gradients", cfg.Arch)
		}
	}
}

// TestGradCheckAllModels verifies analytic parameter gradients against
// central differences through the FULL pipeline (blocks, bucketing,
// aggregation, loss) for every architecture/aggregator.
func TestGradCheckAllModels(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 11, 20, 4, 3, 3, []int{2, 2})
	for _, cfg := range modelConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		loss := func() float64 {
			res, err := m.ForwardWithHook(mb, features, nil)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := crossEntropy(res.Logits, labels, 1)
			if err != nil {
				t.Fatal(err)
			}
			return float64(l)
		}
		m.Params.ZeroGrad()
		res, err := m.ForwardWithHook(mb, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		_, dLogits, err := crossEntropy(res.Logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Backward(res, dLogits); err != nil {
			t.Fatal(err)
		}
		const eps = 1e-2
		l0 := loss()
		slopes := func(p *nn.Param, i int, step float64) (right, left float64) {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + float32(step)
			lp := loss()
			p.Value.Data[i] = orig - float32(step)
			lm := loss()
			p.Value.Data[i] = orig
			return (lp - l0) / step, (l0 - lm) / step
		}
		for _, p := range m.Params.Params() {
			// Check a subset of entries to bound runtime: first, middle, last.
			idxs := []int{0, len(p.Value.Data) / 2, len(p.Value.Data) - 1}
			for _, i := range idxs {
				right, left := slopes(p, i, eps)
				// Max-pool and ReLU introduce kinks where finite differences
				// are invalid; a genuine kink shows asymmetric one-sided
				// slopes (e.g. pre-activation exactly 0 under zero-init
				// bias). Skip those coordinates.
				if math.Abs(right-left) > 0.05*math.Max(0.1, math.Max(math.Abs(right), math.Abs(left))) {
					continue
				}
				numeric := (right + left) / 2
				analytic := float64(p.Grad.Data[i])
				diff := math.Abs(numeric - analytic)
				scale := math.Max(0.05, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if diff/scale > 6e-2 {
					t.Errorf("%v/%v %s[%d]: analytic %.6f vs numeric %.6f",
						cfg.Arch, cfg.Aggregator, p.Name, i, analytic, numeric)
				}
			}
		}
	}
}

// backwardWithInputGrad is Model.Backward with needDX set at every layer, so
// layer 0 also returns the gradient with respect to the input features —
// which Model.Backward itself never computes.
func backwardWithInputGrad(m *Model, res *ForwardResult, dLogits *tensor.Matrix) (*tensor.Matrix, error) {
	d := dLogits
	for l := len(m.Layers) - 1; l >= 0; l-- {
		var err error
		if d, err = m.Layers[l].Backward(res.caches[l], d, true); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// crossEntropy is nn.CrossEntropyInto into a fresh gradient, so a test's
// logits and every gradient it keeps stay independent of one another.
func crossEntropy(logits *tensor.Matrix, labels []int32, scale float32) (float32, *tensor.Matrix, error) {
	return nn.CrossEntropyInto(tensor.New(logits.Rows, logits.Cols), logits, labels, scale)
}

// TestInputGradient checks dFeatures numerically for the mean aggregator,
// through the explicit needs-dX path.
func TestInputGradient(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 13, 20, 4, 3, 3, []int{2, 2})
	m, err := New(Config{Arch: SAGE, Aggregator: Mean, Layers: 2, InDim: 3, Hidden: 4, OutDim: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	loss := func() float64 {
		res, err := m.ForwardWithHook(mb, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := crossEntropy(res.Logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(l)
	}
	res, err := m.ForwardWithHook(mb, features, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, dLogits, err := crossEntropy(res.Logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	dX, err := backwardWithInputGrad(m, res, dLogits)
	if err != nil {
		t.Fatal(err)
	}
	if dX == nil || dX.Rows != features.Rows || dX.Cols != features.Cols {
		t.Fatalf("input gradient %v, want %dx%d", dX, features.Rows, features.Cols)
	}
	const eps = 1e-2
	for _, i := range []int{0, len(features.Data) / 3, len(features.Data) - 1} {
		orig := features.Data[i]
		features.Data[i] = orig + eps
		lp := loss()
		features.Data[i] = orig - eps
		lm := loss()
		features.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(dX.Data[i])
		if math.Abs(numeric-analytic) > 5e-3+0.05*math.Abs(numeric) {
			t.Errorf("dX[%d]: analytic %.6f vs numeric %.6f", i, analytic, numeric)
		}
	}
}

// TestParamGradsIndependentOfInputGrad: dropping layer 0's input gradient must
// not touch a single bit of any parameter gradient. A naive early return at
// layer 0 would zero pool.W, lstm.Wx/Wh/b and the GAT attention vectors, whose
// gradients come out of the same aggregator backward that produces dX.
func TestParamGradsIndependentOfInputGrad(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 19, 30, 6, 3, 3, []int{3, 2})
	cfgs := append(modelConfigs(),
		Config{Arch: GAT, Layers: 2, InDim: 3, Hidden: 4, OutDim: 4, Heads: 2, Seed: 6})
	for _, cfg := range cfgs {
		grads := func(inputGrad bool) []*tensor.Matrix {
			m, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := m.ForwardWithHook(mb, features, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, dLogits, err := crossEntropy(res.Logits, labels, 1)
			if err != nil {
				t.Fatal(err)
			}
			var dX *tensor.Matrix
			if inputGrad {
				dX, err = backwardWithInputGrad(m, res, dLogits)
			} else {
				dX, err = m.Backward(res, dLogits)
			}
			if err != nil {
				t.Fatal(err)
			}
			if (dX != nil) != inputGrad {
				t.Fatalf("%v/%v: input gradient present=%v, want %v", cfg.Arch, cfg.Aggregator, dX != nil, inputGrad)
			}
			var out []*tensor.Matrix
			for _, p := range m.Params.Params() {
				if allZero(p.Grad) {
					t.Errorf("%v/%v %s: zero gradient (inputGrad=%v)", cfg.Arch, cfg.Aggregator, p.Name, inputGrad)
				}
				out = append(out, p.Grad)
			}
			return out
		}
		with, without := grads(true), grads(false)
		for pi := range with {
			for i, w := range with[pi].Data {
				if math.Float32bits(w) != math.Float32bits(without[pi].Data[i]) {
					t.Fatalf("%v/%v param %d grad[%d]: %v with dX, %v without",
						cfg.Arch, cfg.Aggregator, pi, i, w, without[pi].Data[i])
				}
			}
		}
	}
}

// TestBackwardSkipsLayer0InputGradTensors: Model.Backward checks out none of
// the tensors only the layer-0 input gradient needs. For the mean aggregator
// those are exactly dXsrc [nSrc x in], dXdst and dAggAll — its buckets scale
// and scatter dAggAll's rows in place; every other model must at least shed
// dXsrc.
func TestBackwardSkipsLayer0InputGradTensors(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 23, 30, 6, 3, 3, []int{3, 2})
	for _, cfg := range modelConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		arena := tensor.NewArena(tensor.NewPool())
		m.SetArena(arena)
		checkouts := func(inputGrad bool) int {
			defer arena.Reset()
			res, err := m.ForwardWithHook(mb, features, nil)
			if err != nil {
				t.Fatal(err)
			}
			_, dLogits, err := crossEntropy(res.Logits, labels, 1)
			if err != nil {
				t.Fatal(err)
			}
			before := arena.Outstanding()
			if inputGrad {
				_, err = backwardWithInputGrad(m, res, dLogits)
			} else {
				_, err = m.Backward(res, dLogits)
			}
			if err != nil {
				t.Fatal(err)
			}
			return arena.Outstanding() - before
		}
		full, lean := checkouts(true), checkouts(false)
		if full-lean < 1 {
			t.Errorf("%v/%v: %d backward checkouts without dX vs %d with", cfg.Arch, cfg.Aggregator, lean, full)
		}
		if cfg.Arch == SAGE && cfg.Aggregator == Mean && full-lean != 3 {
			t.Errorf("mean: backward without dX saves %d checkouts, want 3", full-lean)
		}
	}
}

// TestMicroBatchGradEqualsFullBatch is Buffalo's correctness cornerstone
// (§IV-B): accumulated micro-batch gradients must equal full-batch
// gradients, for every model type, because output-layer partitioning keeps
// micro-batch losses independent.
func TestMicroBatchGradEqualsFullBatch(t *testing.T) {
	b, mbFull, _, labels := tinySetup(t, 17, 40, 8, 3, 3, []int{3, 2})
	rng := rand.New(rand.NewSource(99))
	// Features for the full graph so any micro-batch can gather its rows.
	full := tensor.New(40, 3)
	for i := range full.Data {
		full.Data[i] = rng.Float32() - 0.5
	}
	gatherFeat := func(nodes []graph.NodeID) *tensor.Matrix {
		out := tensor.New(len(nodes), 3)
		for i, v := range nodes {
			copy(out.Row(i), full.Row(int(v)))
		}
		return out
	}
	labelOf := map[graph.NodeID]int32{}
	for i, s := range b.Seeds {
		labelOf[s] = labels[i]
	}
	for _, cfg := range modelConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Full batch gradients.
		m.Params.ZeroGrad()
		res, err := m.ForwardWithHook(mbFull, gatherFeat(mbFull.InputNodes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, dLogits, err := crossEntropy(res.Logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Backward(res, dLogits); err != nil {
			t.Fatal(err)
		}
		var fullGrads []*tensor.Matrix
		for _, p := range m.Params.Params() {
			fullGrads = append(fullGrads, p.Grad.Clone())
		}
		// Micro-batch gradients: split the seeds 3 ways unevenly.
		m.Params.ZeroGrad()
		cuts := [][2]int{{0, 3}, {3, 4}, {4, len(b.Seeds)}}
		for _, c := range cuts {
			outputs := b.Seeds[c[0]:c[1]]
			mb, err := block.Generate(b, outputs)
			if err != nil {
				t.Fatal(err)
			}
			sub, err := m.ForwardWithHook(mb, gatherFeat(mb.InputNodes()), nil)
			if err != nil {
				t.Fatal(err)
			}
			subLabels := make([]int32, len(outputs))
			for i, v := range outputs {
				subLabels[i] = labelOf[v]
			}
			scale := float32(len(outputs)) / float32(len(b.Seeds))
			_, dSub, err := crossEntropy(sub.Logits, subLabels, scale)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.Backward(sub, dSub); err != nil {
				t.Fatal(err)
			}
		}
		for pi, p := range m.Params.Params() {
			for i := range p.Grad.Data {
				diff := math.Abs(float64(p.Grad.Data[i] - fullGrads[pi].Data[i]))
				scale := math.Max(1e-3, math.Abs(float64(fullGrads[pi].Data[i])))
				if diff/scale > 1e-3 {
					t.Fatalf("%v/%v %s grad[%d]: micro %v vs full %v",
						cfg.Arch, cfg.Aggregator, p.Name, i,
						p.Grad.Data[i], fullGrads[pi].Data[i])
				}
			}
		}
	}
}

// TestTrainingReducesLoss runs a few optimizer steps on a learnable toy task.
func TestTrainingReducesLoss(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 23, 30, 10, 3, 4, []int{3, 2})
	// Learnable labels: derived from the features so the model can fit.
	labels := make([]int32, len(mb.Outputs))
	for i := range labels {
		if features.At(i, 0) > 0 {
			labels[i] = 1
		}
	}
	for _, cfg := range modelConfigs() {
		cfg.InDim = 4
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt := nn.NewAdam(0.01)
		var first, last float32
		for step := 0; step < 30; step++ {
			m.Params.ZeroGrad()
			res, err := m.ForwardWithHook(mb, features, nil)
			if err != nil {
				t.Fatal(err)
			}
			loss, dLogits, err := crossEntropy(res.Logits, labels, 1)
			if err != nil {
				t.Fatal(err)
			}
			if step == 0 {
				first = loss
			}
			last = loss
			if _, err := m.Backward(res, dLogits); err != nil {
				t.Fatal(err)
			}
			opt.Step(m.Params)
		}
		if last >= first {
			t.Errorf("%v/%v: loss did not decrease (%v -> %v)", cfg.Arch, cfg.Aggregator, first, last)
		}
	}
}

// TestForwardErrors exercises the model-level validation paths.
func TestForwardErrors(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 29, 20, 4, 3, 3, []int{2, 2})
	m, err := New(Config{Arch: SAGE, Aggregator: Mean, Layers: 3, InDim: 3, Hidden: 4, OutDim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.ForwardWithHook(mb, features, nil); err == nil {
		t.Error("want error: 3-layer model on 2-block micro-batch")
	}
	m2, err := New(Config{Arch: SAGE, Aggregator: Mean, Layers: 2, InDim: 5, Hidden: 4, OutDim: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.ForwardWithHook(mb, features, nil); err == nil {
		t.Error("want error: feature dim mismatch")
	}
}

// TestLSTMAggregatorUsesNeighborOrder confirms the LSTM aggregator is
// order-sensitive (unlike mean), which is why it needs the sampled order
// preserved by the block generator.
func TestLSTMAggregatorUsesNeighborOrder(t *testing.T) {
	// One dst with 2 neighbors; swap neighbor order and compare outputs.
	blk := &block.Block{
		Dst: []graph.NodeID{0},
		Src: []graph.NodeID{0, 1, 2},
		Adj: [][]int32{{1, 2}},
	}
	blkSwapped := &block.Block{
		Dst: []graph.NodeID{0},
		Src: []graph.NodeID{0, 1, 2},
		Adj: [][]int32{{2, 1}},
	}
	rng := rand.New(rand.NewSource(3))
	ps := &nn.ParamSet{}
	layer := newSAGELayer("l", LSTM, 3, 2, false, rng, ps)
	x := tensor.New(3, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	h1, _, err := layer.Forward(blk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := layer.Forward(blkSwapped, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range h1.Data {
		if math.Abs(float64(h1.Data[i]-h2.Data[i])) > 1e-6 {
			same = false
		}
	}
	if same {
		t.Error("LSTM aggregation should depend on neighbor order")
	}
}

// TestMeanAggregatorOrderInvariant is the counterpart sanity check.
func TestMeanAggregatorOrderInvariant(t *testing.T) {
	blk := &block.Block{Dst: []graph.NodeID{0}, Src: []graph.NodeID{0, 1, 2}, Adj: [][]int32{{1, 2}}}
	blkSwapped := &block.Block{Dst: []graph.NodeID{0}, Src: []graph.NodeID{0, 1, 2}, Adj: [][]int32{{2, 1}}}
	rng := rand.New(rand.NewSource(3))
	ps := &nn.ParamSet{}
	layer := newSAGELayer("l", Mean, 3, 2, false, rng, ps)
	x := tensor.New(3, 3)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	h1, _, err := layer.Forward(blk, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := layer.Forward(blkSwapped, x, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h1.Data {
		if math.Abs(float64(h1.Data[i]-h2.Data[i])) > 1e-6 {
			t.Fatal("mean aggregation must be order invariant")
		}
	}
}

// Aggregator memory ordering: LSTM > pool > mean for the same micro-batch,
// matching Fig 2's motivation.
func TestAggregatorMemoryOrdering(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 31, 60, 10, 3, 3, []int{5, 5})
	bytes := map[Aggregator]int64{}
	for _, agg := range []Aggregator{Mean, Pool, LSTM} {
		m, err := New(Config{Arch: SAGE, Aggregator: agg, Layers: 2, InDim: 3, Hidden: 8, OutDim: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		res, err := m.ForwardWithHook(mb, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		bytes[agg] = res.ActivationBytes()
	}
	if !(bytes[LSTM] > bytes[Pool] && bytes[Pool] > bytes[Mean]) {
		t.Fatalf("memory ordering wrong: mean=%d pool=%d lstm=%d",
			bytes[Mean], bytes[Pool], bytes[LSTM])
	}
}

// PlannedCacheBytes must equal the realized cache footprint exactly, for
// every layer of every model type — the simulated GPU charges the planned
// number before compute and the ledger must match reality.
func TestPlannedCacheBytesExact(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 41, 50, 10, 3, 3, []int{4, 3})
	for _, cfg := range modelConfigs() {
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var planned []int64
		res, err := m.ForwardWithHook(mb, features, func(layer int, bytes int64) error {
			planned = append(planned, bytes)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for l, c := range res.caches {
			if planned[l] != c.Bytes() {
				t.Errorf("%v/%v layer %d: planned %d != actual %d",
					cfg.Arch, cfg.Aggregator, l, planned[l], c.Bytes())
			}
		}
	}
}

// Three-layer models exercise the deep frontier-carry path end-to-end:
// micro-batch == full-batch gradients must hold at depth 3 too.
func TestThreeLayerMicroBatchEquivalence(t *testing.T) {
	b, mbFull, _, labels := tinySetup(t, 51, 36, 6, 3, 3, []int{2, 2, 2})
	rng := rand.New(rand.NewSource(77))
	full := tensor.New(36, 3)
	for i := range full.Data {
		full.Data[i] = rng.Float32() - 0.5
	}
	gather := func(nodes []graph.NodeID) *tensor.Matrix {
		out := tensor.New(len(nodes), 3)
		for i, v := range nodes {
			copy(out.Row(i), full.Row(int(v)))
		}
		return out
	}
	labelOf := map[graph.NodeID]int32{}
	for i, s := range b.Seeds {
		labelOf[s] = labels[i]
	}
	m, err := New(Config{Arch: SAGE, Aggregator: LSTM, Layers: 3, InDim: 3, Hidden: 4, OutDim: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Full batch.
	m.Params.ZeroGrad()
	res, err := m.ForwardWithHook(mbFull, gather(mbFull.InputNodes()), nil)
	if err != nil {
		t.Fatal(err)
	}
	_, dl, err := crossEntropy(res.Logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Backward(res, dl); err != nil {
		t.Fatal(err)
	}
	var want []*tensor.Matrix
	for _, p := range m.Params.Params() {
		want = append(want, p.Grad.Clone())
	}
	// Micro-batches.
	m.Params.ZeroGrad()
	half := len(b.Seeds) / 2
	for _, outputs := range [][]graph.NodeID{b.Seeds[:half], b.Seeds[half:]} {
		mb, err := block.Generate(b, outputs)
		if err != nil {
			t.Fatal(err)
		}
		sub, err := m.ForwardWithHook(mb, gather(mb.InputNodes()), nil)
		if err != nil {
			t.Fatal(err)
		}
		subLabels := make([]int32, len(outputs))
		for i, v := range outputs {
			subLabels[i] = labelOf[v]
		}
		_, dsub, err := crossEntropy(sub.Logits, subLabels, float32(len(outputs))/float32(len(b.Seeds)))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Backward(sub, dsub); err != nil {
			t.Fatal(err)
		}
	}
	for pi, p := range m.Params.Params() {
		for i := range p.Grad.Data {
			d := math.Abs(float64(p.Grad.Data[i] - want[pi].Data[i]))
			if d > 1e-4+1e-3*math.Abs(float64(want[pi].Data[i])) {
				t.Fatalf("%s grad[%d]: micro %v vs full %v", p.Name, i, p.Grad.Data[i], want[pi].Data[i])
			}
		}
	}
}

// Multi-head GAT: shapes, grad signal, kink-aware grad check, and the
// micro-batch equivalence must all hold with concatenated heads.
func TestMultiHeadGAT(t *testing.T) {
	_, mb, features, labels := tinySetup(t, 61, 24, 5, 4, 3, []int{3, 2})
	cfg := Config{Arch: GAT, Layers: 2, InDim: 3, Hidden: 4, OutDim: 4, Heads: 2, Seed: 5}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := cfg
	bad.OutDim = 5
	if err := bad.Validate(); err == nil {
		t.Fatal("want error for indivisible head width")
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.ForwardWithHook(mb, features, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Logits.Rows != len(mb.Outputs) || res.Logits.Cols != 4 {
		t.Fatalf("logits %dx%d", res.Logits.Rows, res.Logits.Cols)
	}
	m.Params.ZeroGrad()
	_, dLogits, err := crossEntropy(res.Logits, labels, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Backward(res, dLogits); err != nil {
		t.Fatal(err)
	}
	if noGradSignal(m.Params) {
		t.Fatal("no gradient signal")
	}
	// Every head must carry gradient (heads are independent subnetworks).
	for _, p := range m.Params.Params() {
		if allZero(p.Grad) {
			t.Errorf("parameter %s received no gradient", p.Name)
		}
	}
	// Spot gradient check on the first weight of each head of layer 0.
	loss := func() float64 {
		r, err := m.ForwardWithHook(mb, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := crossEntropy(r.Logits, labels, 1)
		if err != nil {
			t.Fatal(err)
		}
		return float64(l)
	}
	const eps = 1e-2
	for _, p := range m.Params.Params() {
		i := 0
		orig := p.Value.Data[i]
		p.Value.Data[i] = orig + eps
		lp := loss()
		p.Value.Data[i] = orig - eps
		lm := loss()
		p.Value.Data[i] = orig
		numeric := (lp - lm) / (2 * eps)
		analytic := float64(p.Grad.Data[i])
		if diff := math.Abs(numeric - analytic); diff > 0.05*math.Max(1, math.Abs(numeric)) {
			t.Errorf("%s[0]: analytic %.5f vs numeric %.5f", p.Name, analytic, numeric)
		}
	}
	// Planned bytes stay exact with heads.
	var planned []int64
	res2, err := m.ForwardWithHook(mb, features, func(layer int, bytes int64) error {
		planned = append(planned, bytes)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for l, c := range res2.caches {
		if planned[l] != c.Bytes() {
			t.Errorf("layer %d planned %d != actual %d", l, planned[l], c.Bytes())
		}
	}
}

// refSageLSTM is the SAGE-LSTM layer as it stood before the cell's input side
// was hoisted out of the buckets: every bucket gathers its steps from xsrc and
// runs them through the cell's per-sequence entry points (which internal/nn
// holds, bit for bit, to the step-by-step cell they replaced), on plain
// allocation, one projection and one input-side backward per bucket. It
// shares the layer's parameters and accumulates into their gradients.
type refSageLSTM struct {
	l       *sageLayer
	blk     *block.Block
	xsrc    *tensor.Matrix
	xdst    *tensor.Matrix
	aggAll  *tensor.Matrix
	pre     *tensor.Matrix
	buckets []refLSTMBucket
}

type refLSTMBucket struct {
	rows  []int32
	cache *nn.LSTMCache
}

func refSageLSTMForward(l *sageLayer, blk *block.Block, xsrc *tensor.Matrix) (*tensor.Matrix, *refSageLSTM) {
	nDst := blk.NumDst()
	st := &refSageLSTM{l: l, blk: blk, xsrc: xsrc,
		xdst:   tensor.FromSlice(nDst, l.in, xsrc.Data[:nDst*l.in]),
		aggAll: tensor.New(nDst, l.in)}
	for _, db := range new(blockBuckets).bucketize(blk) {
		if db.degree == 0 {
			continue
		}
		h, lc := l.lstm.RunSequence(gatherTimesteps(nil, nil, blk, db.rows, db.degree, xsrc, nil))
		scatterAddRows(st.aggAll, db.rows, h)
		st.buckets = append(st.buckets, refLSTMBucket{rows: db.rows, cache: lc})
	}
	st.pre = tensor.New(nDst, l.out)
	tensor.MatMulInto(st.pre, st.xdst, l.wSelf.Value, false)
	tensor.MatMulInto(st.pre, st.aggAll, l.wNeigh.Value, true)
	st.pre.AddRowVector(l.bias.Value)
	if l.act {
		return nn.ReLUInto(tensor.New(nDst, l.out), st.pre), st
	}
	return st.pre, st
}

func (st *refSageLSTM) backward(dH *tensor.Matrix, needDX bool) *tensor.Matrix {
	l := st.l
	dPre := dH
	if l.act {
		dPre = nn.ReLUBackwardInto(tensor.New(dH.Rows, dH.Cols), st.pre, dH)
	}
	tensor.MatMulATBInto(l.wSelf.Grad, st.xdst, dPre, true)
	tensor.MatMulATBInto(l.wNeigh.Grad, st.aggAll, dPre, true)
	rowSum := tensor.New(1, l.out)
	dPre.SumRowsInto(rowSum)
	l.bias.Grad.AddInPlace(rowSum)
	var dXsrc *tensor.Matrix
	if needDX {
		dXsrc = tensor.New(st.xsrc.Rows, l.in)
		dXdst := tensor.New(dPre.Rows, l.in)
		tensor.MatMulABTInto(dXdst, dPre, l.wSelf.Value, false)
		copy(dXsrc.Data, dXdst.Data)
	}
	dAggAll := tensor.New(dPre.Rows, l.in)
	tensor.MatMulABTInto(dAggAll, dPre, l.wNeigh.Value, false)
	for _, bc := range st.buckets {
		dSteps := l.lstm.BackwardSequence(bc.cache, gatherRows(nil, dAggAll, bc.rows))
		if !needDX {
			continue
		}
		for t, ds := range dSteps {
			for i, r := range bc.rows {
				drow := dXsrc.Row(int(st.blk.Adj[r][t]))
				for j, v := range ds.Row(i) {
					drow[j] += v
				}
			}
		}
	}
	return dXsrc
}

func requireSameBits(t *testing.T, what string, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d, want %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, w := range want.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(w) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got.Data[i], w)
		}
	}
}

// lstmHoistBlocks is a hand-built two-block chain (innermost first) with the
// shapes the hoist could get wrong: a degree-0 destination in each block,
// source rows no edge references (the last one included), a source read by
// several edges and by several positions, and buckets of one and of two rows.
func lstmHoistBlocks() []*block.Block {
	return []*block.Block{
		{Dst: nodeIDs(4), Src: nodeIDs(7), Adj: [][]int32{{4, 5, 1}, {4}, {}, {5, 4, 0}}},
		{Dst: nodeIDs(2), Src: nodeIDs(4), Adj: [][]int32{{2, 3}, {}}},
	}
}

// nodeIDs numbers a hand-built block's nodes 0..n-1.
func nodeIDs(n int) []graph.NodeID {
	out := make([]graph.NodeID, n)
	for i := range out {
		out[i] = graph.NodeID(i)
	}
	return out
}

// TestLSTMProjectionHoistBitIdentical: projecting xsrc once per layer and
// gathering projected rows, and running Wx's gradient and the input gradient
// once per layer over every bucket's stacked steps, gives the SAGE-LSTM layer
// the bits of doing both per bucket on the gathered steps — output, input
// gradient and every parameter gradient — for 1 and 2 layers, with and
// without the bottom layer's input gradient, on plain allocation and on a
// warm arena, over sampled and hand-built blocks.
func TestLSTMProjectionHoistBitIdentical(t *testing.T) {
	_, mb1, feat1, _ := tinySetup(t, 61, 40, 8, 3, 5, []int{3})
	_, mb2, feat2, _ := tinySetup(t, 62, 40, 8, 3, 5, []int{3, 2})
	hand := lstmHoistBlocks()
	rng := rand.New(rand.NewSource(63))
	featHand := tensor.New(hand[0].NumSrc(), 5)
	for i := range featHand.Data {
		featHand.Data[i] = rng.Float32() - 0.5
	}
	cases := []struct {
		name   string
		blocks []*block.Block
		feats  *tensor.Matrix
	}{
		{"sampled-1", mb1.Blocks, feat1},
		{"sampled-2", mb2.Blocks, feat2},
		{"hand-1", hand[:1], featHand},
		{"hand-2", hand, featHand},
	}
	for _, tc := range cases {
		m, err := New(Config{Arch: SAGE, Aggregator: LSTM, Layers: len(tc.blocks), InDim: 5, Hidden: 6, OutDim: 3, Seed: 64})
		if err != nil {
			t.Fatal(err)
		}
		layers := make([]*sageLayer, len(m.Layers))
		for i, l := range m.Layers {
			layers[i] = l.(*sageLayer)
		}
		top := tc.blocks[len(tc.blocks)-1]
		dOut := tensor.New(top.NumDst(), 3)
		for i := range dOut.Data {
			dOut.Data[i] = rng.Float32() - 0.5
		}
		for _, needDX := range []bool{true, false} {
			// Reference: per-step projections.
			m.Params.ZeroGrad()
			x := tc.feats
			refs := make([]*refSageLSTM, len(layers))
			for i, l := range layers {
				x, refs[i] = refSageLSTMForward(l, tc.blocks[i], x)
			}
			wantOut := x
			d := dOut
			for i := len(layers) - 1; i >= 0; i-- {
				d = refs[i].backward(d, i > 0 || needDX)
			}
			wantDX := d
			var wantGrads []*tensor.Matrix
			for _, p := range m.Params.Params() {
				if allZero(p.Grad) {
					t.Fatalf("%s: reference left %s without gradient", tc.name, p.Name)
				}
				wantGrads = append(wantGrads, p.Grad.Clone())
			}

			for _, arena := range []*tensor.Arena{nil, tensor.NewArena(tensor.NewPool())} {
				m.SetArena(arena)
				for pass := 0; pass < 2; pass++ { // the arena's second pass runs on recycled matrices
					m.Params.ZeroGrad()
					x := tc.feats
					caches := make([]LayerCache, len(layers))
					for i, l := range layers {
						x, caches[i], err = l.Forward(tc.blocks[i], x, nil)
						if err != nil {
							t.Fatal(err)
						}
						if got, want := caches[i].Bytes(), l.PlannedCacheBytes(tc.blocks[i]); got != want {
							t.Fatalf("%s layer %d: cache bytes %d, planned %d", tc.name, i, got, want)
						}
					}
					requireSameBits(t, tc.name+" output", x, wantOut)
					d := dOut
					for i := len(layers) - 1; i >= 0; i-- {
						d, err = layers[i].Backward(caches[i], d, i > 0 || needDX)
						if err != nil {
							t.Fatal(err)
						}
					}
					if (d != nil) != needDX {
						t.Fatalf("%s: input gradient present=%v, want %v", tc.name, d != nil, needDX)
					}
					if needDX {
						requireSameBits(t, tc.name+" dX", d, wantDX)
					}
					for pi, p := range m.Params.Params() {
						requireSameBits(t, tc.name+" grad "+p.Name, p.Grad, wantGrads[pi])
					}
					arena.Reset()
				}
			}
		}
	}
}

// TestLSTMWarmArenaAllocs: once the pool has seen a micro-batch's shapes, a
// SAGE-LSTM layer's forward + backward checks out no fresh matrix, hands every
// one back on Reset, and allocates nothing on the heap but the one closure
// each GEMM call passes to its row splitter.
func TestLSTMWarmArenaAllocs(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 71, 60, 12, 3, 8, []int{4})
	blk := mb.Blocks[0]
	m, err := New(Config{Arch: SAGE, Aggregator: LSTM, Layers: 1, InDim: 8, Hidden: 8, OutDim: 3, Seed: 72})
	if err != nil {
		t.Fatal(err)
	}
	pool := tensor.NewPool()
	arena := tensor.NewArena(pool)
	m.SetArena(arena)
	layer := m.Layers[0]
	dOut := tensor.New(blk.NumDst(), 3)
	for i := range dOut.Data {
		dOut.Data[i] = float32(i%7) - 3
	}
	step := func() {
		_, cache, err := layer.Forward(blk, features, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := layer.Backward(cache, dOut, true); err != nil {
			t.Fatal(err)
		}
		arena.Reset()
	}
	before := arena.Outstanding()
	step()
	cold := pool.Stats()
	step()
	warm := pool.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("warm pass missed the pool %d times", warm.Misses-cold.Misses)
	}
	if arena.Outstanding() != before || warm.Outstanding != 0 {
		t.Errorf("after Reset: arena holds %d (was %d), pool outstanding %d", arena.Outstanding(), before, warm.Outstanding)
	}

	// GEMM calls: the hoisted projection, self + neighbor paths forward (3);
	// their two weight gradients, dXdst, dAggAll, and the cell's dWx and dx
	// backward (6); per bucket of degree d > 1: d-1 recurrent products
	// forward, d-1 recurrent gradients and one dWh backward.
	gemms := 9
	for _, db := range new(blockBuckets).bucketize(blk) {
		if db.degree > 1 {
			gemms += 2*(db.degree-1) + 1
		}
	}
	if allocs := testing.AllocsPerRun(20, step); allocs > float64(gemms) {
		t.Errorf("warm forward+backward: %.0f allocs for %d GEMM calls", allocs, gemms)
	}
}

// allZero reports whether every entry of m is zero: a backward pass that
// produced no signal.
func allZero(m *tensor.Matrix) bool {
	for _, v := range m.Data {
		if v != 0 {
			return false
		}
	}
	return true
}

// noGradSignal reports whether every gradient of ps is all zero.
func noGradSignal(ps *nn.ParamSet) bool {
	for _, p := range ps.Params() {
		if !allZero(p.Grad) {
			return false
		}
	}
	return true
}
