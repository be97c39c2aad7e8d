package gnn

import (
	"math"
	"math/rand"
	"testing"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/nn"
	"buffalo/internal/sampling"
	"buffalo/internal/tensor"
)

// meanReference is Algorithm 1's mean aggregation as materialised tensors —
// gather every position of every bucket, AddInPlace them, Scale, scatter into
// the block's rows — which meanAggregate replaced and must keep the bits of.
func meanReference(blk *block.Block, xsrc *tensor.Matrix) *tensor.Matrix {
	aggAll := tensor.New(blk.NumDst(), xsrc.Cols)
	for _, db := range bucketizeBlock(blk) {
		if db.degree == 0 {
			continue
		}
		agg := tensor.New(len(db.rows), xsrc.Cols)
		for _, s := range gatherTimesteps(nil, nil, blk, db.rows, db.degree, xsrc, nil) {
			agg.AddInPlace(s)
		}
		agg.Scale(1 / float32(db.degree))
		scatterAddRows(aggAll, db.rows, agg)
	}
	return aggAll
}

// meanFused runs the kernel over a block the way sageLayer.Forward does:
// reading xsrc's rows, or the rows of the table xsrc that idx names (nbr at
// least the widest degree long).
func meanFused(aggAll *tensor.Matrix, dbs []degreeBucket, blk *block.Block, xsrc *tensor.Matrix, idx, nbr []int32) {
	for _, db := range dbs {
		if db.degree > 0 {
			meanAggregate(aggAll, blk, db.rows, db.degree, xsrc, idx, nbr)
		}
	}
}

// awkwardFloat draws from the values a float32 sum can mishandle: ordinary
// magnitudes, both zeros, denormals, and normals so small that a scaled mean
// of them leaves the normal range.
func awkwardFloat(rng *rand.Rand) float32 {
	sign := uint32(rng.Intn(2)) << 31
	switch rng.Intn(8) {
	case 0:
		return math.Float32frombits(sign) // +0 or -0
	case 1:
		return math.Float32frombits(sign | uint32(1+rng.Intn(4))) // the smallest denormals
	case 2:
		return math.Float32frombits(sign | uint32(rng.Intn(1<<23))) // any denormal
	case 3:
		return math.Float32frombits(sign | uint32(1<<23+rng.Intn(1<<10))) // just above the smallest normal
	default:
		return rng.Float32() - 0.5
	}
}

func awkwardMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = awkwardFloat(rng)
	}
	return m
}

// datagenBlock samples a one-layer block from a random graph of the given
// datagen model (0 clustered power law, 1 Watts–Strogatz).
func datagenBlock(t testing.TB, rng *rand.Rand, model, nodes, seeds, fanout int) *block.Block {
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
	b, err := sampling.SampleBatch(ds.Graph, s, []int{fanout}, rng)
	if err != nil {
		t.Fatal(err)
	}
	mb, err := block.Generate(b, b.Seeds)
	if err != nil {
		t.Fatal(err)
	}
	return mb.Blocks[0]
}

// meanHandBlock has every shape the unroll and the closing 0 + · could get
// wrong: isolated destinations, degree 1, a repeated neighbor, degrees of
// exactly one unrolled group, 4+3, 4+4+1 and 4+4+2.
func meanHandBlock() *block.Block {
	return &block.Block{Dst: nodeIDs(8), Src: nodeIDs(10), Adj: [][]int32{
		{},
		{5},
		{4, 4, 4},
		{0, 1, 2, 3},
		{1, 2, 3, 4, 5, 6, 7},
		{8, 0, 8, 1, 8, 2, 8, 3, 9},
		{},
		{9, 8, 7, 6, 5, 4, 3, 2, 1, 0},
	}}
}

// TestMeanAggregateMatchesReference: the fused kernel has the bits of the
// materialised gather/AddInPlace/Scale/scatter on sampled blocks from both
// datagen generators and on the hand-built block, over values that include
// -0, denormals and means that underflow.
func TestMeanAggregateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	check := func(name string, blk *block.Block, xsrc *tensor.Matrix) *tensor.Matrix {
		t.Helper()
		got := tensor.New(blk.NumDst(), xsrc.Cols)
		meanFused(got, bucketizeBlock(blk), blk, xsrc, nil, nil)
		requireSameBits(t, name, got, meanReference(blk, xsrc))
		return got
	}
	for trial := 0; trial < 40; trial++ {
		model := trial % 2
		blk := datagenBlock(t, rng, model, 40+rng.Intn(200), 1+rng.Intn(24), 1+rng.Intn(11))
		check("datagen block", blk, awkwardMatrix(rng, blk.NumSrc(), 1+rng.Intn(9)))
	}
	hand := meanHandBlock()
	for trial := 0; trial < 40; trial++ {
		check("hand block", hand, awkwardMatrix(rng, hand.NumSrc(), 1+rng.Intn(9)))
	}

	// The case the closing 0 + · exists for: a negative sum whose mean
	// underflows is -0 after the scale and +0 after the scatter's add.
	x := tensor.New(hand.NumSrc(), 2)
	tiny := math.Float32frombits(1<<31 | 1) // the negative denormal nearest zero
	x.Set(0, 0, tiny)
	if scaled := tiny * 0.25; scaled != 0 || !math.Signbit(float64(scaled)) {
		t.Fatalf("%v/4 = %v: the case does not underflow to -0", tiny, scaled)
	}
	got := check("underflow", hand, x)
	if bits := math.Float32bits(got.At(3, 0)); bits != 0 {
		t.Errorf("underflowed mean has bits %#x, want +0", bits)
	}
	for _, r := range []int{0, 6} {
		for j, v := range got.Row(r) {
			if math.Float32bits(v) != 0 {
				t.Errorf("isolated row %d[%d] = %v, want +0", r, j, v)
			}
		}
	}
}

// TestMeanAggregateWarmZeroAllocs: the kernel allocates nothing.
func TestMeanAggregateWarmZeroAllocs(t *testing.T) {
	_, mb, features, _ := tinySetup(t, 73, 60, 12, 3, 8, []int{5})
	blk := mb.Blocks[0]
	dbs := bucketizeBlock(blk)
	aggAll := tensor.New(blk.NumDst(), features.Cols)
	if allocs := testing.AllocsPerRun(20, func() { meanFused(aggAll, dbs, blk, features, nil, nil) }); allocs != 0 {
		t.Errorf("meanAggregate: %.0f allocs per block", allocs)
	}
}

// refSageMean is the SAGE-mean layer as it ran before the fused kernel: the
// materialised aggregation forward, and a gathered, scaled copy of each
// bucket's gradient rows scattered position by position backward. It shares
// the layer's parameters and accumulates into their gradients.
type refSageMean struct {
	l      *sageLayer
	blk    *block.Block
	xsrc   *tensor.Matrix
	xdst   *tensor.Matrix
	aggAll *tensor.Matrix
	pre    *tensor.Matrix
}

func refSageMeanForward(l *sageLayer, blk *block.Block, xsrc *tensor.Matrix) (*tensor.Matrix, *refSageMean) {
	nDst := blk.NumDst()
	st := &refSageMean{l: l, blk: blk, xsrc: xsrc,
		xdst:   tensor.FromSlice(nDst, l.in, xsrc.Data[:nDst*l.in]),
		aggAll: meanReference(blk, xsrc)}
	st.pre = tensor.New(nDst, l.out)
	tensor.MatMulInto(st.pre, st.xdst, l.wSelf.Value, false)
	tensor.MatMulInto(st.pre, st.aggAll, l.wNeigh.Value, true)
	st.pre.AddRowVector(l.bias.Value)
	if l.act {
		return nn.ReLU(st.pre), st
	}
	return st.pre, st
}

func (st *refSageMean) backward(dH *tensor.Matrix, needDX bool) *tensor.Matrix {
	l := st.l
	dPre := dH
	if l.act {
		dPre = nn.ReLUBackward(st.pre, dH)
	}
	tensor.MatMulATBInto(l.wSelf.Grad, st.xdst, dPre, true)
	tensor.MatMulATBInto(l.wNeigh.Grad, st.aggAll, dPre, true)
	rowSum := tensor.New(1, l.out)
	dPre.SumRowsInto(rowSum)
	l.bias.Grad.AddInPlace(rowSum)
	if !needDX {
		return nil
	}
	dXsrc := tensor.New(st.xsrc.Rows, l.in)
	dXdst := tensor.New(dPre.Rows, l.in)
	tensor.MatMulABTInto(dXdst, dPre, l.wSelf.Value, false)
	copy(dXsrc.Data, dXdst.Data)
	dAggAll := tensor.New(dPre.Rows, l.in)
	tensor.MatMulABTInto(dAggAll, dPre, l.wNeigh.Value, false)
	for _, db := range bucketizeBlock(st.blk) {
		if db.degree == 0 {
			continue
		}
		dAgg := gatherRows(nil, dAggAll, db.rows)
		dAgg.Scale(1 / float32(db.degree))
		for t := 0; t < db.degree; t++ {
			for i, r := range db.rows {
				drow := dXsrc.Row(int(st.blk.Adj[r][t]))
				for j, v := range dAgg.Row(i) {
					drow[j] += v
				}
			}
		}
	}
	return dXsrc
}

// TestMeanLayerBitIdenticalToMaterialised: with the fused forward and the
// in-place backward, the SAGE-mean layer's output, input gradient and every
// parameter gradient keep the bits of the materialised layer — 1 and 2
// layers, with and without the bottom layer's input gradient, on plain
// allocation and on a warm arena, over sampled and hand-built blocks.
func TestMeanLayerBitIdenticalToMaterialised(t *testing.T) {
	_, mb1, feat1, _ := tinySetup(t, 81, 40, 8, 3, 5, []int{3})
	_, mb2, feat2, _ := tinySetup(t, 82, 40, 8, 3, 5, []int{6, 5})
	hand := []*block.Block{meanHandBlock()}
	rng := rand.New(rand.NewSource(83))
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
		{"hand", hand, featHand},
	}
	for _, tc := range cases {
		m, err := New(Config{Arch: SAGE, Aggregator: Mean, Layers: len(tc.blocks), InDim: 5, Hidden: 6, OutDim: 3, Seed: 84})
		if err != nil {
			t.Fatal(err)
		}
		layers := make([]*sageLayer, len(m.Layers))
		for i, l := range m.Layers {
			layers[i] = l.(*sageLayer)
		}
		dOut := tensor.New(tc.blocks[len(tc.blocks)-1].NumDst(), 3)
		for i := range dOut.Data {
			dOut.Data[i] = rng.Float32() - 0.5
		}
		for _, needDX := range []bool{true, false} {
			m.Params.ZeroGrad()
			x := tc.feats
			refs := make([]*refSageMean, len(layers))
			for i, l := range layers {
				x, refs[i] = refSageMeanForward(l, tc.blocks[i], x)
			}
			wantOut := x
			d := dOut
			for i := len(layers) - 1; i >= 0; i-- {
				d = refs[i].backward(d, i > 0 || needDX)
			}
			wantDX := d
			var wantGrads []*tensor.Matrix
			for _, p := range m.Params.Params() {
				if p.Grad.MaxAbs() == 0 {
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

// TestPlannedCacheBytesBetweenForwardAndBackward: PlannedCacheBytes is a
// pure shape function — asking a layer for another block's footprint while
// its forward cache is live (the cache's bucket rows alias the layer's
// bucketize scratch) leaves the pending backward's gradients untouched.
func TestPlannedCacheBytesBetweenForwardAndBackward(t *testing.T) {
	// The other block has the same degrees at different rows, so a bucketize
	// of it would rewrite every row slice the live cache holds.
	blk, other := meanHandBlock(), meanHandBlock()
	for i, j := 0, len(other.Adj)-1; i < j; i, j = i+1, j-1 {
		other.Adj[i], other.Adj[j] = other.Adj[j], other.Adj[i]
	}
	rng := rand.New(rand.NewSource(91))
	features := tensor.New(blk.NumSrc(), 3)
	for i := range features.Data {
		features.Data[i] = rng.Float32() - 0.5
	}
	for _, cfg := range modelConfigs() {
		cfg.Layers = 1
		m, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		layer := m.Layers[0]
		dOut := tensor.New(blk.NumDst(), cfg.OutDim)
		for i := range dOut.Data {
			dOut.Data[i] = float32(i%5) - 2
		}
		run := func(interleave bool) (dX *tensor.Matrix, grads []*tensor.Matrix) {
			m.Params.ZeroGrad()
			_, cache, err := layer.Forward(blk, features, nil)
			if err != nil {
				t.Fatal(err)
			}
			if interleave {
				layer.PlannedCacheBytes(other)
			}
			dX, err = layer.Backward(cache, dOut, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range m.Params.Params() {
				grads = append(grads, p.Grad.Clone())
			}
			return dX, grads
		}
		wantDX, wantGrads := run(false)
		gotDX, gotGrads := run(true)
		what := string(cfg.Arch) + "/" + string(cfg.Aggregator)
		for i, w := range wantDX.Data {
			if gotDX.Data[i] != w {
				t.Fatalf("%s: dX[%d] = %v after an interleaved PlannedCacheBytes, want %v", what, i, gotDX.Data[i], w)
			}
		}
		for pi, p := range m.Params.Params() {
			for i, w := range wantGrads[pi].Data {
				if gotGrads[pi].Data[i] != w {
					t.Fatalf("%s: %s grad[%d] = %v after an interleaved PlannedCacheBytes, want %v",
						what, p.Name, i, gotGrads[pi].Data[i], w)
				}
			}
		}
	}
}
