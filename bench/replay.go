package main

import (
	"fmt"
	"math"
	"time"

	"buffalo/internal/block"
	"buffalo/internal/bucket"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/nn"
	"buffalo/internal/pipeline"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
	"buffalo/internal/tensor"
	"buffalo/internal/train"
)

// replayer runs one sequential training iteration from the layers' public
// functions, in the order train.Session runs them: estimate, K-search, block
// generation, then per micro-batch gather, stage, forward, loss, backward,
// and one optimizer step. It owns a second copy of the model, its own
// simulated device, pools and scratch, so that a span can be put around every
// call. On the same batch and the same weights its loss is the session's,
// which is what lets the per-layer times stand for the session's.
//
// Three calls are made beside the iteration and are not part of its sum: the
// session samples inside RunIteration with recycled storage, so the sampling
// layer is timed on a private stream of the same shape; bucketing runs
// inside schedule.Schedule and is timed again on its own; and a stand-alone
// feature cache is fed each micro-batch's input nodes.
type replayer struct {
	ds   *datagen.Dataset
	cfg  train.Config
	tr   *tracer
	spec memest.ModelSpec

	model    *gnn.Model
	flat     *nn.FlatBuffer
	opt      *nn.Adam
	gpu      *device.GPU
	fixed    *device.Allocation // parameters, gradients, Adam moments: resident for the replayer's life
	arena    *tensor.Arena
	featPool *tensor.Pool
	clusterC float64

	est    memest.Estimator
	sched  schedule.Scratch
	gens   []*block.GenScratch
	parts  [][]graph.NodeID
	mbs    []*block.MicroBatch
	labels []int32
	allocs []*device.Allocation
	seen   map[graph.NodeID]int

	shadow      *sampling.Stream
	shadowBatch sampling.Batch
	bsc         bucket.Scratch
	cache       *pipeline.FeatureCache
	missBuf     []graph.NodeID

	// Work counts over the iterations recorded with spans on.
	planned                   plannerCounts
	gatherBytes               int64
	cacheLookups, cacheAdmits int
	// layerDst[l] collects every micro-batch's destination count at layer l:
	// the row count of that layer's GEMMs.
	layerDst []series
}

// replayOut is what one replayed iteration produced.
type replayOut struct {
	loss          float32
	k             int
	peak          int64
	predictedPeak int64
	covered       bool // every seed in exactly one group
}

func newReplayer(ds *datagen.Dataset, cfg train.Config, cacheBudget int64, tr *tracer) (*replayer, error) {
	model, err := gnn.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	gpu := device.NewGPU("replay", cfg.MemBudget)
	fixed, err := gpu.Alloc("model+optimizer", memest.TrainFixedBytes(model.Params.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("replay: model does not fit: %w", err)
	}
	flat, err := model.Params.Flatten(32<<10, 1)
	if err != nil {
		return nil, err
	}
	spec := memest.SpecFromConfig(cfg.Model)
	r := &replayer{
		ds: ds, cfg: cfg, tr: tr, spec: spec,
		model: model, flat: flat, opt: nn.NewAdamShard(0.01, 0, flat.TotalElems()), gpu: gpu, fixed: fixed,
		arena: tensor.NewArena(tensor.NewPool()), featPool: tensor.NewPool(),
		clusterC: ds.Graph.ApproxClusteringCoefficient(cfg.Seed, 2000),
		seen:     map[graph.NodeID]int{},
		shadow:   sampling.NewStream(ds.Graph, cfg.BatchSize, cfg.Fanouts, cfg.Seed+1),
		cache:    pipeline.NewFeatureCache(cacheBudget, spec.FeatureRowBytes(), nil),
		layerDst: make([]series, cfg.Model.Layers),
	}
	model.SetArena(r.arena)
	return r, nil
}

// syncFrom copies the session's current weights, so the next replayed
// iteration starts where the session's next iteration starts.
func (r *replayer) syncFrom(m *gnn.Model) error { return r.model.Params.CopyValuesFrom(m.Params) }

var replayLayerTags = [...]string{"activations/layer0", "activations/layer1", "activations/layer2", "activations/layer3"}

func (r *replayer) iteration(b *sampling.Batch) (replayOut, error) {
	tr := r.tr
	var out replayOut
	root := tr.begin("bench.replay_iter")
	defer tr.end(root)

	s := tr.begin("sampling.next_into")
	err := r.shadow.NextInto(&r.shadowBatch)
	tr.end(s)
	if err != nil {
		return out, err
	}
	counting := tr.active()
	if counting {
		r.planned.addSampled(&r.shadowBatch)
	}

	s = tr.begin("bucket.bucketize_into")
	bk := bucket.BucketizeInto(&r.bsc, b)
	tr.end(s)
	if counting {
		r.planned.buckets += len(bk.Buckets)
	}

	s = tr.begin("memest.new_into")
	err = memest.NewInto(&r.est, r.spec, b, r.clusterC)
	tr.end(s)
	if err != nil {
		return out, err
	}
	kMax := len(b.Seeds)
	if r.cfg.MicroBatches > 0 {
		kMax = r.cfg.MicroBatches
	}
	resident := r.gpu.Live()
	t0 := time.Now()
	s = tr.begin("schedule.schedule")
	plan, err := schedule.Schedule(b, &r.est, schedule.Options{
		MemLimit: (r.gpu.Capacity() - resident) * 9 / 10,
		KStart:   r.cfg.MicroBatches,
		KMax:     kMax,
		Scratch:  &r.sched,
	})
	tr.end(s)
	if err != nil {
		return out, err
	}
	if counting {
		r.planned.addPlan(b, plan, time.Since(t0))
	}
	out.k = plan.K
	out.predictedPeak = plan.MaxEstimate() + resident
	for len(r.parts) < len(plan.Groups) {
		r.parts = append(r.parts, nil)
		r.gens = append(r.gens, &block.GenScratch{})
	}
	for i, g := range plan.Groups {
		r.parts[i] = g.AppendNodes(r.parts[i][:0])
	}
	parts := r.parts[:len(plan.Groups)]
	out.covered = coversOnce(r.seen, b.Seeds, parts)

	mbs := r.mbs[:0]
	for i, outputs := range parts {
		s = tr.begin("block.generate_into")
		mb, err := block.GenerateInto(r.gens[i], b, outputs, nil)
		tr.end(s)
		if err != nil {
			return out, err
		}
		mbs = append(mbs, mb)
		if counting {
			r.planned.addBlocks(mb)
		}
	}
	r.mbs = mbs

	r.gpu.ResetPeak()
	s = tr.begin("nn.zero_grad")
	r.model.Params.ZeroGrad()
	tr.end(s)
	inDim := r.cfg.Model.InDim
	for _, mb := range mbs {
		inputs := mb.InputNodes()
		s = tr.begin("datagen.gather")
		feats := r.featPool.Get(len(inputs), inDim)
		for i, v := range inputs {
			copy(feats.Row(i), r.ds.FeatureRow(v)[:inDim])
		}
		tr.end(s)
		if counting {
			r.gatherBytes += feats.Bytes()
		}
		r.feedCache(inputs)

		s = tr.begin("device.stage")
		featAlloc, err := r.gpu.Alloc("features", feats.Bytes())
		if err == nil {
			r.gpu.TransferH2D(feats.Bytes())
		}
		tr.end(s)
		if err != nil {
			return out, err
		}
		r.allocs = append(r.allocs[:0], featAlloc)

		loss, err := r.compute(b, mb, feats)
		s = tr.begin("device.free")
		for _, a := range r.allocs {
			a.Free()
		}
		tr.end(s)
		r.arena.Reset()
		r.featPool.Put(feats)
		if err != nil {
			return out, err
		}
		out.loss += loss
		for l, blk := range mb.Blocks {
			r.layerDst[l].add(float64(blk.NumDst()))
		}
	}
	s = tr.begin("nn.opt_step")
	r.opt.StepFlat(r.flat)
	tr.end(s)
	out.peak = r.gpu.Stats().Peak
	return out, nil
}

// compute is one micro-batch's forward, loss and backward, charging each
// layer's activations to the ledger before the layer runs, as the session
// does.
func (r *replayer) compute(b *sampling.Batch, mb *block.MicroBatch, feats *tensor.Matrix) (float32, error) {
	tr := r.tr
	s := tr.begin("gnn.forward")
	fwd, err := r.model.ForwardWithHook(mb, feats, func(layer int, planned int64) error {
		h := tr.begin("device.alloc_layer")
		a, err := r.gpu.Alloc(replayLayerTags[layer], planned)
		tr.end(h)
		if err != nil {
			return err
		}
		r.allocs = append(r.allocs, a)
		return nil
	})
	tr.end(s)
	if err != nil {
		return 0, fmt.Errorf("replay: forward: %w", err)
	}
	s = tr.begin("nn.loss")
	if cap(r.labels) < len(mb.Outputs) {
		r.labels = make([]int32, len(mb.Outputs))
	}
	labels := r.labels[:len(mb.Outputs)]
	for i, v := range mb.Outputs {
		labels[i] = r.ds.Labels[v]
	}
	scale := float32(len(mb.Outputs)) / float32(b.NumOutputNodes())
	probs := r.arena.Get(fwd.Logits.Rows, fwd.Logits.Cols)
	loss, dLogits, err := nn.CrossEntropyInto(probs, fwd.Logits, labels, scale)
	if err == nil {
		nn.Accuracy(fwd.Logits, labels)
	}
	tr.end(s)
	if err != nil {
		return 0, err
	}
	s = tr.begin("gnn.backward")
	_, err = r.model.Backward(fwd, dLogits)
	tr.end(s)
	return loss, err
}

// feedCache sends one micro-batch's input nodes through the stand-alone
// feature cache: every node is looked up, every miss is offered for
// admission with its degree, as the loaders do.
func (r *replayer) feedCache(inputs []graph.NodeID) {
	r.missBuf = r.missBuf[:0]
	s := r.tr.begin("pipeline.cache_lookup")
	for _, v := range inputs {
		if !r.cache.Lookup(v) {
			r.missBuf = append(r.missBuf, v)
		}
	}
	r.tr.end(s)
	s = r.tr.begin("pipeline.cache_admit")
	for _, v := range r.missBuf {
		r.cache.Admit(v, r.ds.Graph.Degree(v))
	}
	r.tr.end(s)
	if r.tr.active() {
		r.cacheLookups += len(inputs)
		r.cacheAdmits += len(r.missBuf)
	}
}

// coversOnce reports whether the groups hold every seed exactly once.
func coversOnce(seen map[graph.NodeID]int, seeds []graph.NodeID, groups [][]graph.NodeID) bool {
	clear(seen)
	total := 0
	for _, g := range groups {
		for _, v := range g {
			seen[v]++
			total++
		}
	}
	if total != len(seeds) || len(seen) != len(seeds) {
		return false
	}
	for _, v := range seeds {
		if seen[v] != 1 {
			return false
		}
	}
	return true
}

func errPct(predicted, actual int64) float64 {
	if actual == 0 {
		return 0
	}
	return 100 * math.Abs(float64(predicted-actual)) / float64(actual)
}
