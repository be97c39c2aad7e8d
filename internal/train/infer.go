package train

import (
	"fmt"
	"time"

	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
	"buffalo/internal/pipeline"
	"buffalo/internal/schedule"
	"buffalo/internal/tensor"
)

// InferenceSession is the forward-only counterpart of Session: the same
// sample → estimate → K-search → block-gen → execute spine, run in the
// cheaper inference regime. Two things shrink on the ledger relative to
// training: the fixed footprint holds parameter values only (no gradient
// buffers, no Adam moments — a third of the training residency), and the
// estimator runs ForwardOnly, pricing each micro-batch at its largest
// adjacent layer pair instead of the whole activation stack, because the
// executor frees a layer's activations as soon as the next layer has
// consumed them. Both effects widen the activation budget the K-search sees,
// so the same device serves strictly larger request batches per micro-batch
// than it could train.
//
// An optional degree-aware feature cache (the pipeline's FeatureCache)
// absorbs H2D traffic under skewed request distributions; its budget is
// charged to the ledger up front so the planner sees the reduced headroom.
//
// An InferenceSession is not safe for concurrent use — the serving layer
// (internal/serve) owns one per executor goroutine.
type InferenceSession struct {
	Cfg   Config
	Data  *datagen.Dataset
	Model *gnn.Model
	GPU   *device.GPU

	eng         *engine
	fixedAlloc  *device.Allocation // parameter values only
	cache       *pipeline.FeatureCache
	cacheAlloc  *device.Allocation
	cacheBudget int64

	// Per-request scratch, reused across Infer calls (one request runs at a
	// time per session): the iteration bundle (batch, estimator, scheduler
	// scratch), one block-generation scratch (groups execute sequentially, so
	// one suffices), the request dedup set, the per-group node buffer, and
	// the layer-allocation slots.
	sc          iterScratch
	gen         block.GenScratch
	seen        map[graph.NodeID]struct{}
	seedsBuf    []graph.NodeID
	nodesBuf    []graph.NodeID
	layerAllocs []*device.Allocation
}

// NewInferenceSession builds a forward-only session on a simulated GPU named
// "serve". cacheBudget device bytes (0 = no cache) are reserved for the
// degree-aware feature cache. The model's parameter values are charged up
// front; construction fails with an OOM error if they do not fit.
func NewInferenceSession(ds *datagen.Dataset, cfg Config, cacheBudget int64) (*InferenceSession, error) {
	if err := validateFor(ds, cfg); err != nil {
		return nil, err
	}
	model, err := gnn.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	gpu := device.NewGPU("serve", cfg.MemBudget, device.WithRecorder(cfg.Obs))
	alloc, err := gpu.Alloc("serve/model", model.Params.ValueBytes())
	if err != nil {
		return nil, fmt.Errorf("train: model does not fit the device: %w", err)
	}
	eng, err := newEngine(ds, cfg, []replica{{gpu: gpu, model: model}}, nil)
	if err != nil {
		alloc.Free()
		return nil, err
	}
	s := &InferenceSession{
		Cfg: cfg, Data: ds, Model: model, GPU: gpu,
		eng:        eng,
		fixedAlloc: alloc,
	}
	if cacheBudget > 0 {
		cacheAlloc, err := gpu.Alloc("serve/feature-cache", cacheBudget)
		if err != nil {
			alloc.Free()
			return nil, fmt.Errorf("train: feature cache does not fit the device: %w", err)
		}
		s.cacheAlloc = cacheAlloc
		s.cache = pipeline.NewFeatureCache(cacheBudget, eng.rowBytes, cfg.Obs.Metrics())
		s.cacheBudget = cacheBudget
	}
	return s, nil
}

// Close releases the session's fixed device allocations.
func (s *InferenceSession) Close() {
	if s.cacheAlloc != nil {
		s.cacheAlloc.Free()
		s.cacheAlloc = nil
	}
	if s.fixedAlloc != nil {
		s.fixedAlloc.Free()
		s.fixedAlloc = nil
	}
}

// CacheBudget reports the device bytes reserved for the feature cache.
func (s *InferenceSession) CacheBudget() int64 { return s.cacheBudget }

// CacheStats reports the feature cache's counters (zero-valued without a
// cache).
func (s *InferenceSession) CacheStats() pipeline.CacheStats {
	if s.cache == nil {
		return pipeline.CacheStats{}
	}
	return s.cache.Stats()
}

// PoolStats reports the tensor-pool reuse counters of the session's compute
// arena.
func (s *InferenceSession) PoolStats() tensor.PoolStats { return s.eng.poolStats() }

// InferBreakdown is the per-phase wall time of one Infer call, the serving
// analogue of Phases: host-side assembly (sample + plan + block gen +
// feature staging), then the simulated device clocks (H2D stalls, scaled
// compute).
type InferBreakdown struct {
	Sample   time.Duration
	Plan     time.Duration
	BlockGen time.Duration
	Gather   time.Duration // feature staging: the cache probe; no host rows are copied
	H2D      time.Duration
	Compute  time.Duration
}

// Assembly is the host-side share of the breakdown: everything that happens
// before the device sees bytes.
func (b InferBreakdown) Assembly() time.Duration {
	return b.Sample + b.Plan + b.BlockGen + b.Gather
}

// InferResult reports one coalesced inference batch.
type InferResult struct {
	// Classes is the predicted class per requested node (logits argmax).
	Classes map[graph.NodeID]int32
	// K is the number of micro-batches the K-search split the batch into.
	K int
	// Peak / PredictedPeak mirror IterationResult: actual ledger high-water
	// mark vs the scheduler's ForwardOnly estimate on the resident base.
	Peak          int64
	PredictedPeak int64
	// CacheHits/CacheMisses count this batch's feature-cache outcomes.
	CacheHits   int64
	CacheMisses int64
	Breakdown   InferBreakdown
}

// Infer runs forward-only inference for the given request nodes: one sampled
// batch seeded by the requests, split by the ForwardOnly K-search against
// the live activation budget, executed micro-batch by micro-batch with
// activations freed as each layer's consumer finishes. Duplicate nodes are
// collapsed (Classes carries one entry per distinct node). Records the same
// span kinds as a training iteration — including KindIteration, so the -live
// meter's batch rate and phase mix work unchanged — plus the estimator's
// predicted-vs-actual error.
func (s *InferenceSession) Infer(nodes []graph.NodeID) (*InferResult, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("train: Infer needs at least one node")
	}
	seeds := s.dedupInto(nodes)
	t0 := time.Now()
	s.GPU.ResetPeak()
	res := &InferResult{Classes: make(map[graph.NodeID]int32, len(seeds))}

	tS := time.Now()
	b := &s.sc.batch
	if err := s.eng.stream.SampleInto(b, seeds); err != nil {
		return nil, err
	}
	res.Breakdown.Sample = time.Since(tS)
	s.Cfg.Obs.Span(obs.KindSample, "", "serve", res.Breakdown.Sample,
		int64(len(seeds)), int64(len(s.Cfg.Fanouts)))

	est := &s.sc.est
	if err := s.eng.estimatorInto(est, b); err != nil {
		return nil, err
	}
	est.ForwardOnly = true
	opts := schedule.Options{MemLimit: s.eng.planLimit(), Obs: s.Cfg.Obs, Scratch: &s.sc.sched}
	tP := time.Now()
	plan, err := schedule.Schedule(b, est, opts)
	res.Breakdown.Plan = time.Since(tP)
	if err != nil {
		return nil, err
	}
	res.K = len(plan.Groups)
	res.PredictedPeak = plan.MaxEstimate() + s.eng.residentBase()
	s.Cfg.Obs.Span(obs.KindPlan, "", "serve", res.Breakdown.Plan,
		plan.MaxEstimate(), int64(plan.K))

	for _, g := range plan.Groups {
		tB := time.Now()
		s.nodesBuf = g.AppendNodes(s.nodesBuf[:0])
		mb, err := block.GenerateInto(&s.gen, b, s.nodesBuf, s.Cfg.Obs)
		dt := time.Since(tB)
		res.Breakdown.BlockGen += dt
		if err != nil {
			return nil, err
		}
		s.Cfg.Obs.Span(obs.KindBlockGen, "", "fast", dt, mb.NumNodes(), int64(len(s.nodesBuf)))
		if err := s.executeInfer(mb, res); err != nil {
			return nil, err
		}
	}

	res.Peak = s.GPU.Stats().Peak
	if s.Cfg.Obs.Enabled() {
		s.Cfg.Obs.Span(obs.KindIteration, s.GPU.Name(), "serve",
			time.Since(t0), res.Peak, int64(res.K))
		memest.RecordEstimate(s.Cfg.Obs, s.GPU.Name(), res.PredictedPeak, res.Peak)
	}
	s.eng.publishPoolStats()
	return res, nil
}

// executeInfer stages and computes one forward-only micro-batch: probe the
// cache when present (hits are already device-resident under the cache
// reservation and pay no H2D), charge the missed rows, forward with layer 0
// reading the feature table in place and the early-free schedule the
// ForwardOnly estimator prices (a layer's activations are released once the
// next layer has consumed them, the features once layer 0 has), then argmax
// the logits into res.Classes.
func (s *InferenceSession) executeInfer(mb *block.MicroBatch, res *InferResult) error {
	tG := time.Now()
	defer s.eng.arena.Reset()
	missBytes := s.eng.featBytes(mb)
	if s.cache != nil {
		inputs := mb.InputNodes()
		misses := s.cache.Probe(inputs, s.Data.Graph)
		res.CacheHits += int64(len(inputs)) - misses
		res.CacheMisses += misses
		missBytes = misses * s.eng.rowBytes
	}
	res.Breakdown.Gather += time.Since(tG)

	var featAlloc *device.Allocation
	if missBytes > 0 {
		a, err := s.GPU.Alloc("serve/features", missBytes)
		if err != nil {
			return fmt.Errorf("train: staging features: %w", err)
		}
		featAlloc = a
		res.Breakdown.H2D += s.GPU.TransferH2D(missBytes)
	}
	if cap(s.layerAllocs) < len(s.Model.Layers) {
		s.layerAllocs = make([]*device.Allocation, len(s.Model.Layers))
	}
	layerAllocs := s.layerAllocs[:len(s.Model.Layers)]
	for i := range layerAllocs {
		layerAllocs[i] = nil
	}
	free := func(a **device.Allocation) {
		if *a != nil {
			(**a).Free()
			*a = nil
		}
	}
	defer func() {
		for i := range layerAllocs {
			free(&layerAllocs[i])
		}
		free(&featAlloc)
	}()

	tFwd := time.Now()
	fwd, err := s.Model.ForwardTable(mb, s.eng.table, func(layer int, planned int64) error {
		// Release what this layer no longer needs before charging it: the
		// input features once layer 0 has run, layer l-2's activations once
		// layer l-1 has. Freeing first keeps the ledger's peak equal to the
		// adjacent-pair window the ForwardOnly estimator predicted.
		if layer >= 1 {
			free(&featAlloc)
		}
		if layer >= 2 {
			free(&layerAllocs[layer-2])
		}
		a, err := s.GPU.Alloc(serveLayerTag(layer), planned)
		if err != nil {
			return err
		}
		layerAllocs[layer] = a
		return nil
	})
	if err != nil {
		return fmt.Errorf("train: inference forward: %w", err)
	}
	res.Breakdown.Compute += s.eng.addCompute(0, time.Since(tFwd), obs.KindForward)
	for i, v := range mb.Outputs {
		res.Classes[v] = argmaxRow(fwd.Logits.Row(i))
	}
	return nil
}

// argmaxRow returns the index of the row's largest value.
func argmaxRow(row []float32) int32 {
	best := int32(0)
	for j := 1; j < len(row); j++ {
		if row[j] > row[best] {
			best = int32(j)
		}
	}
	return best
}

// serveLayerTags precomputes the ledger tags for the depths real configs use;
// serveLayerTag falls back to formatting for deeper (cold) models.
var serveLayerTags = [8]string{
	"serve/activations/layer0", "serve/activations/layer1",
	"serve/activations/layer2", "serve/activations/layer3",
	"serve/activations/layer4", "serve/activations/layer5",
	"serve/activations/layer6", "serve/activations/layer7",
}

func serveLayerTag(l int) string {
	if l < len(serveLayerTags) {
		return serveLayerTags[l]
	}
	return coldTag("serve/activations/layer", l)
}

// dedupInto collapses duplicate request nodes into the session's reusable
// seed buffer, preserving first-seen order (SampleBatch requires distinct
// seeds; concurrent users may ask for the same node). The returned slice is
// valid until the next Infer call.
func (s *InferenceSession) dedupInto(nodes []graph.NodeID) []graph.NodeID {
	if s.seen == nil {
		s.seen = make(map[graph.NodeID]struct{}, len(nodes))
	}
	clear(s.seen)
	s.seedsBuf = s.seedsBuf[:0]
	for _, v := range nodes {
		if _, ok := s.seen[v]; ok {
			continue
		}
		s.seen[v] = struct{}{}
		s.seedsBuf = append(s.seedsBuf, v)
	}
	return s.seedsBuf
}
