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

	sessionCore
	cache       *pipeline.FeatureCache // nil without a cache budget
	cacheBudget int64

	// Per-request scratch, reused across Infer calls (one request runs at a
	// time per session): the iteration bundle the forward-only executor plans
	// and generates in, and the request dedup set.
	sc       iterScratch
	seen     map[graph.NodeID]struct{}
	seedsBuf []graph.NodeID
}

// NewInferenceSession builds a forward-only session on a simulated GPU named
// "serve". cacheBudget device bytes (0 = no cache) are reserved for the
// degree-aware feature cache. The model's parameter values are charged up
// front; construction fails with an OOM error if they do not fit.
func NewInferenceSession(ds *datagen.Dataset, cfg Config, cacheBudget int64) (*InferenceSession, error) {
	eng, err := newEngine(ds, cfg, setup{device: "serve", gpus: 1, serving: true, cacheBudget: cacheBudget})
	if err != nil {
		return nil, err
	}
	r := eng.replicas[0]
	s := &InferenceSession{Cfg: cfg, Data: ds, Model: r.model, GPU: r.gpu, sessionCore: sessionCore{eng}}
	if eng.caches != nil {
		s.cache, s.cacheBudget = eng.caches[0], cacheBudget
	}
	return s, nil
}

// CacheBudget reports the device bytes reserved for the feature cache.
func (s *InferenceSession) CacheBudget() int64 { return s.cacheBudget }

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
	if err := s.eng.checkOpen(); err != nil {
		return nil, err
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

	err := s.eng.forward(&s.sc, s.cache, res, func(mb *block.MicroBatch, logits *tensor.Matrix) error {
		for i, v := range mb.Outputs {
			res.Classes[v] = argmaxRow(logits.Row(i))
		}
		return nil
	})
	if err != nil {
		return nil, err
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
