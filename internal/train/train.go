// Package train runs GNN training against the simulated GPU, implementing
// both the baseline pipelines (DGL/PyG full-batch, Betty, Random/Range/METIS
// batch-level partitioning) and Buffalo's Algorithm 2: schedule bucket
// groups, build a micro-batch per group, and accumulate gradients across
// micro-batches before one optimizer step.
//
// Every tensor a CUDA framework would place in device memory is charged to
// the GPU ledger: model parameters, gradients and optimizer state up front;
// per micro-batch, the input-feature tensor and the layer activations
// (charged layer by layer during the forward pass, so OOM faults fire
// exactly where a CUDA allocation would fail). Phase timings follow Fig 11's
// component breakdown.
//
// All execution paths — Session on one GPU and DataParallel across several,
// each with or without the pipelined loader — drive one shared iteration
// engine (engine.go); they differ only in their stager (how features reach
// the device) and in whether planning runs inline or in a background stage
// (loader in pipeline.go).
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
	"buffalo/internal/nn"
	"buffalo/internal/obs"
	"buffalo/internal/pipeline"
	"buffalo/internal/sampling"
	"buffalo/internal/tensor"
)

// System selects the training pipeline.
type System string

// Supported systems. DGL and PyG are whole-batch (no partitioning); Betty
// and Buffalo partition per their papers; Random/Range/Metis are the Fig 16
// batch-level partitioning strategies.
const (
	DGL     System = "dgl"
	PyG     System = "pyg"
	Betty   System = "betty"
	Buffalo System = "buffalo"
	RandomP System = "random"
	RangeP  System = "range"
	MetisP  System = "metis"
)

// pygComputePenalty scales PyG's recorded GPU-compute phase. The paper's
// cited benchmark reports DGL at ~2x PyG's training throughput for GNNs on
// identical hardware; the simulated clock reflects that constant.
const pygComputePenalty = 2.0

// Phases is the Fig 11 component breakdown of one iteration.
type Phases struct {
	Scheduling      time.Duration // Buffalo scheduler
	REGConstruction time.Duration // Betty
	MetisPartition  time.Duration // Betty / METIS-strategy partitioning
	ConnectionCheck time.Duration // naive block generation, check part
	BlockGen        time.Duration // block construction (fast gen or naive build part)
	DataLoading     time.Duration // simulated H2D transfers
	GPUCompute      time.Duration // forward + backward + step
	// Communication is the multi-GPU all-reduce: the interconnect's busy
	// time for this iteration. Under the bucketed overlapped reducer only a
	// share of it extends the iteration — see IterationResult.ExposedComm
	// and HiddenComm for the split; sequentially it is fully exposed.
	Communication time.Duration
}

// Total sums all phases.
func (p Phases) Total() time.Duration {
	return p.Scheduling + p.REGConstruction + p.MetisPartition +
		p.ConnectionCheck + p.BlockGen + p.DataLoading + p.GPUCompute + p.Communication
}

// Planning sums the phases the planner performs before compute can start:
// scheduling, partitioning, and block generation. The sequential session pays
// it inline every iteration; the pipelined loader runs it in a background
// stage where it can hide behind the previous iteration's execution.
func (p Phases) Planning() time.Duration {
	return p.Scheduling + p.REGConstruction + p.MetisPartition +
		p.ConnectionCheck + p.BlockGen
}

// Add accumulates other's components into p (for aggregating across
// iterations in reports).
func (p *Phases) Add(other Phases) {
	p.Scheduling += other.Scheduling
	p.REGConstruction += other.REGConstruction
	p.MetisPartition += other.MetisPartition
	p.ConnectionCheck += other.ConnectionCheck
	p.BlockGen += other.BlockGen
	p.DataLoading += other.DataLoading
	p.GPUCompute += other.GPUCompute
	p.Communication += other.Communication
}

// Config describes a training session.
type Config struct {
	System  System
	Model   gnn.Config
	Fanouts []int
	// BatchSize is the number of seed (output) nodes sampled per iteration.
	BatchSize int
	// MemBudget is the simulated GPU capacity in bytes.
	MemBudget int64
	// MicroBatches fixes K (> 0) instead of letting the system search for
	// the smallest feasible K against the budget.
	MicroBatches int
	// LearningRate for the Adam optimizer; 0 defaults to 0.01.
	LearningRate float32
	// GPUSpeedup is the modeled ratio of accelerator math throughput to
	// this host's single-core throughput: the simulated kernel clock
	// advances by measured-CPU-time / GPUSpeedup. 0 defaults to 100,
	// roughly one GPU vs one CPU core on dense float32 math. This is what
	// keeps the Fig 5/11 phase ratios faithful — partitioning and block
	// generation run at native speed on both platforms, while the GNN math
	// the paper runs on CUDA cores must not be billed at CPU speed. No
	// caller in this repository sets it; it stays because bench/README.md
	// names it, until ROADMAP 1(a)'s modelled device clock replaces it.
	GPUSpeedup float64
	Seed       int64

	// CommOverlap enables the bucketed overlapped all-reduce for multi-GPU
	// runs: gradients are split into size-bounded buckets (BucketBytes) and
	// each bucket's ring reduce launches as its gradients become ready in
	// backward order, hiding behind the compute tails still running. Losses
	// are bit-identical either way (one combine, fixed bucket→replica
	// accumulation order); only the timing model changes — Communication
	// still records the interconnect's busy time, but only ExposedComm
	// extends the iteration. Off, one ring all-reduce of the whole payload
	// launches when the slowest replica finishes, so it is exposed in full.
	CommOverlap bool
	// BucketBytes bounds each gradient bucket's payload under CommOverlap.
	// 0 defaults to 32 KB — the DDP-style 25 MB bucket mapped through the
	// repo's GB→MB scaling convention (DESIGN.md §3).
	BucketBytes int64

	// ZeRO1 replaces the multi-GPU gradient all-reduce with the sharded
	// collective pair and shards the optimizer state with it: per-bucket
	// ring reduce-scatters (each replica ends owning the fully reduced 1/n
	// shard of the flat gradient buffer), a per-shard optimizer step on
	// every replica concurrently, and one ring all-gather broadcasting the
	// updated parameter values. Each replica keeps Adam moments and a
	// resident gradient shard for only its 1/n of the flat buffer, dropping
	// ~(n-1)/n of the optimizer+gradient bytes from every replica's ledger
	// (see memest.ZeRO1FixedBytes). Wire time per bucket halves and the
	// optimizer step parallelizes n-ways; losses stay bit-identical to the
	// all-reduce path (the same elementwise additions with the same fixed
	// replica order, and Adam's update is elementwise — see nn.FlatBuffer
	// and nn.Adam.StepFlat). Composes with CommOverlap: on, the
	// reduce-scatters launch at the buckets' backward ready times; off,
	// they all launch after the slowest replica (the monolithic comparison
	// point). Single-GPU runs ignore it.
	ZeRO1 bool

	// Obs optionally attaches an observability recorder (see internal/obs):
	// the session's GPU ledger, the scheduler, block generation and every
	// iteration phase report to it. Nil disables recording at zero cost.
	// Phase spans are recorded with the same measured durations accumulated
	// into Phases, so span sums per kind equal the phase totals exactly.
	Obs *obs.Recorder
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch c.System {
	case DGL, PyG, Betty, Buffalo, RandomP, RangeP, MetisP:
	default:
		return fmt.Errorf("train: unknown system %q", c.System)
	}
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if len(c.Fanouts) != c.Model.Layers {
		return fmt.Errorf("train: %d fanouts for %d layers", len(c.Fanouts), c.Model.Layers)
	}
	if c.BatchSize < 1 {
		return fmt.Errorf("train: BatchSize must be >= 1")
	}
	if c.MemBudget < 1 {
		return fmt.Errorf("train: MemBudget must be >= 1")
	}
	if c.BucketBytes < 0 {
		return fmt.Errorf("train: BucketBytes must be >= 0")
	}
	return nil
}

// EffectiveBucketBytes reports the gradient-bucket bound the overlapped
// reducer uses: BucketBytes, or its 32 KB default when unset. The engine
// flattens parameters with it, and reporting layers (CLI, experiments) print
// it as the resolved knob.
func (c Config) EffectiveBucketBytes() int64 {
	if c.BucketBytes > 0 {
		return c.BucketBytes
	}
	return 32 << 10
}

// gpuSpeedup returns the configured speedup with its default.
func (c Config) gpuSpeedup() float64 {
	if c.GPUSpeedup <= 0 {
		return 100
	}
	return c.GPUSpeedup
}

// validateFor checks cfg against the dataset's shape (shared by every
// session constructor).
func validateFor(ds *datagen.Dataset, cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if cfg.Model.InDim > ds.FeatDim() {
		return fmt.Errorf("train: model InDim %d exceeds dataset feature dim %d", cfg.Model.InDim, ds.FeatDim())
	}
	if cfg.Model.OutDim < ds.NumClasses {
		return fmt.Errorf("train: model OutDim %d below %d classes", cfg.Model.OutDim, ds.NumClasses)
	}
	return nil
}

// IterationResult reports one training iteration.
type IterationResult struct {
	Loss     float32
	Accuracy float64
	K        int   // micro-batches executed
	Peak     int64 // device peak bytes during the iteration
	// PredictedPeak is the scheduler's predicted device peak for the plan it
	// chose (the winning group estimate plus the fixed resident footprint);
	// 0 for systems without a memory estimator. Compare against Peak for the
	// estimator's live accuracy (§V-D).
	PredictedPeak int64
	// PerMicroBytes is each micro-batch's features+activations footprint
	// (Fig 14's load-balance data).
	PerMicroBytes []int64
	// TotalNodes is the summed node count across micro-batches (Fig 16's
	// computation-efficiency numerator).
	TotalNodes int64
	// HiddenTransfer is the share of this iteration's H2D transfer time that
	// overlapped with compute instead of stalling it — always 0 for the
	// sequential path, where every copy is synchronous and fully exposed.
	// Under a pipelined loader DataLoading counts only the exposed stalls,
	// and DataLoading + HiddenTransfer equals the copy engine's busy time.
	HiddenTransfer time.Duration
	// ExposedPlanning is the share of this iteration's planning cost
	// (Phases.Planning) that could not hide behind the previous iteration's
	// execution window under the pipelined loader — the modeled consumer
	// starvation, the planning analogue of the exposed-copy accounting in
	// DataLoading. Always 0 for the sequential session, where planning is
	// inline and its phases are charged in full.
	ExposedPlanning time.Duration
	// ExposedComm is the share of this iteration's all-reduce time that
	// stalled the training loop: the interconnect work that spilled past the
	// slowest replica's compute tail. Under the sequential (monolithic)
	// reduce it equals Phases.Communication — the whole reduce runs after
	// compute. Under CommOverlap, bucket reduces launch during the backward
	// tail and ExposedComm counts only what the optimizer step had to wait
	// for, with ExposedComm + HiddenComm == Phases.Communication.
	ExposedComm time.Duration
	// HiddenComm is the share of the all-reduce that ran behind still-active
	// compute — the communication analogue of HiddenTransfer. Always 0
	// without CommOverlap.
	HiddenComm time.Duration
	// Pipelined marks results produced by a pipelined loader, whose planning
	// phases overlap compute and therefore do not extend the iteration.
	Pipelined bool
	Phases    Phases
}

// CriticalPath is the end-to-end time the training loop experiences for this
// iteration. Sequentially every phase runs back to back, so it is the phase
// sum — except that the all-reduce contributes only its exposed share, since
// the bucketed overlapped reducer (Config.CommOverlap) can hide part of the
// interconnect time behind compute even without the pipelined loader. Under
// the pipelined loader the planning phases (scheduling, partition, block
// generation) run in a background stage and overlap the previous iteration's
// execution; their clocks still record where the work went, but only the
// exposed share extends the iteration, on top of the exposed copies, compute,
// and exposed communication.
func (r *IterationResult) CriticalPath() time.Duration {
	if !r.Pipelined {
		return r.Phases.Total() - r.Phases.Communication + r.ExposedComm
	}
	return r.ExposedPlanning + r.Phases.DataLoading + r.Phases.GPUCompute + r.ExposedComm
}

// Session is a live training run on one simulated GPU: the iteration engine
// over a single replica. NewSession plans inline and stages synchronously;
// NewPipelinedSession puts the asynchronous loader in front, which reproduces
// the sequential batch sequence for a given Config.Seed, so results are
// comparable batch for batch and only the timing model (overlap, cache hits)
// differs. RunIteration must be called from one goroutine.
type Session struct {
	Cfg   Config
	Data  *datagen.Dataset
	Model *gnn.Model
	GPU   *device.GPU

	eng        *engine
	ld         *loader            // nil for the sequential session
	fixedAlloc *device.Allocation // params + grads + optimizer state
}

// NewSession builds a session: model, optimizer, device, and the fixed
// device-resident footprint. It fails with an OOM error if the model itself
// does not fit the budget.
func NewSession(ds *datagen.Dataset, cfg Config) (*Session, error) {
	if err := validateFor(ds, cfg); err != nil {
		return nil, err
	}
	model, err := gnn.New(cfg.Model)
	if err != nil {
		return nil, err
	}
	gpu := device.NewGPU(string(cfg.System), cfg.MemBudget, device.WithRecorder(cfg.Obs))
	// Fixed footprint: parameters + gradients + Adam moments (2x params).
	fixed := memest.TrainFixedBytes(model.Params.Bytes())
	alloc, err := gpu.Alloc("model+optimizer", fixed)
	if err != nil {
		return nil, fmt.Errorf("train: model does not fit the device: %w", err)
	}
	eng, err := newEngine(ds, cfg, []replica{{gpu: gpu, model: model}}, nil)
	if err != nil {
		alloc.Free()
		return nil, err
	}
	return &Session{Cfg: cfg, Data: ds, Model: model, GPU: gpu, eng: eng, fixedAlloc: alloc}, nil
}

// NewPipelinedSession is NewSession with the asynchronous loader in front:
// sampler, planner and prefetcher stages run ahead of compute. The cache
// budget (if any) is charged to the device ledger immediately; a budget the
// device cannot hold is an OOM error. Shutdown (or Close) stops the stages
// and releases everything.
func NewPipelinedSession(ds *datagen.Dataset, cfg Config, pcfg PipelineConfig) (*Session, error) {
	s, err := NewSession(ds, cfg)
	if err != nil {
		return nil, err
	}
	if s.ld, err = newLoader(s.eng, pcfg); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Shutdown stops the loader (when pipelined), waits for its stages to unwind,
// releases every staged feature tensor, the carried input rows, the cache
// reservation and the fixed device allocation. Idempotent; returns the
// loader's first stage failure, if any (a clean shutdown, and every
// sequential one, returns nil).
func (s *Session) Shutdown() error {
	var err error
	if s.ld != nil {
		err = s.ld.close()
	}
	s.eng.dropCarries()
	if s.fixedAlloc != nil {
		s.fixedAlloc.Free()
		s.fixedAlloc = nil
	}
	return err
}

// Close is Shutdown for callers that do not need the loader's shutdown error
// (any stage failure already surfaced through RunIteration).
func (s *Session) Close() {
	_ = s.Shutdown() // error already surfaced via RunIteration
}

// SampleBatch draws the next batch of the session's inline stream — the one
// RunIteration of a sequential session consumes. The returned batch owns its
// storage (callers hold batches across iterations), unlike the recycled
// bundles RunIteration draws internally.
func (s *Session) SampleBatch() (*sampling.Batch, error) {
	b := &sampling.Batch{}
	if err := s.eng.sample(s.eng.stream, b); err != nil {
		return nil, err
	}
	return b, nil
}

// RunIteration executes one full training iteration: sample, plan, execute
// every micro-batch with gradient accumulation, and step the optimizer —
// inline, or consuming the next iteration the loader planned and staged.
func (s *Session) RunIteration() (*IterationResult, error) {
	return iterationResult(s.eng.runIteration(s.ld))
}

// RunIterationOn is the inline RunIteration against a pre-sampled batch (used
// by experiments that compare systems on identical batches).
func (s *Session) RunIterationOn(b *sampling.Batch) (*IterationResult, error) {
	return iterationResult(s.eng.runIterationOn(s.eng.getIterScratch(), b))
}

// iterationResult narrows the engine's result to the single-GPU view.
func iterationResult(res *MultiGPUResult, err error) (*IterationResult, error) {
	if err != nil {
		return nil, err
	}
	return &res.IterationResult, nil
}

// CacheStats snapshots the feature cache (zero value when not pipelined or
// caching is off).
func (s *Session) CacheStats() pipeline.CacheStats { return s.ld.cacheStats() }

// CacheHitRate reports the feature cache's lifetime hit rate (0 when not
// pipelined or caching is off).
func (s *Session) CacheHitRate() float64 { return s.ld.cacheStats().HitRate() }

// EpochResult summarizes one pass of TrainEpochs.
type EpochResult struct {
	Loss     float32
	Accuracy float64
}

// TrainEpochs runs n iterations (one sampled batch each) and returns the
// per-iteration loss/accuracy trajectory — the Fig 17 convergence data. No
// caller in this repository uses it; it stays as API of the Session type
// the root package re-exports.
func (s *Session) TrainEpochs(n int) ([]EpochResult, error) {
	out := make([]EpochResult, 0, n)
	for i := 0; i < n; i++ {
		res, err := s.RunIteration()
		if err != nil {
			return out, err
		}
		out = append(out, EpochResult{Loss: res.Loss, Accuracy: res.Accuracy})
	}
	return out, nil
}

// PoolStats reports the tensor-pool reuse counters of the session's compute
// arena.
func (s *Session) PoolStats() tensor.PoolStats { return s.eng.poolStats() }

// Evaluate runs inference (forward only, no gradients, no optimizer step)
// over the given nodes and reports mean loss and accuracy. The evaluation
// batch is built with the session's fanouts and runs through the same
// forward-only executor as InferenceSession.Infer: the ForwardOnly K-search
// splits it into budget-sized micro-batches whatever the configured system,
// since inference has no system-specific semantics, and each layer's
// activations are released once the next layer has consumed them. Only tests
// call it in this repository; it stays as API of the Session type the root
// package re-exports.
func (s *Session) Evaluate(nodes []graph.NodeID) (loss float32, acc float64, err error) {
	if len(nodes) == 0 {
		return 0, 0, fmt.Errorf("train: Evaluate needs at least one node")
	}
	return s.eng.evaluate(nodes)
}

// evaluate is Session.Evaluate over the engine's replica 0.
func (e *engine) evaluate(nodes []graph.NodeID) (loss float32, acc float64, err error) {
	sc := e.getIterScratch()
	b := &sc.batch
	if err := e.stream.SampleInto(b, nodes); err != nil {
		return 0, 0, err
	}
	var res InferResult
	correct := 0
	err = e.forward(sc, nil, &res, func(mb *block.MicroBatch, logits *tensor.Matrix) error {
		mLoss, _, labels, err := e.crossEntropy(b, mb, logits)
		if err != nil {
			return err
		}
		loss += mLoss
		correct += nn.Correct(logits, labels)
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	acc = float64(correct) / float64(b.NumOutputNodes())
	e.putIterScratch(sc)
	return loss, acc, nil
}
