package train

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"buffalo/internal/baseline/betty"
	"buffalo/internal/block"
	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/memest"
	"buffalo/internal/nn"
	"buffalo/internal/obs"
	"buffalo/internal/partition"
	"buffalo/internal/pipeline"
	"buffalo/internal/sampling"
	"buffalo/internal/schedule"
	"buffalo/internal/tensor"
)

// replica pairs one simulated device with its model copy. Replica 0 is the
// authoritative one the optimizer steps; single-GPU sessions have exactly
// one replica, data-parallel runs have one per cluster device.
type replica struct {
	gpu   *device.GPU
	model *gnn.Model
}

// engine is the iteration spine every execution path drives: Session and
// DataParallel, each sequential or behind the pipelined loader, share this
// one copy of sampling, planning (system switch + Buffalo K-search), memory
// estimation, micro-batch construction, feature staging, charged compute,
// and phase/obs accounting. The training paths differ only in where plans
// come from (inline vs a background planner stage) and how features reach
// the device (synchronous copies vs prefetched async copies), which is the
// stager interface. Forward-only work — Session.Evaluate and
// InferenceSession.Infer — runs through one method, forward, which plans
// with the ForwardOnly estimator and frees each layer once the next has
// consumed it. The engine also owns the devices and everything reserved on
// them for the whole run: newEngine reserves, close releases.
type engine struct {
	cfg  Config
	data *datagen.Dataset
	// table is the [nodes x InDim] feature matrix layer 0 reads through each
	// micro-batch's input list (gnn.Model.ForwardTable): a view of the
	// dataset's features at full width, a narrowed copy made once otherwise.
	// Read-only and shared by every goroutine and replica; no host copy of a
	// micro-batch's input rows is ever made.
	table *tensor.Matrix
	// stream is the consumer goroutine's batch source: inline iterations,
	// SampleBatch, Evaluate and Infer all draw from its one generator, in call
	// order. A pipelined loader samples in its own goroutine from a second
	// stream with the same seed (see newLoader).
	stream   *sampling.Stream
	clusterC float64
	rowBytes int64

	// opts steps replica 0's flat buffer, the one the combine leaves fully
	// reduced: one full-range Adam, or under ZeRO-1 one Adam per replica,
	// each owning one contiguous 1/n shard of the buffer and holding moment
	// state for it alone. Shard r's step is charged to replica r, so the
	// step's wall cost is the slowest shard.
	opts []*nn.Adam
	// flat0 is replica 0's flat parameter buffer: every Param.Value/Grad of
	// every replica is a zero-copy view into its replica's buffer (see
	// nn.ParamSet.Flatten in newEngine), and the combine/step path operates
	// on these contiguous buffers directly.
	flat0 *nn.FlatBuffer

	replicas []replica
	cluster  *device.Cluster // nil for single-GPU sessions

	// fixed and cacheAllocs are what newEngine reserved on the devices: each
	// replica's fixed footprint, then its feature-cache reservation. close
	// frees them. caches[i] is replica i's feature cache (nil when there is
	// none), each with its own budget and residency: a replica only ever
	// sees the micro-batches dispatched to it, so its cache converges on the
	// hubs of its own traffic with no cross-device coherence to maintain.
	// All report into one metrics registry, whose "pipeline/cache/*"
	// counters therefore aggregate cluster-wide traffic.
	fixed       []*device.Allocation
	cacheAllocs []*device.Allocation
	caches      []*pipeline.FeatureCache

	// ld is the asynchronous loader in front of the engine; nil for the
	// sequential paths and for serving.
	ld *loader
	// closed is set by close: every later iteration, Evaluate or Infer
	// returns ErrClosed before it charges anything.
	closed atomic.Bool

	// Per-iteration scratch owned by the single consumer goroutine that runs
	// executeIteration: hoisted out of the hot loop so steady-state
	// iterations allocate nothing for it.
	preStats []device.Stats
	compute  []time.Duration
	bwdLast  []time.Duration
	labels   []int32
	// The device records of the reservations one micro-batch at a time holds
	// (device.GPU.AllocInto): computeMicroBatch's layer charges, seqStager's
	// staged micro-batch and its feature charge, and forward's features and
	// two-layer activation window. Each is freed before it is reserved again.
	layerRecs  []device.Allocation // one per model layer
	staged     stagedMB
	stagedFeat device.Allocation
	fwdFeat    device.Allocation
	fwdWindow  [2]device.Allocation

	// resident[d] is the set of input rows idle on replica d's device
	// (seqStager): what released micro-batches left there as cached bytes,
	// least recently used first. Consumer goroutine only.
	resident []residentRows

	// budgetOverride freezes the activation budget at pipeline construction:
	// a background planner must not read the live ledger while the consumer's
	// transient allocations fluctuate, or plans (and K) would depend on
	// scheduling timing. Zero means "read the live ledger" (sequential mode).
	budgetOverride int64

	// spec is the memory model's view of the configured model, fixed for the
	// session (validated once in newEngine via memest.New).
	spec memest.ModelSpec

	// Pool gauges (nil when metrics are off): last-snapshot hit/miss/resize/
	// outstanding/retained-bytes counters of the arena's pool, refreshed once
	// per iteration and per inference request.
	poolHitsG, poolMissesG, poolResizesG, poolOutstandingG, poolRetainedG *obs.Gauge
	// arena hands the model layers their forward/backward intermediates,
	// reclaimed wholesale after each micro-batch's compute (and after each
	// serving/eval forward). Micro-batches execute strictly sequentially on
	// the consumer goroutine — replicas share the arena safely.
	arena *tensor.Arena

	// scratchFree recycles iteration bundles (batch, estimator, scheduler and
	// block-generation scratch): a bundle is checked out when its batch is
	// sampled — by the consumer inline or by a loader's sampler goroutine —
	// and returned once executeIteration has consumed everything aliasing it.
	scratchMu   sync.Mutex
	scratchFree []*iterScratch
}

// iterScratch is the reusable working set one in-flight iteration owns end to
// end: the sampled batch, the analytical estimator, the scheduler scratch,
// one block-generation scratch per micro-batch slot, and the partition /
// micro-batch / result headers. Everything a pipeIter hands out aliases its
// bundle, so a bundle returns to the free list only after the iteration is
// fully consumed; dropping one on an error path is safe (the GC takes it).
type iterScratch struct {
	batch sampling.Batch
	est   memest.Estimator
	sched schedule.Scratch
	gens  []*block.GenScratch
	parts [][]graph.NodeID
	mbs   []*block.MicroBatch
	// estimates is what the plan priced each part at: the scheduler's group
	// estimates (aliasing sched) or a partitioned baseline's prices (in
	// prices); nil for DGL and PyG, which price nothing.
	estimates []int64
	prices    []int64
	// kSearched is the K Buffalo's search settled on (0 for the other
	// systems), a pipelined planner's next warm start. Groups a K above
	// the bucket count leaves empty are dropped, so it can exceed K.
	kSearched int
	res       IterationResult
	iter      pipeIter
}

func (e *engine) getIterScratch() *iterScratch {
	e.scratchMu.Lock()
	defer e.scratchMu.Unlock()
	if n := len(e.scratchFree); n > 0 {
		sc := e.scratchFree[n-1]
		e.scratchFree[n-1] = nil
		e.scratchFree = e.scratchFree[:n-1]
		return sc
	}
	return &iterScratch{}
}

func (e *engine) putIterScratch(sc *iterScratch) {
	if sc == nil {
		return
	}
	e.scratchMu.Lock()
	e.scratchFree = append(e.scratchFree, sc)
	e.scratchMu.Unlock()
}

// setup is what newEngine builds beyond the spine: the devices, and what
// each replica reserves on its own.
type setup struct {
	// device names the one stand-alone device; "" builds a cluster of gpus
	// devices instead (gpu0, gpu1, …).
	device string
	gpus   int
	// serving keeps parameter values only on the device, under serve/ tags.
	serving bool
	// cacheBudget reserves this many bytes per device for a feature cache;
	// 0 reserves none.
	cacheBudget int64
}

// newEngine validates cfg against the dataset, builds the devices su names
// and one model per replica, wires the shared spine over them and reserves
// every replica's fixed footprint and feature cache (reserve). A failure
// frees whatever it had reserved; close releases the rest.
//
// Every replica's parameter storage is flattened here: one contiguous value
// buffer and one contiguous grad buffer per replica, with the original
// Param tensors rebound as zero-copy views (nn.ParamSet.Flatten), so bulk
// gradient work runs as flat-slice sweeps. The bucket index is built with
// the session's bucket bound; the shard count is the replica count when the
// sharded collectives are on (so every bucket splits evenly across
// replicas) and 1 otherwise (no padding — layouts, footprints and ledger
// charges match the per-tensor storage exactly).
func newEngine(ds *datagen.Dataset, cfg Config, su setup) (*engine, error) {
	if err := validateFor(ds, cfg); err != nil {
		return nil, err
	}
	if su.gpus < 1 {
		return nil, fmt.Errorf("train: need at least 1 GPU, got %d", su.gpus)
	}
	var cluster *device.Cluster
	if su.device == "" {
		var err error
		if cluster, err = device.NewCluster("gpu", su.gpus, cfg.MemBudget, device.WithRecorder(cfg.Obs)); err != nil {
			return nil, err
		}
	}
	n := su.gpus
	replicas := make([]replica, n)
	for i := range replicas {
		m, err := gnn.New(cfg.Model)
		if err != nil {
			return nil, err
		}
		replicas[i].model = m
		if cluster != nil {
			replicas[i].gpu = cluster.GPU(i)
		} else {
			replicas[i].gpu = device.NewGPU(su.device, cfg.MemBudget, device.WithRecorder(cfg.Obs))
		}
	}
	lr := cfg.LearningRate
	if lr == 0 {
		lr = 0.01
	}
	shards := 1
	if cfg.ZeRO1 && n > 1 {
		shards = n
	}
	var flat0 *nn.FlatBuffer
	for i, r := range replicas {
		fb, err := r.model.Params.Flatten(cfg.EffectiveBucketBytes(), shards)
		if err != nil {
			return nil, fmt.Errorf("train: flattening replica %d: %w", i, err)
		}
		if i == 0 {
			flat0 = fb
		}
	}
	spec := memest.SpecFromConfig(cfg.Model)
	e := &engine{
		cfg:       cfg,
		data:      ds,
		table:     ds.FeatureTable(cfg.Model.InDim),
		flat0:     flat0,
		stream:    sampling.NewStream(ds.Graph, cfg.BatchSize, cfg.Fanouts, cfg.Seed),
		clusterC:  memest.ClampC(ds.Graph.ApproxClusteringCoefficient(cfg.Seed, 2000)),
		rowBytes:  spec.FeatureRowBytes(),
		spec:      spec,
		replicas:  replicas,
		cluster:   cluster,
		preStats:  make([]device.Stats, n),
		compute:   make([]time.Duration, n),
		bwdLast:   make([]time.Duration, n),
		resident:  make([]residentRows, n),
		layerRecs: make([]device.Allocation, cfg.Model.Layers),
		arena:     tensor.NewArena(tensor.NewPool()),
	}
	for _, r := range replicas {
		r.model.SetArena(e.arena)
	}
	if m := cfg.Obs.Metrics(); m != nil {
		e.poolHitsG = m.Gauge("tensor/pool/hits")
		e.poolMissesG = m.Gauge("tensor/pool/misses")
		e.poolResizesG = m.Gauge("tensor/pool/resizes")
		e.poolOutstandingG = m.Gauge("tensor/pool/outstanding")
		e.poolRetainedG = m.Gauge("tensor/pool/retained_bytes")
	}
	for r := range shards {
		lo, hi := flat0.ShardRange(r)
		e.opts = append(e.opts, nn.NewAdamShard(lr, lo, hi))
	}
	if err := e.reserve(su); err != nil {
		return nil, err
	}
	return e, nil
}

// reserve charges every replica's fixed footprint, then every replica's
// feature-cache reservation, building its cache, so every plan sees the
// headroom they leave. It runs once the parameters are flattened: the ZeRO-1
// charge needs the flat buffer's shard size. The fixed footprint is what a
// CUDA framework keeps resident for the whole run:
//   - training: parameters, gradients and both Adam moments;
//   - ZeRO-1 over more than one replica: the replicated parameter values,
//     and the resident gradient buffer and Adam moments of the replica's
//     1/n shard alone (memest.ZeRO1FixedBytes), under a tag of their own;
//   - serving: parameter values only.
//
// A charge that does not fit is an OOM error, and frees every charge made
// before it.
func (e *engine) reserve(su setup) error {
	type charge struct {
		tag   string
		bytes int64
	}
	for i, r := range e.replicas {
		vals := r.model.Params.ValueBytes()
		charges := []charge{{"model+optimizer", memest.TrainFixedBytes(r.model.Params.Bytes())}}
		switch {
		case su.serving:
			charges = []charge{{"serve/model", vals}}
		case len(e.opts) > 1: // one optimizer per shard: ZeRO-1
			charges = []charge{{"model", vals},
				{"zero1/grads+optstate", memest.ZeRO1FixedBytes(vals, e.flat0.ShardBytes()) - vals}}
		}
		for _, c := range charges {
			a, err := r.gpu.Alloc(c.tag, c.bytes)
			if err != nil {
				e.freeReserved()
				if e.cluster != nil {
					return fmt.Errorf("train: replica %d does not fit: %w", i, err)
				}
				return fmt.Errorf("train: model does not fit the device: %w", err)
			}
			e.fixed = append(e.fixed, a)
		}
	}
	if su.cacheBudget <= 0 {
		return nil
	}
	tag, failed := "feature-cache", "reserving feature cache"
	if su.serving {
		tag, failed = "serve/feature-cache", "feature cache does not fit the device"
	}
	for _, r := range e.replicas {
		a, err := r.gpu.Alloc(tag, su.cacheBudget)
		if err != nil {
			e.freeReserved()
			return fmt.Errorf("train: %s: %w", failed, err)
		}
		e.cacheAllocs = append(e.cacheAllocs, a)
		e.caches = append(e.caches, pipeline.NewFeatureCache(su.cacheBudget, e.rowBytes, e.cfg.Obs.Metrics()))
	}
	return nil
}

// close is every session's one teardown: it stops the loader (when there is
// one), which releases every staged feature tensor, drops the resident input
// rows, then frees the cache reservations and the fixed footprints, leaving
// every device's ledger at zero. Idempotent; it returns the loader's first
// stage failure, if any (a clean shutdown, and every sequential one, returns
// nil).
func (e *engine) close() error {
	e.closed.Store(true)
	var err error
	if e.ld != nil {
		err = e.ld.close()
	}
	e.dropResident()
	e.freeReserved()
	return err
}

// ErrClosed is what RunIteration, RunIterationOn, Evaluate and Infer return
// once their session is closed: its devices no longer hold the model or the
// caches they would run against.
var ErrClosed = errors.New("train: session is closed")

// checkOpen returns ErrClosed once close has run.
func (e *engine) checkOpen() error {
	if e.closed.Load() {
		return ErrClosed
	}
	return nil
}

// freeReserved frees what reserve charged: the caches, then the fixed
// footprints.
func (e *engine) freeReserved() {
	for _, a := range e.cacheAllocs {
		a.Free()
	}
	for _, a := range e.fixed {
		a.Free()
	}
	e.cacheAllocs, e.fixed = nil, nil
}

// perDeviceCacheStats snapshots each device's feature cache, index-aligned
// with the replicas; nil when caching is off.
func (e *engine) perDeviceCacheStats() []pipeline.CacheStats {
	if e.caches == nil {
		return nil
	}
	out := make([]pipeline.CacheStats, len(e.caches))
	for i, c := range e.caches {
		out[i] = c.Stats()
	}
	return out
}

// cacheStats sums the per-device feature caches (zero value when caching is
// off).
func (e *engine) cacheStats() pipeline.CacheStats {
	var agg pipeline.CacheStats
	for _, st := range e.perDeviceCacheStats() {
		agg.Entries += st.Entries
		agg.UsedBytes += st.UsedBytes
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
	}
	return agg
}

// gpu0 is the reference device: budgets and resident footprints are measured
// against it (cluster devices are identical, so it stands for all of them).
func (e *engine) gpu0() *device.GPU { return e.replicas[0].gpu }

// iterDev is the device tag iteration-level spans carry: the device name for
// single-GPU runs, empty (cluster-scoped) for multi-GPU ones.
func (e *engine) iterDev() string {
	if e.cluster == nil || e.cluster.Size() == 1 {
		return e.gpu0().Name()
	}
	return ""
}

// activationBudget is the device memory available to one micro-batch's
// features + activations: what residentBase leaves of the device. In
// pipelined mode it is the frozen budget captured at pipeline start rather
// than the instantaneous ledger headroom.
func (e *engine) activationBudget() int64 {
	return e.gpu0().Capacity() - e.residentBase()
}

// planLimit is the memory cap every K-search plans against: 10% headroom
// under the activation budget for the analytical estimate's error. During
// compute the ledger charges a micro-batch only its input features and one
// activation charge per layer; loss, logits and backward buffers live in the
// host arena, so nothing rides on top of what the estimate prices.
func (e *engine) planLimit() int64 { return e.activationBudget() * 9 / 10 }

// residentBase is the stable device-resident footprint plans ride on top of:
// the live ledger for the sequential path, the frozen complement of the
// activation budget for the pipelined one (where Live fluctuates with
// in-flight prefetches). Rows idle on the device are cached, not live, so
// they count as free: any allocation reclaims them.
func (e *engine) residentBase() int64 {
	if e.budgetOverride > 0 {
		return e.gpu0().Capacity() - e.budgetOverride
	}
	return e.gpu0().Live()
}

// sample refills b with st's next batch and records the sampling span: the
// engine's own stream for inline iterations, the loader's for its sampler
// stage.
func (e *engine) sample(st *sampling.Stream, b *sampling.Batch) error {
	t0 := time.Now()
	if err := st.NextInto(b); err != nil {
		return err
	}
	e.cfg.Obs.Span(obs.KindSample, "", "batch", time.Since(t0),
		int64(len(b.Seeds)), int64(len(e.cfg.Fanouts)))
	return nil
}

// runIteration executes the next iteration: from the loader when one is
// attached, otherwise sampled here and run inline.
func (e *engine) runIteration() (*MultiGPUResult, error) {
	if e.ld != nil {
		return e.ld.runIteration()
	}
	sc := e.getIterScratch()
	if err := e.sample(e.stream, &sc.batch); err != nil {
		e.dropResident()
		return nil, err
	}
	return e.runIterationOn(sc, &sc.batch)
}

// runIterationOn is the inline iteration over batch b: plan → execute with
// synchronous staging → recycle the scratch bundle. A failure drops every
// replica's resident rows.
func (e *engine) runIterationOn(sc *iterScratch, b *sampling.Batch) (*MultiGPUResult, error) {
	it, err := e.planIteration(sc, b, 0)
	if err != nil {
		e.dropResident()
		return nil, err
	}
	res, err := e.executeIteration(it, seqStager{e: e}, false)
	if err != nil {
		e.dropResident()
		return nil, err
	}
	e.putIterScratch(sc)
	return res, nil
}

// estimatorInto binds a recycled estimator, the analytical memory model, to
// b's profile in place, keeping its warm measurement scratch.
func (e *engine) estimatorInto(est *memest.Estimator, b *sampling.Batch) error {
	return memest.NewInto(est, e.spec, b, e.clusterC)
}

// searchParts is the K-search of the partitioned baselines (Betty, Random,
// Range, METIS): partition at K = 1, 2, … and keep the first K whose every
// part's price fits limit, or partition once at the K MicroBatches pins.
// Betty's REG is built once for the whole search. It returns the kept parts,
// leaves their prices in sc.estimates, and charges the REG and only the kept
// partition's time. Nothing fitting wraps schedule.ErrInfeasible.
func (e *engine) searchParts(sc *iterScratch, b *sampling.Batch, limit int64, res *IterationResult) ([][]graph.NodeID, error) {
	pinned := e.cfg.MicroBatches > 0
	kMin, kMax := 1, len(b.Seeds)
	if pinned {
		kMin, kMax = e.cfg.MicroBatches, e.cfg.MicroBatches
	}
	reg, regTime := e.buildREG(b)
search:
	for k := kMin; k <= kMax; k++ {
		parts, partTime, err := e.split(b, reg, k)
		if err != nil {
			return nil, err
		}
		sc.prices = sc.prices[:0]
		for _, part := range parts {
			m, err := e.price(&sc.est, b, part)
			if err != nil {
				return nil, err
			}
			if m > limit && !pinned {
				continue search
			}
			sc.prices = append(sc.prices, m)
		}
		res.Phases.REGConstruction += regTime
		res.Phases.MetisPartition += partTime
		e.cfg.Obs.Span(obs.KindPlan, "", string(e.cfg.System), regTime+partTime, 0, int64(len(parts)))
		sc.estimates = sc.prices
		return parts, nil
	}
	return nil, fmt.Errorf("train: %s: %w within K <= %d for budget %d bytes", e.cfg.System, schedule.ErrInfeasible, kMax, limit)
}

// buildREG builds and times Betty's REG over b's outputs; the other
// systems partition without one (nil, 0).
func (e *engine) buildREG(b *sampling.Batch) (*partition.WGraph, time.Duration) {
	if e.cfg.System != Betty {
		return nil, 0
	}
	t0 := time.Now()
	reg := betty.BuildREG(b)
	return reg, time.Since(t0)
}

// split partitions b's outputs into k parts with the configured baseline's
// partitioner, Betty's over its REG reg, and times it (Fig 11 reports the
// partitioning apart from the REG's construction).
func (e *engine) split(b *sampling.Batch, reg *partition.WGraph, k int) (parts [][]graph.NodeID, partTime time.Duration, err error) {
	t0 := time.Now()
	switch e.cfg.System {
	case Betty:
		parts, err = partition.Parts(b, reg, k, e.cfg.Seed)
	case RandomP:
		parts, err = partition.Random{}.Partition(b, k, e.cfg.Seed)
	case RangeP:
		parts, err = partition.Range{}.Partition(b, k, e.cfg.Seed)
	default:
		parts, err = partition.Metis{}.Partition(b, k, e.cfg.Seed)
	}
	return parts, time.Since(t0), err
}

// price is what the partitioned baselines' K-search charges one part, the
// one place the engine prices an arbitrary output set: Betty's linear
// per-bucket estimate, or for Random, Range and METIS the redundancy-aware
// estimate Buffalo plans with (memest.PartMem).
func (e *engine) price(est *memest.Estimator, b *sampling.Batch, part []graph.NodeID) (int64, error) {
	if e.cfg.System == Betty {
		return betty.EstimatePart(b, est, part), nil
	}
	return est.PartMem(b, part)
}

// pipeIter is one planned iteration: its batch, the micro-batch blocks, and
// the result skeleton carrying the planning phases. transfer accumulates the
// async copy time a prefetcher issued for this iteration; it is complete
// before the last staged micro-batch is handed to the consumer, so the
// consumer reads it race-free after the last stage call.
type pipeIter struct {
	sc       *iterScratch // owning bundle, returned to the free list post-consumption
	b        *sampling.Batch
	res      *IterationResult
	mbs      []*block.MicroBatch
	transfer time.Duration
	// minFeat is the smallest micro-batch feature tensor of this plan: a
	// lower bound on the feature bytes the consumer holds whichever group it
	// is computing, which sharpens the prefetcher's headroom reserve.
	minFeat int64
}

// stagedMB is one staged micro-batch: its input rows' device bytes reserved
// on replica dev as featAlloc and (for async stagers, on a cache miss) an
// H2D copy in flight. The host side needs nothing staged: layer 0 reads the
// engine's feature table through the micro-batch's input list.
type stagedMB struct {
	iter      *pipeIter
	dev       int // replica the micro-batch executes on
	mb        *block.MicroBatch
	featAlloc *device.Allocation
	hasCopy   bool          // false when synchronous or fully cache-resident
	done      time.Duration // async copy completion position on the sim timeline
}

// stager supplies executeIteration with staged micro-batches: the feature
// tensor's device bytes reserved on the target replica, and the H2D transfer
// either already paid (synchronous staging) or issued (async, with done
// carrying the completion position the engine waits on). release gets ok
// false when the micro-batch's compute failed, which ends the iteration.
type stager interface {
	stage(it *pipeIter, i int) (*stagedMB, error)
	release(smb *stagedMB, ok bool)
}

// seqStager stages micro-batches inline on the round-robin target replica
// and pays the synchronous copy immediately — the sequential loading model
// of both Session and the non-pipelined DataParallel. It copies only the
// input rows that are not already on the replica's device: releasing a
// micro-batch frees its feature tensor but leaves its rows there as cached
// bytes, the newest entries of the replica's resident set, until an
// allocation needs the room (device.GPU.AllocInto reclaims them, and the
// set gives up its oldest rows to match). Staging takes the rows it finds
// out of the set, charges the full feature tensor and copies the rest. The
// ledger's live bytes are what one full copy would hold, so no K, predicted
// peak or peak moves; only the H2D bytes fall. An error, Evaluate, Shutdown
// and a pipelined session's inline iterations (whose loader allocates on
// the same devices concurrently) drop the sets.
type seqStager struct{ e *engine }

func (s seqStager) stage(it *pipeIter, i int) (*stagedMB, error) {
	e := s.e
	dev := i % len(e.replicas)
	gpu := e.replicas[dev].gpu
	set := &e.resident[dev]
	// One micro-batch is staged at a time, released before the next is
	// staged: the engine's one record serves them all.
	smb := &e.staged
	*smb = stagedMB{iter: it, dev: dev, mb: it.mbs[i]}
	in := smb.mb.InputNodes()
	set.sync(gpu, e.rowBytes)
	hits := set.take(in)
	gpu.Uncache(hits * e.rowBytes)
	e.cfg.Obs.Event(obs.KindMark, gpu.Name(), "stage/resident", hits*e.rowBytes, 0, int64(i))
	if err := gpu.AllocInto(&e.stagedFeat, "features", e.featBytes(smb.mb)); err != nil {
		e.dropResident()
		return nil, fmt.Errorf("train: loading features: %w", err)
	}
	smb.featAlloc = &e.stagedFeat
	set.sync(gpu, e.rowBytes)
	if miss := int64(len(in)) - hits; miss > 0 {
		gpu.TransferH2D(miss * e.rowBytes)
	}
	return smb, nil
}

func (s seqStager) release(smb *stagedMB, ok bool) {
	e := s.e
	smb.featAlloc.Free()
	if !ok || e.budgetOverride > 0 {
		e.dropResident()
		return
	}
	gpu := e.replicas[smb.dev].gpu
	set := &e.resident[smb.dev]
	set.sync(gpu, e.rowBytes)
	set.push(smb.mb.InputNodes(), e.data.NumNodes())
	gpu.Cache(e.featBytes(smb.mb))
}

// dropResident empties every replica's resident set and hands its cached
// bytes back: an iteration failed, or the device is needed for something
// other than the next iteration.
func (e *engine) dropResident() {
	for d := range e.resident {
		e.resident[d].drop(e.replicas[d].gpu)
	}
}

// planIteration runs the planning half of an iteration — the system plan
// (Buffalo's K-search for buffalo) plus block generation for every group —
// and returns the iteration ready for staging and execution. Shared verbatim
// by the inline sequential path, which passes kWarm 0, and the background
// planner stage (which additionally pins its OS thread and rescales the
// recorded phases, see loader.planPinned).
func (e *engine) planIteration(sc *iterScratch, b *sampling.Batch, kWarm int) (*pipeIter, error) {
	sc.res = IterationResult{}
	res := &sc.res
	parts, err := e.plan(sc, b, res, kWarm)
	if err != nil {
		return nil, err
	}
	if cap(sc.mbs) < len(parts) {
		sc.mbs = make([]*block.MicroBatch, len(parts))
	}
	for len(sc.gens) < len(parts) {
		sc.gens = append(sc.gens, &block.GenScratch{})
	}
	it := &sc.iter
	*it = pipeIter{sc: sc, b: b, res: res, mbs: sc.mbs[:len(parts)]}
	for i, outputs := range parts {
		mb, err := e.buildMicroBatch(sc.gens[i], b, outputs, res)
		if err != nil {
			return nil, err
		}
		it.mbs[i] = mb
		if feat := e.featBytes(mb); i == 0 || feat < it.minFeat {
			it.minFeat = feat
		}
	}
	return it, nil
}

// ensureParts sizes the partition header to n entries, keeping every entry's
// backing storage so steady-state planning appends into warmed slices.
func ensureParts(s [][]graph.NodeID, n int) [][]graph.NodeID {
	if cap(s) < n {
		ns := make([][]graph.NodeID, n)
		copy(ns, s[:cap(s)])
		return ns
	}
	return s[:n]
}

// plan produces the micro-batch output partitions per the configured system
// and leaves what it priced each part at in sc.estimates. Buffalo's
// partitions are built inside sc and stay valid until the bundle's next
// plan; the baseline systems return freshly built partitions.
//
// kWarm > 1 warm-starts a searched Buffalo K at kWarm − 1: a pipelined
// planner passes its previous plan's K, since consecutive batches are
// statistically alike and re-proving every smaller K infeasible each
// iteration is wasted scheduling work. The start is part of the plan, not
// only of its cost: a K below it is never tried, and feasibility is not
// monotone in K, so a warm search can keep a larger K than a cold one.
func (e *engine) plan(sc *iterScratch, b *sampling.Batch, res *IterationResult, kWarm int) ([][]graph.NodeID, error) {
	sc.estimates, sc.kSearched = nil, 0
	switch e.cfg.System {
	case DGL, PyG:
		sc.parts = ensureParts(sc.parts, 1)
		sc.parts[0] = append(sc.parts[0][:0], b.Seeds...)
		return sc.parts[:1], nil
	case Buffalo:
		est := &sc.est
		if err := e.estimatorInto(est, b); err != nil {
			return nil, err
		}
		t0 := time.Now()
		// The pipelined sessions scale the per-group cap down by the
		// batch's feature share, so one prefetched feature tensor can sit
		// on-device next to the group compute is consuming; the
		// prefetcher's headroom gate (stageMicroBatch) enforces the actual
		// safety condition at staging time.
		limit := e.planLimit()
		if e.budgetOverride > 0 {
			whole, memErr := est.BatchMem(b)
			if memErr != nil {
				return nil, memErr
			}
			featBytes := int64(len(b.Frontier(b.Layers()))) * e.rowBytes
			if whole > 0 {
				limit = limit * whole / (whole + featBytes)
			}
		}
		kStart := e.cfg.MicroBatches
		if e.cfg.MicroBatches == 0 && kWarm > 1 {
			kStart = kWarm - 1
		}
		plan, err := schedule.Schedule(b, est, schedule.Options{
			MemLimit: limit,
			KStart:   kStart,
			KMax:     e.fixedKMax(b),
			Obs:      e.cfg.Obs,
			Scratch:  &sc.sched,
		})
		dt := time.Since(t0)
		res.Phases.Scheduling += dt
		if err != nil {
			return nil, err
		}
		sc.kSearched = plan.K
		// Predicted device peak = the winning group estimate riding on the
		// fixed resident footprint.
		res.PredictedPeak = plan.MaxEstimate() + e.residentBase()
		e.cfg.Obs.Span(obs.KindPlan, "", string(Buffalo), dt, plan.MaxEstimate(), int64(plan.K))
		// Copy the node lists out of the plan: the plan's groups alias the
		// scheduler scratch, while the partitions must survive through block
		// generation and staging.
		sc.parts = ensureParts(sc.parts, len(plan.Groups))
		for i, g := range plan.Groups {
			sc.parts[i] = g.AppendNodes(sc.parts[i][:0])
		}
		sc.estimates = plan.Estimates
		return sc.parts[:len(plan.Groups)], nil
	case Betty, RandomP, RangeP, MetisP:
		if err := e.estimatorInto(&sc.est, b); err != nil {
			return nil, err
		}
		limit := e.planLimit()
		if e.cfg.System == Betty {
			limit = e.activationBudget()
		}
		return e.searchParts(sc, b, limit, res)
	}
	return nil, fmt.Errorf("train: unknown system %q", e.cfg.System)
}

// fixedKMax bounds Buffalo's K search when MicroBatches pins K exactly.
func (e *engine) fixedKMax(b *sampling.Batch) int {
	if e.cfg.MicroBatches > 0 {
		return e.cfg.MicroBatches
	}
	return len(b.Seeds)
}

// buildMicroBatch constructs the blocks for one partition. Only Buffalo uses
// the fast sampling-order generator (its §IV-E contribution); every baseline
// pays the standard connection-check cost the paper's Fig 5 measures in
// existing frameworks.
func (e *engine) buildMicroBatch(gen *block.GenScratch, b *sampling.Batch, outputs []graph.NodeID, res *IterationResult) (*block.MicroBatch, error) {
	if e.cfg.System != Buffalo {
		mb, check, build, err := block.GenerateNaiveTimed(b, outputs)
		res.Phases.ConnectionCheck += check
		res.Phases.BlockGen += build
		if err == nil {
			// The BlockGen phase covers only the build half, so the span
			// mirrors it; the connection-check half is annotated separately
			// (it is Fig 11's dominant baseline overhead, not construction).
			e.cfg.Obs.Span(obs.KindBlockGen, "", "naive/build", build, mb.NumNodes(), int64(len(outputs)))
			e.cfg.Obs.Event(obs.KindMark, "", "blockgen/check", 0, 0, int64(check))
		}
		return mb, err
	}
	t0 := time.Now()
	mb, err := block.GenerateInto(gen, b, outputs, e.cfg.Obs)
	dt := time.Since(t0)
	res.Phases.BlockGen += dt
	if err == nil {
		e.cfg.Obs.Span(obs.KindBlockGen, "", "fast", dt, mb.NumNodes(), int64(len(outputs)))
	}
	return mb, err
}

// labelScratch returns an n-length label buffer reused across micro-batches;
// only the consumer goroutine running executeIteration touches it, and every
// entry is overwritten before use.
func (e *engine) labelScratch(n int) []int32 {
	if cap(e.labels) < n {
		e.labels = make([]int32, n)
	}
	return e.labels[:n]
}

// featBytes is the device footprint of one micro-batch's input rows,
// [len(InputNodes()) x InDim]: what the device holds for them while the
// micro-batch computes (seqStager copies only the rows not already there).
// The host reads those rows from the feature table in place.
func (e *engine) featBytes(mb *block.MicroBatch) int64 {
	return int64(len(mb.InputNodes())) * e.rowBytes
}

// layerTags / mbTags precompute the hot allocation and span tags; Sprintf
// only runs past the precomputed range (deeper than any evaluated model).
var layerTags = [8]string{
	"activations/layer0", "activations/layer1", "activations/layer2", "activations/layer3",
	"activations/layer4", "activations/layer5", "activations/layer6", "activations/layer7",
}

func layerTag(l int) string {
	if l < len(layerTags) {
		return layerTags[l]
	}
	return coldTag("activations/layer", l)
}

var mbTags = [16]string{
	"mb0", "mb1", "mb2", "mb3", "mb4", "mb5", "mb6", "mb7",
	"mb8", "mb9", "mb10", "mb11", "mb12", "mb13", "mb14", "mb15",
}

func mbTag(i int) string {
	if i < len(mbTags) {
		return mbTags[i]
	}
	return coldTag("mb", i)
}

// coldTag is the out-of-range fallback the tag tables funnel through, keeping
// the string formatting off the hot paths' allocation census.
func coldTag(prefix string, i int) string { return prefix + strconv.Itoa(i) }

// addCompute charges measured host compute time onto replica dev's simulated
// kernel clock: scaled by the modeled GPU speedup, with the PyG penalty on
// top. The scaled duration is recorded identically as a phase-kind span
// (forward, backward, optimizer step) and returned for the caller's phase
// accounting, so per-kind span sums add up to the phase totals exactly.
func (e *engine) addCompute(dev int, d time.Duration, kind obs.Kind) time.Duration {
	d = time.Duration(float64(d) / e.cfg.gpuSpeedup())
	if e.cfg.System == PyG {
		d = time.Duration(float64(d) * pygComputePenalty)
	}
	gpu := e.replicas[dev].gpu
	gpu.AddComputeTime(d)
	e.cfg.Obs.Span(kind, gpu.Name(), "", d, 0, 0)
	return d
}

// computeMicroBatch runs the device-side math of one training micro-batch on
// replica dev, whose input features are already resident: charged forward
// (layer 0 reading the feature table through mb's input list), loss and
// backward. The caller owns the feature allocation; layer activations are
// charged and released here. correct is the number of outputs classified
// right. Scaled compute time accrues on perCompute[dev]; lastBwd[dev] records
// this micro-batch's backward duration — after the iteration's final
// micro-batch it is the window the overlapped reducer's bucket-readiness
// model spreads gradient completion over.
func (e *engine) computeMicroBatch(dev int, b *sampling.Batch, mb *block.MicroBatch, perCompute, lastBwd []time.Duration) (loss float32, correct int, microBytes int64, err error) {
	r := e.replicas[dev]
	charged := 0 // e.layerRecs[:charged] are live
	// Everything the forward and backward passes materialize is dead once the
	// scalars are out — reclaim the whole micro-batch's intermediates at once.
	defer func() {
		for i := range e.layerRecs[:charged] {
			e.layerRecs[i].Free()
		}
		e.arena.Reset()
	}()
	tFwd := time.Now()
	fwd, err := r.model.ForwardTable(mb, e.table, func(layer int, plannedBytes int64) error {
		if err := r.gpu.AllocInto(&e.layerRecs[charged], layerTag(layer), plannedBytes); err != nil {
			return err
		}
		charged++
		return nil
	})
	if err != nil {
		return 0, 0, 0, fmt.Errorf("train: forward: %w", err)
	}
	mLoss, dLogits, labels, err := e.crossEntropy(b, mb, fwd.Logits)
	if err != nil {
		return 0, 0, 0, err
	}
	perCompute[dev] += e.addCompute(dev, time.Since(tFwd), obs.KindForward)
	tBwd := time.Now()
	if _, err := r.model.Backward(fwd, dLogits); err != nil {
		return 0, 0, 0, err
	}
	bwd := e.addCompute(dev, time.Since(tBwd), obs.KindBackward)
	perCompute[dev] += bwd
	lastBwd[dev] = bwd
	return mLoss, nn.Correct(fwd.Logits, labels), e.featBytes(mb) + fwd.ActivationBytes(), nil
}

// forward runs the batch sampled into sc.batch forward only on replica 0: the
// one path Session.Evaluate and InferenceSession.Infer share. It plans with the ForwardOnly estimator against planLimit,
// then per group generates the micro-batch into sc's scratch, charges and
// copies the input rows the cache does not hold (every row when cache is
// nil), and runs ForwardTable. The
// features are freed once layer 0 has run and layer l-2's activations before
// layer l is charged, so the ledger holds at most the adjacent-pair window
// the estimator priced. read sees each micro-batch's logits before the arena
// reclaims them. res receives K, the predicted peak, the cache outcomes and
// the plan, block-gen, gather, H2D and compute shares of the breakdown. The
// plan span is named after the device ("serve" for an InferenceSession).
func (e *engine) forward(sc *iterScratch, cache *pipeline.FeatureCache, res *InferResult, read func(mb *block.MicroBatch, logits *tensor.Matrix) error) error {
	b := &sc.batch
	est := &sc.est
	if err := e.estimatorInto(est, b); err != nil {
		return err
	}
	est.ForwardOnly = true
	tP := time.Now()
	plan, err := schedule.Schedule(b, est, schedule.Options{MemLimit: e.planLimit(), Obs: e.cfg.Obs, Scratch: &sc.sched})
	res.Breakdown.Plan = time.Since(tP)
	if err != nil {
		return err
	}
	res.K = len(plan.Groups)
	res.PredictedPeak = plan.MaxEstimate() + e.residentBase()
	e.cfg.Obs.Span(obs.KindPlan, "", e.gpu0().Name(), res.Breakdown.Plan, plan.MaxEstimate(), int64(plan.K))

	// feat holds a micro-batch's input rows until layer 0 has run; window[l%2]
	// holds layer l's activations until layer l+2 is charged. release drops
	// them all and the arena after each micro-batch and on every error path.
	r := e.replicas[0]
	var feat *device.Allocation
	var window [2]*device.Allocation
	release := func() {
		freeSlot(&feat)
		freeSlot(&window[0])
		freeSlot(&window[1])
		e.arena.Reset()
	}
	defer release()
	charge := func(layer int, planned int64) error {
		if layer >= 1 {
			freeSlot(&feat)
		}
		freeSlot(&window[layer%2])
		a := &e.fwdWindow[layer%2]
		if err := r.gpu.AllocInto(a, layerTag(layer), planned); err != nil {
			return err
		}
		window[layer%2] = a
		return nil
	}

	// Groups execute one at a time, so one generation scratch and one node
	// list serve them all.
	if len(sc.gens) == 0 {
		sc.gens = append(sc.gens, &block.GenScratch{})
	}
	sc.parts = ensureParts(sc.parts, 1)
	for _, g := range plan.Groups {
		tB := time.Now()
		sc.parts[0] = g.AppendNodes(sc.parts[0][:0])
		mb, err := block.GenerateInto(sc.gens[0], b, sc.parts[0], e.cfg.Obs)
		dt := time.Since(tB)
		res.Breakdown.BlockGen += dt
		if err != nil {
			return err
		}
		e.cfg.Obs.Span(obs.KindBlockGen, "", "fast", dt, mb.NumNodes(), int64(len(sc.parts[0])))

		tG := time.Now()
		featBytes := e.featBytes(mb)
		if cache != nil {
			inputs := mb.InputNodes()
			misses := cache.Probe(inputs, e.data.Graph)
			res.CacheHits += int64(len(inputs)) - misses
			res.CacheMisses += misses
			featBytes = misses * e.rowBytes
		}
		res.Breakdown.Gather += time.Since(tG)
		if featBytes > 0 {
			if err := r.gpu.AllocInto(&e.fwdFeat, "features", featBytes); err != nil {
				return fmt.Errorf("train: staging features: %w", err)
			}
			feat = &e.fwdFeat
			res.Breakdown.H2D += r.gpu.TransferH2D(featBytes)
		}

		tFwd := time.Now()
		fwd, err := r.model.ForwardTable(mb, e.table, charge)
		if err != nil {
			return fmt.Errorf("train: forward: %w", err)
		}
		res.Breakdown.Compute += e.addCompute(0, time.Since(tFwd), obs.KindForward)
		if err := read(mb, fwd.Logits); err != nil {
			return err
		}
		release()
	}
	return nil
}

// executeIteration drives the execute half of one planned iteration through
// the stager: per micro-batch, stage → wait for its copy (async stagers) →
// compute on its replica → release; then combine gradients across replicas
// and step the optimizer (combineAndStep). async selects the loading model the DataLoading phase charges:
// synchronous stagers pay every copy in full (TransferTime delta), async
// ones only the exposed stalls (StallTime delta), with the hidden remainder
// reported as HiddenTransfer.
//
// Devices run concurrently in the simulation: compute is tracked per replica
// and the GPUCompute phase costs the slowest one; Peak and DataLoading are
// likewise maxima across devices.
func (e *engine) executeIteration(it *pipeIter, ex stager, async bool) (*MultiGPUResult, error) {
	tIter := time.Now()
	res := &MultiGPUResult{IterationResult: *it.res}
	n := len(e.replicas)
	// Rebase only the peak watermarks: the device clocks stay cumulative and
	// per-iteration phases are computed as before/after deltas. A clock reset
	// here would corrupt a pipelined stager's in-flight async transfers.
	pre := e.preStats
	for i, r := range e.replicas {
		r.gpu.ResetPeak()
		pre[i] = r.gpu.Stats()
	}
	main := e.replicas[0].model
	for i, r := range e.replicas {
		if i > 0 {
			if err := r.model.Params.CopyValuesFrom(main.Params); err != nil {
				return nil, err
			}
		}
		r.model.Params.ZeroGrad()
	}

	// Both per-micro-batch slices are carved from one array, the result's own
	// when it fits.
	k := len(it.mbs)
	per := res.perBuf[:]
	if need := k + len(it.sc.estimates); need <= len(per) {
		per = per[:need]
	} else {
		per = make([]int64, need)
	}
	res.PerMicroBytes = per[:k]
	if len(it.sc.estimates) > 0 {
		res.PerMicroEstimate = per[k:]
		copy(res.PerMicroEstimate, it.sc.estimates)
	}
	perCompute := e.compute
	lastBwd := e.bwdLast
	for i := 0; i < n; i++ {
		perCompute[i], lastBwd[i] = 0, 0
	}
	var lossSum float32
	var correct, counted int
	for i := range it.mbs {
		tMB := time.Now()
		smb, err := ex.stage(it, i)
		if err != nil {
			return nil, err
		}
		gpu := e.replicas[smb.dev].gpu
		if async && smb.hasCopy {
			gpu.WaitTransfer(smb.done)
		}
		mLoss, mCorrect, bytes, cErr := e.computeMicroBatch(smb.dev, it.b, smb.mb, perCompute, lastBwd)
		ex.release(smb, cErr == nil)
		if cErr != nil {
			return nil, cErr
		}
		lossSum += mLoss
		correct += mCorrect
		counted += len(smb.mb.Outputs)
		res.PerMicroBytes[i] = bytes
		res.TotalNodes += smb.mb.NumNodes()
		e.cfg.Obs.Span(obs.KindMicroBatch, gpu.Name(), mbTag(i),
			time.Since(tMB), bytes, int64(i))
	}

	if err := e.combineAndStep(res, perCompute, lastBwd); err != nil {
		return nil, err
	}

	res.K = len(it.mbs)
	res.Loss = lossSum
	if counted > 0 {
		res.Accuracy = float64(correct) / float64(counted)
	}
	var maxCompute time.Duration
	for _, c := range perCompute {
		if c > maxCompute {
			maxCompute = c
		}
	}
	res.Phases.GPUCompute += maxCompute
	res.PerGPUCompute = append(res.gpuBuf[:0], perCompute...)
	var peak int64
	var loading time.Duration
	for i, r := range e.replicas {
		st := r.gpu.Stats()
		if st.Peak > peak {
			peak = st.Peak
		}
		var d time.Duration
		if async {
			// Only the exposed share of prefetched copies costs the
			// iteration wall time; the rest ran behind compute (or never
			// ran: cache hits).
			d = st.StallTime - pre[i].StallTime
		} else {
			d = st.TransferTime - pre[i].TransferTime
		}
		if d > loading {
			loading = d
		}
	}
	res.Peak = peak
	res.Phases.DataLoading += loading
	res.HiddenTransfer = it.transfer - loading
	if res.HiddenTransfer < 0 {
		res.HiddenTransfer = 0
	}
	if e.cfg.Obs.Enabled() {
		e.cfg.Obs.Span(obs.KindIteration, e.iterDev(), string(e.cfg.System),
			time.Since(tIter), res.Peak, int64(res.K))
		memest.RecordEstimate(e.cfg.Obs, e.iterDev(), res.PredictedPeak, res.Peak)
	}
	e.publishPoolStats()
	return res, nil
}

// crossEntropy scores a micro-batch's logits against its outputs' labels,
// scaled by the micro-batch's share of b's outputs so the micro-batch losses
// sum to the batch mean. It returns the labels it scored against (valid until
// the next call) and the logits gradient, which lives on the arena.
func (e *engine) crossEntropy(b *sampling.Batch, mb *block.MicroBatch, logits *tensor.Matrix) (loss float32, dLogits *tensor.Matrix, labels []int32, err error) {
	labels = e.labelScratch(len(mb.Outputs))
	for i, v := range mb.Outputs {
		labels[i] = e.data.Labels[v]
	}
	scale := float32(len(mb.Outputs)) / float32(b.NumOutputNodes())
	probs := e.arena.GetUninit(logits.Rows, logits.Cols) // written in full by CrossEntropyInto's SoftmaxRowsInto
	loss, dLogits, err = nn.CrossEntropyInto(probs, logits, labels, scale)
	return loss, dLogits, labels, err
}

// freeSlot releases *a (nil is a no-op) and clears it, so a slot is freed once.
func freeSlot(a **device.Allocation) {
	(*a).Free()
	*a = nil
}

// poolStats reports the counters of the hot path's one pool, the compute
// arena's.
func (e *engine) poolStats() tensor.PoolStats { return e.arena.Pool().Stats() }

// publishPoolStats refreshes the tensor/pool/* gauges (no-op when metrics
// are off).
func (e *engine) publishPoolStats() {
	if e.poolHitsG == nil {
		return
	}
	st := e.poolStats()
	e.poolHitsG.Set(st.Hits)
	e.poolMissesG.Set(st.Misses)
	e.poolResizesG.Set(st.Resizes)
	e.poolOutstandingG.Set(st.Outstanding)
	e.poolRetainedG.Set(st.RetainedBytes)
}

// combineAndStep combines every replica's gradients into replica 0, books
// the collectives on the cluster's comm engine, and steps e.opts, filling in
// Communication (interconnect busy time) plus the ExposedComm/HiddenComm
// split.
//
// The numeric combine is the same for every mode: bucket by bucket, replicas
// 1..n-1 in fixed order inside each bucket. Every element lives in exactly
// one bucket, so each sees the same float additions in the same order
// whatever the bucket bound or collective, and the shard steps tile the flat
// buffer elementwise-identically to one full-range step (nn.Adam.StepFlat):
// losses are bit-identical across all modes.
//
// The timing model differs by mode. Bucket j of m is modeled ready a
// (j+1)/m fraction into each replica's final backward window, taken at the
// slowest replica (bucketReady); without CommOverlap everything waits for
// the slowest compute tail.
//   - All-reduce with CommOverlap: one ring all-reduce per bucket, launched
//     when the bucket is ready.
//   - All-reduce without it: one ring all-reduce of the whole gradient
//     payload at the compute tail, so it is exposed in full.
//   - ZeRO-1: one reduce-scatter per bucket (half the ring), then every
//     replica steps its shard, then one all-gather of the updated values.
//     The all-gather runs with no compute left to hide behind, so it is
//     fully exposed: the honest floor of the model, since the engine does
//     not overlap collectives across iteration boundaries.
func (e *engine) combineAndStep(res *MultiGPUResult, perCompute, lastBwd []time.Duration) error {
	n := len(e.replicas)
	var maxCompute, busy, exposed time.Duration
	for _, c := range perCompute {
		maxCompute = max(maxCompute, c)
	}
	if n > 1 {
		main := e.replicas[0].model.Params
		buckets := e.flat0.Buckets()
		for j, b := range buckets {
			for i := 1; i < n; i++ {
				if err := main.AddGradsFromBucket(e.replicas[i].model.Params, b); err != nil {
					return err
				}
			}
			ready := maxCompute
			if e.cfg.CommOverlap {
				ready = bucketReady(j, len(buckets), perCompute, lastBwd)
			}
			switch {
			case e.cfg.ZeRO1:
				e.cluster.ReduceScatterAsync(b.Bytes, ready)
				busy += e.cluster.ReduceScatterDuration(b.Bytes)
			case e.cfg.CommOverlap:
				e.cluster.AllReduceAsync(b.Bytes, ready)
				busy += e.cluster.RingReduceDuration(b.Bytes)
			case j == len(buckets)-1: // one reduce of the whole payload
				gb := main.GradBytes()
				e.cluster.AllReduceAsync(gb, ready)
				busy += e.cluster.RingReduceDuration(gb)
			}
		}
		exposed = e.cluster.WaitReduce(maxCompute)
	}

	// Replicas step concurrently, so the step extends the iteration by the
	// slowest shard (the per-replica clocks each record their own).
	var maxStep time.Duration
	for r, o := range e.opts {
		t0 := time.Now()
		o.StepFlat(e.flat0)
		d := e.addCompute(r, time.Since(t0), obs.KindOptStep)
		perCompute[r] += d
		maxStep = max(maxStep, d)
	}

	if n > 1 && e.cfg.ZeRO1 {
		// One all-gather broadcasts the updated values (each replica owns
		// 1/n and collects the rest), positioned after the reduce-scatter
		// window and the slowest shard step.
		gatherReady := maxCompute + exposed + maxStep
		vb := e.replicas[0].model.Params.ValueBytes()
		e.cluster.AllGatherAsync(vb, gatherReady)
		exposed += e.cluster.WaitReduce(gatherReady)
		busy += e.cluster.AllGatherDuration(vb)
	}
	res.Phases.Communication += busy
	res.ExposedComm += exposed
	res.HiddenComm += busy - exposed
	return nil
}

// bucketReady models when bucket j of m (backward launch order) has final
// gradients on every replica: a (j+1)/m fraction into each replica's last
// backward window, taken at the slowest replica. The last bucket's ready time
// is exactly the slowest compute tail, so at least its own ring duration is
// always exposed — the honest floor of the overlap model.
func bucketReady(j, m int, perCompute, lastBwd []time.Duration) time.Duration {
	var ready time.Duration
	for r := range perCompute {
		t := perCompute[r] - lastBwd[r] +
			time.Duration(int64(lastBwd[r])*int64(j+1)/int64(m))
		if t > ready {
			ready = t
		}
	}
	return ready
}
