package train

import (
	"context"
	"fmt"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"buffalo/internal/device"
	"buffalo/internal/obs"
	"buffalo/internal/pipeline"
	"buffalo/internal/sampling"
)

// PipelineConfig tunes the asynchronous loader around a session.
type PipelineConfig struct {
	// Depth is the prefetch depth: how many micro-batches the loader may
	// stage on-device ahead of compute (per replica lane in multi-GPU runs).
	// Each staged micro-batch holds its feature tensor in device memory, so
	// depth trades H2D overlap against headroom. 0 defaults to 2 (double
	// buffering).
	Depth int
	// CacheBudget reserves this many bytes of device memory per device for
	// the degree-aware feature cache. The reservation is charged to each
	// ledger up front, so the scheduler's K-search sees the reduced
	// headroom. 0 disables caching.
	CacheBudget int64
	// PlanAhead is the planner-pool width: how many planner goroutines run
	// K-searches and block generation concurrently, each on its own sampled
	// batch. A sequence-number reorder buffer re-serializes finished plans,
	// so the consumer sees exactly the order the batches were sampled in —
	// the pool changes timing, never the stream. 0 or 1 keeps the single
	// background planner. Raising it is how one planner stage stops being
	// the bottleneck past 2 replicas, at the cost of holding up to PlanAhead
	// planned iterations in flight.
	PlanAhead int
}

// depth returns the configured prefetch depth with its default.
func (c PipelineConfig) depth() int {
	if c.Depth < 1 {
		return 2
	}
	return c.Depth
}

// planAhead returns the configured planner-pool width with its default.
func (c PipelineConfig) planAhead() int {
	if c.PlanAhead < 1 {
		return 1
	}
	return c.PlanAhead
}

// seqBatch is a sampled batch — carried inside its iteration-scratch bundle —
// tagged with its dispatch sequence number: the position the plan-ahead pool
// must deliver its plan at, whatever order the planner workers finish in.
type seqBatch struct {
	seq uint64
	sc  *iterScratch
}

// loader is the asynchronous three-stage front-end shared by the pipelined
// Session (one replica) and the pipelined DataParallel (one loader feeding the
// whole cluster): a sampler goroutine draws batches, a pool of PlanAhead
// planner goroutines schedules them and generates blocks (finished plans
// re-serialized by a sequence-number reorder buffer), and a prefetcher
// goroutine stages each micro-batch's features on its round-robin target
// device with an async copy, pushing the staged handle onto that replica's
// bounded lane. By the time the consumer's compute reaches a micro-batch, its
// transfer has (partly or fully) hidden behind earlier compute; per-device
// degree-aware caches skip the copy for resident rows entirely.
//
// The loader reproduces the sequential paths' exact batch sequence for a
// given Config.Seed — whatever the pool width, since the reorder buffer
// delivers plans in dispatch order — so results are comparable batch for
// batch; only the timing model (overlap, cache hits, planner concurrency)
// differs. runIteration must be called from one goroutine.
type loader struct {
	eng  *engine
	pcfg PipelineConfig

	pipe   *pipeline.Pipeline
	batchQ *pipeline.Queue[seqBatch]
	planR  *pipeline.Reorder[*pipeIter]
	// ready[i] is replica i's lane of staged micro-batches: per-lane FIFO
	// preserves the prefetcher's dispatch order, so a consumer draining lanes
	// round-robin sees exactly the planned sequence. Each lane has its own
	// depth gauge ("pipeline/queue/ready/<i>"), so traces show which replica
	// the pipeline starves.
	ready []*pipeline.Queue[*stagedMB]

	// caches[i] is replica i's feature cache (nil slice when caching is off),
	// each with its own budget and residency: a replica only ever sees the
	// micro-batches dispatched to it, so its cache converges on the hubs of
	// its own traffic with no cross-device coherence to maintain. All report
	// into one metrics registry, whose "pipeline/cache/*" counters therefore
	// aggregate cluster-wide traffic.
	caches      []*pipeline.FeatureCache
	cacheAllocs []*device.Allocation

	// stagedDev[i] tracks feature tensors currently alive on device i
	// (staged or being consumed); room carries a wake-up each time the
	// consumer frees one, so the prefetcher's headroom gate can re-check.
	stagedDev []atomic.Int64
	room      chan struct{}

	// windows is a ring of the last planAhead() iterations' execution spans
	// (exposed copies + compute + exposed communication): with a pool of W
	// planners, iteration i's planning was dispatched roughly W iterations
	// before its consumption and could hide behind every execution window in
	// between, so the exposed share is what spills past their sum. W = 1
	// degenerates to the single previous window of the single-planner model.
	// Consumer-goroutine state.
	windows []time.Duration
	winIdx  int
}

// newLoader starts the loader stages over the engine's replicas. Cache
// budgets (if any) are charged to every device ledger immediately; a budget
// a device cannot hold is an OOM error. close shuts the stages down and
// releases everything the loader owns.
func newLoader(eng *engine, pcfg PipelineConfig) (*loader, error) {
	n := len(eng.replicas)
	l := &loader{eng: eng, pcfg: pcfg, stagedDev: make([]atomic.Int64, n)}
	cfg := eng.cfg
	if pcfg.CacheBudget > 0 {
		for i := 0; i < n; i++ {
			a, err := eng.replicas[i].gpu.Alloc("feature-cache", pcfg.CacheBudget)
			if err != nil {
				for _, prev := range l.cacheAllocs {
					prev.Free()
				}
				return nil, fmt.Errorf("train: reserving feature cache: %w", err)
			}
			l.cacheAllocs = append(l.cacheAllocs, a)
			l.caches = append(l.caches, pipeline.NewFeatureCache(pcfg.CacheBudget, eng.rowBytes, cfg.Obs.Metrics()))
		}
	}
	// Freeze the activation budget after the cache reservations: every plan
	// sees the same headroom no matter what transients are live when the
	// planner goroutine happens to run. The replicas are identical (same
	// fixed footprint, same cache reservation), so device 0 stands for all.
	eng.budgetOverride = eng.gpu0().Capacity() - eng.gpu0().Live()
	l.room = make(chan struct{}, 1)

	m := cfg.Obs.Metrics()
	planners := pcfg.planAhead()
	l.windows = make([]time.Duration, planners)
	l.batchQ = pipeline.NewQueue[seqBatch](planners, m.Gauge("pipeline/queue/batch"))
	l.planR = pipeline.NewReorder[*pipeIter](planners, m.Gauge("pipeline/queue/plan"))
	for i := 0; i < n; i++ {
		l.ready = append(l.ready, pipeline.NewQueue[*stagedMB](pcfg.depth(), m.Gauge("pipeline/queue/ready/"+strconv.Itoa(i))))
	}

	stream := sampling.NewStream(eng.data.Graph, cfg.BatchSize, cfg.Fanouts, cfg.Seed)
	l.pipe = pipeline.New(context.Background())
	l.pipe.Go("sampler", func(ctx context.Context) error {
		for seq := uint64(0); ; seq++ {
			sc := eng.getIterScratch()
			if err := eng.sample(stream, &sc.batch); err != nil {
				return err
			}
			if err := l.batchQ.Push(ctx, seqBatch{seq: seq, sc: sc}); err != nil {
				return err
			}
		}
	})
	// The planner pool: each worker pulls the next sampled batch, plans it
	// (K-search + block generation), and inserts the plan under its dispatch
	// sequence number. The reorder window equals the pool width, so a worker
	// stuck on a hard batch back-pressures the rest instead of letting plans
	// run unboundedly ahead; the in-order plan is always admitted, so the
	// pool cannot deadlock (see pipeline.Reorder).
	for w := 0; w < planners; w++ {
		l.pipe.Go(fmt.Sprintf("planner/%d", w), func(ctx context.Context) error {
			for {
				sb, err := l.batchQ.Pop(ctx)
				if err != nil {
					return err
				}
				it, err := l.planPinned(sb.sc)
				if err != nil {
					return err
				}
				if err := l.planR.Put(ctx, sb.seq, it); err != nil {
					return err
				}
			}
		})
	}
	l.pipe.Go("prefetch", func(ctx context.Context) error {
		for {
			it, err := l.planR.Pop(ctx)
			if err != nil {
				return err
			}
			for i := range it.mbs {
				dev := i % n
				smb, err := l.stageMicroBatch(ctx, it, i, dev)
				if err != nil {
					return err
				}
				cfg.Obs.Event(obs.KindDispatch, eng.replicas[dev].gpu.Name(), "",
					eng.featBytes(smb.mb), 0, int64(dev))
				if err := l.ready[dev].Push(ctx, smb); err != nil {
					smb.featAlloc.Free()
					l.releaseStaged(dev)
					return err
				}
			}
		}
	})
	return l, nil
}

// planPinned runs the shared planning half (engine.planIteration) in the
// planner stage.
//
// The shared planning code measures its phases with wall clocks, which is
// accurate inline but inflated here: the planner goroutine time-shares the
// host with the consumer's compute, so preemption would be billed as planning
// cost. The goroutine therefore pins its OS thread and rescales the recorded
// planning phases by its thread-CPU/wall ratio, recovering what the same work
// costs uncontended — the number the sequential session would have measured.
func (l *loader) planPinned(sc *iterScratch) (*pipeIter, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	cpu0, cpuOK := threadCPUNow()
	wall0 := time.Now()

	it, err := l.eng.planIteration(sc, &sc.batch)
	if err != nil {
		return nil, err
	}

	if cpuOK {
		if cpu1, ok := threadCPUNow(); ok {
			wall := time.Since(wall0)
			if cpu := cpu1 - cpu0; cpu > 0 && cpu < wall {
				scalePlanning(&it.res.Phases, cpu, wall)
			}
		}
	}
	return it, nil
}

// scalePlanning rescales the planner-stage phases by cpu/wall, stripping the
// co-scheduling time a contended host billed to them.
func scalePlanning(ph *Phases, cpu, wall time.Duration) {
	scale := func(d time.Duration) time.Duration {
		return time.Duration(int64(d) * int64(cpu) / int64(wall))
	}
	ph.Scheduling = scale(ph.Scheduling)
	ph.REGConstruction = scale(ph.REGConstruction)
	ph.MetisPartition = scale(ph.MetisPartition)
	ph.ConnectionCheck = scale(ph.ConnectionCheck)
	ph.BlockGen = scale(ph.BlockGen)
}

// stageMicroBatch prefetches micro-batch idx onto replica dev: probe that
// device's cache per input node, reserve the on-device feature tensor, and
// issue one async copy for the rows the cache missed. Nothing is gathered on
// the host: the consumer's layer 0 reads the feature table in place.
//
// The ready lanes bound how far staging runs ahead (Depth per lane); the
// headroom gate here keeps it from starving the consumer: a staged tensor
// only goes on-device while the room left on its device afterwards still
// covers the plan's worst-case activations (which allocate concurrently with
// this goroutine). When it does not, the stage waits for the consumer to
// free a tensor and re-checks — overlap degrades to sequential staging on
// tight budgets instead of OOMing. With nothing staged on the device it is
// as empty as it gets, so the allocation either fits or the configuration
// genuinely does not (systems without an estimate prefetch optimistically
// and hit the same terminal OOM). The wait is deadlock-free because staged
// items are consumed in exactly the order they were staged: anything already
// staged is what the consumer needs next.
func (l *loader) stageMicroBatch(ctx context.Context, it *pipeIter, idx, dev int) (*stagedMB, error) {
	t0 := time.Now()
	e := l.eng
	gpu := e.replicas[dev].gpu
	mb := it.mbs[idx]
	featBytes := e.featBytes(mb)
	missBytes := featBytes
	if l.caches != nil {
		missBytes = 0
		cache := l.caches[dev]
		for _, v := range mb.InputNodes() {
			if !cache.Lookup(v) {
				missBytes += e.rowBytes
				cache.Admit(v, it.b.Graph.Degree(v))
			}
		}
	}
	// The consumer's concurrent appetite is its group's activations: the
	// worst-case group estimate minus the smallest feature tensor it could
	// be holding (already on the ledger).
	reserve := it.res.PredictedPeak - e.residentBase() - it.minFeat
	for reserve > 0 && l.stagedDev[dev].Load() > 0 &&
		gpu.Capacity()-gpu.Live() < featBytes+reserve {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-l.room:
		}
	}
	featAlloc, err := gpu.Alloc("features", featBytes)
	if err != nil {
		return nil, fmt.Errorf("train: prefetching features: %w", err)
	}
	l.stagedDev[dev].Add(1)
	smb := &stagedMB{
		iter: it, idx: idx, dev: dev, last: idx == len(it.mbs)-1,
		mb: mb, featAlloc: featAlloc,
	}
	if missBytes > 0 {
		smb.done = gpu.TransferH2DAsync(missBytes)
		smb.hasCopy = true
		it.transfer += gpu.TransferDuration(missBytes)
	}
	e.cfg.Obs.Span(obs.KindPrefetch, gpu.Name(), mbTag(idx),
		time.Since(t0), featBytes, missBytes)
	return smb, nil
}

// releaseStaged returns one staged tensor's bytes to the loader: the count
// drops and the prefetcher's headroom gate gets a wake-up. Called wherever a
// staged featAlloc is freed.
func (l *loader) releaseStaged(dev int) {
	l.stagedDev[dev].Add(-1)
	select {
	case l.room <- struct{}{}:
	default:
	}
}

// popLane pops the next staged micro-batch from one replica lane,
// translating a cancellation caused by a stage failure into that stage's
// error.
func (l *loader) popLane(lane int) (*stagedMB, error) {
	smb, err := l.ready[lane].Pop(l.pipe.Context())
	if err != nil {
		if perr := l.pipe.Err(); perr != nil {
			return nil, perr
		}
		return nil, err
	}
	return smb, nil
}

// pipeStager adapts the loader to the engine's stager interface for one
// iteration: stage(i) pops replica lane i%n (micro-batch 0 was already
// popped by runIteration to learn which iteration is next), accumulating the
// wall time the consumer idled waiting; release frees the staged tensor and
// wakes the prefetcher's headroom gate.
type pipeStager struct {
	l       *loader
	first   *stagedMB
	starved time.Duration
}

func (ps *pipeStager) stage(it *pipeIter, i int) (*stagedMB, error) {
	if ps.first != nil {
		smb := ps.first
		ps.first = nil
		return smb, nil
	}
	tWait := time.Now()
	smb, err := ps.l.popLane(i % len(ps.l.ready))
	if err != nil {
		return nil, err
	}
	ps.starved += time.Since(tWait)
	return smb, nil
}

func (ps *pipeStager) release(smb *stagedMB) {
	smb.featAlloc.Free()
	ps.l.releaseStaged(smb.dev)
}

// runIteration consumes the next planned iteration from the pipeline:
// executeIteration waits on each staged micro-batch's async copy (charging
// only the exposed stall to DataLoading) and runs the shared compute path.
// HiddenTransfer reports how much copy time the overlap and the caches hid;
// ExposedPlanning reports the share of planning the previous iteration's
// execution window could not hide, so CriticalPath reflects what the
// training loop experienced.
func (l *loader) runIteration() (*MultiGPUResult, error) {
	tWait := time.Now()
	first, err := l.popLane(0)
	if err != nil {
		return nil, err
	}
	starved := time.Since(tWait)
	it := first.iter
	it.res.Pipelined = true
	ps := &pipeStager{l: l, first: first}
	res, err := l.eng.executeIteration(it, ps, true)
	if err != nil {
		if ps.first != nil {
			// executeIteration failed before staging micro-batch 0 (e.g.
			// parameter replication): the popped item is ours to release.
			ps.release(ps.first)
		}
		return nil, err
	}
	// The iteration is fully consumed: nothing alive aliases its scratch
	// bundle anymore, so it can serve a future batch.
	l.eng.putIterScratch(it.sc)
	starved += ps.starved
	// Planner-front overlap, mirroring the copy-front model: this iteration's
	// planning ran in a background worker, dispatched up to planAhead()
	// iterations before its consumption, so it could hide behind the last
	// planAhead() execution windows; only the excess is exposed to the
	// training loop.
	var hide time.Duration
	for _, w := range l.windows {
		hide += w
	}
	res.ExposedPlanning = res.Phases.Planning() - hide
	if res.ExposedPlanning < 0 {
		res.ExposedPlanning = 0
	}
	// Communication contributes only its exposed share: hidden bucket
	// reduces run concurrently with compute already counted here.
	l.windows[l.winIdx] = res.Phases.DataLoading + res.Phases.GPUCompute + res.ExposedComm
	l.winIdx = (l.winIdx + 1) % len(l.windows)
	if l.eng.cfg.Obs.Enabled() {
		// The wall time the consumer actually idled at the ready lanes: the
		// host-contention-dependent realization of ExposedPlanning.
		l.eng.cfg.Obs.Event(obs.KindMark, l.eng.iterDev(), "pipeline/starved", 0, 0, int64(starved))
	}
	return res, nil
}

// close stops the loader stages, waits for them to unwind, releases every
// staged feature tensor and the cache reservations. Idempotent; returns the
// first stage failure, if any (a clean shutdown returns nil).
func (l *loader) close() error {
	err := l.pipe.Close()
	for _, lane := range l.ready {
		for {
			smb, ok := lane.TryPop()
			if !ok {
				break
			}
			smb.featAlloc.Free()
			l.releaseStaged(smb.dev)
		}
	}
	for _, a := range l.cacheAllocs {
		a.Free()
	}
	l.cacheAllocs = nil
	return err
}

// perDeviceCacheStats snapshots each device's feature cache, index-aligned
// with the replicas; nil when there is no loader or caching is off.
func (l *loader) perDeviceCacheStats() []pipeline.CacheStats {
	if l == nil || l.caches == nil {
		return nil
	}
	out := make([]pipeline.CacheStats, len(l.caches))
	for i, c := range l.caches {
		out[i] = c.Stats()
	}
	return out
}

// cacheStats sums the per-device feature caches (zero value when there is no
// loader or caching is off).
func (l *loader) cacheStats() pipeline.CacheStats {
	var agg pipeline.CacheStats
	for _, st := range l.perDeviceCacheStats() {
		agg.Entries += st.Entries
		agg.UsedBytes += st.UsedBytes
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Evictions += st.Evictions
	}
	return agg
}
