package train

import (
	"sort"
	"time"

	"buffalo/internal/device"
	"buffalo/internal/memest"
	"buffalo/internal/obs"
	"buffalo/internal/obs/report"
	"buffalo/internal/pipeline"
	"buffalo/internal/tensor"
)

// RunReport accumulates a training run's per-iteration results and final
// session state into a versioned run manifest (internal/obs/report): the
// persistence layer behind buffalo-train -report and the experiments
// manifest. It is a plain accumulator — call Record after each iteration,
// one Capture* method when the run ends, then Build.
type RunReport struct {
	tool    string
	dataset string
	cfg     Config
	gpus    int

	iters               int
	lossFirst, lossLast float32
	k                   int
	peak, predictedPeak int64
	critical            time.Duration
	phases              Phases
	hiddenTransfer      time.Duration
	exposedPlanning     time.Duration
	exposedComm         time.Duration
	hiddenComm          time.Duration
	ooms                int

	pcfg     *PipelineConfig
	cache    *report.Cache
	pooling  *report.Pooling
	sharding *report.Sharding
	devices  []device.Stats
}

// NewRunReport starts a report for one run of cfg over gpus devices (1 for
// single-GPU sessions) on the named dataset.
func NewRunReport(tool, dataset string, cfg Config, gpus int) *RunReport {
	if gpus < 1 {
		gpus = 1
	}
	return &RunReport{tool: tool, dataset: dataset, cfg: cfg, gpus: gpus}
}

// SetPipeline records the loader configuration for pipelined runs. Like
// every accumulator method it is safe on a nil receiver, so CLIs can thread
// one optional *RunReport through their run loops without branching.
func (r *RunReport) SetPipeline(pcfg PipelineConfig) {
	if r == nil {
		return
	}
	p := pcfg
	r.pcfg = &p
}

// Record folds one iteration's result into the report. Safe on a nil
// receiver.
func (r *RunReport) Record(res *IterationResult) {
	if r == nil || res == nil {
		return
	}
	if r.iters == 0 {
		r.lossFirst = res.Loss
	}
	r.iters++
	r.lossLast = res.Loss
	r.k = res.K
	if res.Peak > r.peak {
		r.peak = res.Peak
	}
	if res.PredictedPeak > r.predictedPeak {
		r.predictedPeak = res.PredictedPeak
	}
	r.critical += res.CriticalPath()
	r.phases.Add(res.Phases)
	r.hiddenTransfer += res.HiddenTransfer
	r.exposedPlanning += res.ExposedPlanning
	r.exposedComm += res.ExposedComm
	r.hiddenComm += res.HiddenComm
}

// RecordOOM counts a rejected iteration (the run continued or aborted after
// a device OOM). Safe on a nil receiver.
func (r *RunReport) RecordOOM() {
	if r == nil {
		return
	}
	r.ooms++
}

// CaptureSession snapshots a single-GPU session's device state, plus its
// cache state when pipelined. Safe on a nil receiver.
func (r *RunReport) CaptureSession(s *Session) {
	if r == nil {
		return
	}
	r.devices = append(r.devices, s.GPU.Stats())
	r.cache = cacheReport(s.CacheStats(), nil)
	r.pooling = poolingReport(s.PoolStats())
}

// CaptureDataParallel snapshots every replica device plus the shared
// loader's per-device cache state. Safe on a nil receiver.
func (r *RunReport) CaptureDataParallel(dp *DataParallel) {
	if r == nil {
		return
	}
	r.devices = append(r.devices, dp.Stats()...)
	r.cache = cacheReport(dp.CacheStats(), dp.PerDeviceCacheStats())
	r.pooling = poolingReport(dp.PoolStats())
	r.sharding = shardingReport(dp)
}

// shardingReport builds the manifest's sharding section from a data-parallel
// run: the flat buffer's shard geometry, the per-replica byte ledger, and the
// cluster's collective breakdown. Nil when the run is unsharded (single
// replica, or ZeRO1 not set) — the section's absence is the signal that the
// all-reduce combine ran.
func shardingReport(dp *DataParallel) *report.Sharding {
	n := len(dp.eng.replicas)
	if n < 2 || !dp.Cfg.ZeRO1 {
		return nil
	}
	fb := dp.eng.flat0
	params := dp.eng.replicas[0].model.Params
	shard := fb.ShardBytes()
	bd := dp.Cluster.Collectives()
	return &report.Sharding{
		Replicas:           n,
		Buckets:            len(fb.Buckets()),
		ParamBytes:         params.ValueBytes(),
		GradShardBytes:     shard,
		OptimShardBytes:    2 * shard,
		PaddingBytes:       int64(fb.PaddingElems()) * 4,
		ReduceScatterNs:    int64(bd.ReduceScatterTime),
		ReduceScatterCount: bd.ReduceScatterCount,
		AllGatherNs:        int64(bd.AllGatherTime),
		AllGatherCount:     bd.AllGatherCount,
		// The per-replica fixed-footprint drop the ledger shows: unsharded
		// training holds params+grads+two moments (4V); ZeRO-1 holds the
		// values plus three shard-sized buffers.
		DroppedBytes: memest.TrainFixedBytes(params.Bytes()) -
			memest.ZeRO1FixedBytes(params.ValueBytes(), shard),
	}
}

// poolingReport converts tensor-pool stats into the manifest form; a pool
// that never served a Get reports nil (pooling off).
func poolingReport(st tensor.PoolStats) *report.Pooling {
	if st.Hits+st.Misses == 0 {
		return nil
	}
	return &report.Pooling{
		Hits: st.Hits, Misses: st.Misses, Resizes: st.Resizes,
		Outstanding: st.Outstanding, RetainedBytes: st.RetainedBytes,
		HitRate: float64(st.Hits) / float64(st.Hits+st.Misses),
	}
}

// cacheReport converts pipeline cache stats into the manifest form; a cache
// that never saw a lookup reports nil (caching off).
func cacheReport(st pipeline.CacheStats, perDevice []pipeline.CacheStats) *report.Cache {
	if st.Hits+st.Misses == 0 {
		return nil
	}
	c := &report.Cache{
		Entries: st.Entries, UsedBytes: st.UsedBytes,
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		HitRate: st.HitRate(),
	}
	for _, d := range perDevice {
		c.PerDevice = append(c.PerDevice, report.CacheDevice{Entries: d.Entries, Hits: d.Hits, Misses: d.Misses})
	}
	return c
}

// Build assembles the manifest. When the recorder carries a metrics
// registry, the registry snapshot and the estimator's error distribution
// come from it; when it carries a trace, each captured device additionally
// gets its reconstructed peak set and per-tag aggregates. A nil recorder
// yields a manifest with config, phases and device counters only.
func (r *RunReport) Build(rec *obs.Recorder) *report.Manifest {
	m := report.New(r.tool)
	m.Config = report.Config{
		System:         string(r.cfg.System),
		Dataset:        r.dataset,
		Arch:           string(r.cfg.Model.Arch),
		Aggregator:     string(r.cfg.Model.Aggregator),
		Layers:         r.cfg.Model.Layers,
		Hidden:         r.cfg.Model.Hidden,
		Fanouts:        r.cfg.Fanouts,
		BatchSize:      r.cfg.BatchSize,
		MemBudgetBytes: r.cfg.MemBudget,
		MicroBatches:   r.cfg.MicroBatches,
		GPUs:           r.gpus,
		Seed:           r.cfg.Seed,
		CommOverlap:    r.cfg.CommOverlap,
		ZeRO1:          r.cfg.ZeRO1,
	}
	if r.cfg.CommOverlap {
		m.Config.BucketBytes = r.cfg.EffectiveBucketBytes()
	}
	if r.pcfg != nil {
		m.Config.Pipelined = true
		m.Config.PrefetchDepth = r.pcfg.Depth
		m.Config.CacheBudgetBytes = r.pcfg.CacheBudget
		m.Config.PlanAhead = r.pcfg.PlanAhead
	}
	m.Run = report.Run{
		Iterations:         r.iters,
		LossFirst:          float64(r.lossFirst),
		LossLast:           float64(r.lossLast),
		K:                  r.k,
		PeakBytes:          r.peak,
		PredictedPeakBytes: r.predictedPeak,
		CriticalPathNs:     int64(r.critical),
		OOMs:               r.ooms,
	}
	m.PhasesNs = phasesNs(r.phases)
	m.Overlap = report.Overlap{
		HiddenTransferNs:  int64(r.hiddenTransfer),
		ExposedPlanningNs: int64(r.exposedPlanning),
		ExposedCommNs:     int64(r.exposedComm),
		HiddenCommNs:      int64(r.hiddenComm),
	}
	m.Cache = r.cache
	m.Pooling = r.pooling
	m.Sharding = r.sharding

	// Timeline reconstruction needs the run's complete ledger stream: a
	// ring trace that wrapped has lost early allocations, and a peak set
	// replayed from a truncated stream would be silently wrong, so it is
	// omitted rather than approximated.
	var events []obs.Event
	if tr := rec.Trace(); tr != nil && tr.Dropped() == 0 {
		events = tr.Events()
	}
	for _, st := range r.devices {
		d := report.Device{
			Name:             st.Name,
			CapacityBytes:    st.Capacity,
			PeakBytes:        st.Peak,
			FinalLiveBytes:   st.Live,
			TransferredBytes: st.Transferred,
			TransferNs:       int64(st.TransferTime),
			ComputeNs:        int64(st.ComputeTime),
			StallNs:          int64(st.StallTime),
		}
		if events != nil {
			tl := obs.Reconstruct(events, st.Name)
			d.OOMs = tl.OOMs
			for _, a := range tl.PeakSet {
				d.PeakSet = append(d.PeakSet, report.TagBytes{Tag: a.Tag, Bytes: a.Bytes})
			}
			d.Tags = tagStats(tl)
		}
		m.Devices = append(m.Devices, d)
	}

	if reg := rec.Metrics(); reg != nil {
		m.Metrics = reg.Snapshot()
		m.Estimator = report.EstimatorFromMetrics(reg)
	}
	return m
}

// tagStats flattens a timeline's per-tag aggregates, sorted by tag name for
// deterministic manifests.
func tagStats(tl *obs.Timeline) []report.TagStat {
	if len(tl.Tags) == 0 {
		return nil
	}
	out := make([]report.TagStat, 0, len(tl.Tags))
	for _, tc := range tl.Tags {
		out = append(out, report.TagStat{Tag: tc.Tag, Allocs: tc.Allocs, Bytes: tc.Bytes, Peak: tc.Peak, Live: tc.Live})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Tag < out[j].Tag })
	return out
}

// phasesNs flattens the Fig 11 breakdown into the manifest's phase map,
// omitting phases that recorded nothing.
func phasesNs(p Phases) map[string]int64 {
	out := make(map[string]int64, 8)
	set := func(name string, d time.Duration) {
		if d != 0 {
			out[name] = int64(d)
		}
	}
	set("scheduling", p.Scheduling)
	set("reg_construction", p.REGConstruction)
	set("metis_partition", p.MetisPartition)
	set("connection_check", p.ConnectionCheck)
	set("block_gen", p.BlockGen)
	set("data_loading", p.DataLoading)
	set("gpu_compute", p.GPUCompute)
	set("communication", p.Communication)
	if len(out) == 0 {
		return nil
	}
	return out
}
