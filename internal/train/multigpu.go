package train

import (
	"fmt"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/memest"
	"buffalo/internal/pipeline"
	"buffalo/internal/tensor"
)

// DataParallel trains with Buffalo scheduling across a simulated multi-GPU
// cluster (§V-G): micro-batches are scheduled against the per-GPU budget,
// dealt round-robin to the devices, executed "concurrently" (the iteration's
// GPU-compute wall time is the maximum across devices, since real devices
// run in parallel), and gradients are combined with a simulated ring
// all-reduce before the optimizer step.
//
// It is the same iteration engine the single-GPU Session drives, over one
// replica per device. Sequentially it stages features with synchronous
// copies (the §V-G plateau configuration: host-side generation serializes);
// NewDataParallelPipelined puts the shared sampler/planner/prefetcher loader
// in front instead, staging each replica's micro-batches asynchronously
// behind the previous compute.
type DataParallel struct {
	Cfg     Config
	Data    *datagen.Dataset
	Cluster *device.Cluster

	eng   *engine
	ld    *loader // nil for the sequential (plateau) configuration
	fixed []*device.Allocation
}

// MultiGPUResult extends IterationResult with per-device timing.
type MultiGPUResult struct {
	IterationResult
	PerGPUCompute []time.Duration
}

// NewDataParallel builds a sequential data-parallel run over gpus identical
// devices. Only the Buffalo system is supported: the paper's multi-GPU
// evaluation repeats the Buffalo pipeline with per-GPU budgets.
func NewDataParallel(ds *datagen.Dataset, cfg Config, gpus int) (*DataParallel, error) {
	return newDataParallel(ds, cfg, gpus, nil)
}

// NewDataParallelPipelined is NewDataParallel with the asynchronous loader
// in front: one shared sampler/planner/prefetcher stages every replica's
// micro-batches ahead of compute over per-replica bounded lanes, with a
// per-device feature cache when pcfg.CacheBudget is set.
func NewDataParallelPipelined(ds *datagen.Dataset, cfg Config, gpus int, pcfg PipelineConfig) (*DataParallel, error) {
	return newDataParallel(ds, cfg, gpus, &pcfg)
}

func newDataParallel(ds *datagen.Dataset, cfg Config, gpus int, pcfg *PipelineConfig) (*DataParallel, error) {
	if cfg.System != Buffalo {
		return nil, fmt.Errorf("train: data-parallel supports the buffalo system, got %q", cfg.System)
	}
	if err := validateFor(ds, cfg); err != nil {
		return nil, err
	}
	if gpus < 1 {
		return nil, fmt.Errorf("train: need at least 1 GPU, got %d", gpus)
	}
	cluster, err := device.NewCluster("gpu", gpus, cfg.MemBudget, device.WithRecorder(cfg.Obs))
	if err != nil {
		return nil, err
	}
	dp := &DataParallel{Cfg: cfg, Data: ds, Cluster: cluster}
	replicas := make([]replica, 0, gpus)
	for i := 0; i < gpus; i++ {
		m, err := gnn.New(cfg.Model)
		if err != nil {
			return nil, err
		}
		replicas = append(replicas, replica{gpu: cluster.GPU(i), model: m})
	}
	// The engine flattens every replica's parameter storage (and builds the
	// shard layout when the sharded collectives are on), so the fixed
	// footprints are charged after it exists: ZeRO-1 charges need the flat
	// buffer's shard size.
	eng, err := newEngine(ds, cfg, replicas, cluster)
	if err != nil {
		return nil, err
	}
	dp.eng = eng
	for i, r := range replicas {
		if cfg.ZeRO1 && gpus > 1 {
			// ZeRO-1 splits the replica's fixed footprint on the ledger:
			// parameter values stay fully replicated, while the resident
			// gradient buffer and both Adam moments shrink to the replica's
			// 1/n shard — the memory timeline shows the sharded tag next to
			// the replicated model.
			vals, err := r.gpu.Alloc("model", r.model.Params.ValueBytes())
			if err != nil {
				dp.freeFixed()
				return nil, fmt.Errorf("train: replica %d does not fit: %w", i, err)
			}
			dp.fixed = append(dp.fixed, vals)
			shard := eng.flat0.ShardBytes()
			zb := memest.ZeRO1FixedBytes(r.model.Params.ValueBytes(), shard) - r.model.Params.ValueBytes()
			sh, err := r.gpu.Alloc("zero1/grads+optstate", zb)
			if err != nil {
				dp.freeFixed()
				return nil, fmt.Errorf("train: replica %d does not fit: %w", i, err)
			}
			dp.fixed = append(dp.fixed, sh)
			continue
		}
		// Fixed footprint per replica: parameters + gradients + Adam moments.
		a, err := r.gpu.Alloc("model+optimizer", memest.TrainFixedBytes(r.model.Params.Bytes()))
		if err != nil {
			dp.freeFixed()
			return nil, fmt.Errorf("train: replica %d does not fit: %w", i, err)
		}
		dp.fixed = append(dp.fixed, a)
	}
	if pcfg != nil {
		ld, err := newLoader(dp.eng, *pcfg)
		if err != nil {
			dp.freeFixed()
			return nil, err
		}
		dp.ld = ld
	}
	return dp, nil
}

// RunIteration executes one data-parallel iteration: from the loader when
// pipelined, otherwise sample → plan → execute inline with synchronous
// staging.
func (dp *DataParallel) RunIteration() (*MultiGPUResult, error) {
	return dp.eng.runIteration(dp.ld)
}

// PoolStats reports the tensor-pool reuse counters of the run's compute
// arena.
func (dp *DataParallel) PoolStats() tensor.PoolStats { return dp.eng.poolStats() }

// Stats snapshots every replica device's counters, cluster order.
func (dp *DataParallel) Stats() []device.Stats {
	return dp.Cluster.Stats()
}

// CacheStats aggregates the per-device feature caches (zero value when not
// pipelined or caching is off).
func (dp *DataParallel) CacheStats() pipeline.CacheStats { return dp.ld.cacheStats() }

// PerDeviceCacheStats snapshots each device's feature cache, index-aligned
// with the cluster (nil when not pipelined or caching is off).
func (dp *DataParallel) PerDeviceCacheStats() []pipeline.CacheStats {
	return dp.ld.perDeviceCacheStats()
}

// CacheHitRate reports the aggregate cache hit rate across devices (0 when
// not pipelined or caching is off).
func (dp *DataParallel) CacheHitRate() float64 { return dp.ld.cacheStats().HitRate() }

// Shutdown stops the loader (when pipelined), waits for its stages to
// unwind, and releases every device allocation. Idempotent; returns the
// loader's first stage failure, if any.
func (dp *DataParallel) Shutdown() error {
	var err error
	if dp.ld != nil {
		err = dp.ld.close()
	}
	dp.eng.dropResident()
	dp.freeFixed()
	return err
}

// Close is Shutdown for callers that do not need the loader's shutdown
// error (any stage failure already surfaced through RunIteration).
func (dp *DataParallel) Close() {
	_ = dp.Shutdown() // error already surfaced via RunIteration
}

func (dp *DataParallel) freeFixed() {
	for _, a := range dp.fixed {
		a.Free()
	}
	dp.fixed = nil
}
