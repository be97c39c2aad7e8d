package train

import (
	"fmt"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/pipeline"
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

	sessionCore
}

// MultiGPUResult extends IterationResult with per-device timing.
type MultiGPUResult struct {
	IterationResult
	PerGPUCompute []time.Duration

	// perBuf and gpuBuf back PerMicroBytes with PerMicroEstimate, and
	// PerGPUCompute, when they fit: an iteration of up to 16 micro-batches on
	// up to 4 replicas costs its result one allocation, and every result
	// still owns its slices.
	perBuf [32]int64
	gpuBuf [4]time.Duration
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
	su := setup{gpus: gpus}
	if pcfg != nil {
		su.cacheBudget = pcfg.CacheBudget
	}
	eng, err := newEngine(ds, cfg, su)
	if err != nil {
		return nil, err
	}
	if pcfg != nil {
		eng.ld = newLoader(eng, *pcfg)
	}
	return &DataParallel{Cfg: cfg, Data: ds, Cluster: eng.cluster, sessionCore: sessionCore{eng}}, nil
}

// RunIteration executes one data-parallel iteration: from the loader when
// pipelined, otherwise sample → plan → execute inline with synchronous
// staging.
func (dp *DataParallel) RunIteration() (*MultiGPUResult, error) {
	if err := dp.eng.checkOpen(); err != nil {
		return nil, err
	}
	return dp.eng.runIteration()
}

// Stats snapshots every replica device's counters, cluster order.
func (dp *DataParallel) Stats() []device.Stats {
	return dp.Cluster.Stats()
}

// PerDeviceCacheStats snapshots each device's feature cache, index-aligned
// with the cluster (nil when not pipelined or caching is off).
func (dp *DataParallel) PerDeviceCacheStats() []pipeline.CacheStats {
	return dp.eng.perDeviceCacheStats()
}
