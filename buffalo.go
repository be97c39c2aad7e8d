// Package buffalo is a from-scratch Go reproduction of "Buffalo: Enabling
// Large-Scale GNN Training via Memory-Efficient Bucketization" (HPCA 2025).
//
// Buffalo trains graph neural networks whose per-iteration memory exceeds
// the accelerator's capacity by partitioning each training batch at the
// bucket level: output nodes are grouped by sampled degree, the exploding
// cut-off bucket is split into micro-buckets, and buckets are packed into
// memory-balanced groups — each group becoming one micro-batch whose
// gradients accumulate into a mathematically identical optimizer step.
//
// This package is the public facade. A typical session:
//
//	ds, _ := buffalo.LoadDataset("ogbn-arxiv", 1)
//	cfg := buffalo.TrainConfig{
//		System:    buffalo.SystemBuffalo,
//		Model:     buffalo.ModelConfig{Arch: buffalo.SAGE, Aggregator: buffalo.LSTM,
//			Layers: 2, InDim: ds.FeatDim(), Hidden: 64, OutDim: ds.NumClasses, Seed: 1},
//		Fanouts:   []int{10, 25},
//		BatchSize: 2048,
//		MemBudget: 24 * buffalo.MB, // simulated-GPU capacity
//		Seed:      7,
//	}
//	s, _ := buffalo.NewSession(ds, cfg)
//	defer s.Close()
//	res, _ := s.RunIteration()
//	fmt.Println(res.K, res.Loss, res.Peak)
//
// The training math runs on the CPU; device memory, OOM behaviour and
// transfer costs are simulated by a byte-accurate ledger (see
// internal/device and DESIGN.md for the substitution rationale). Every
// figure and table of the paper's evaluation can be regenerated with
// RunExperiment or the cmd/experiments binary.
package buffalo

import (
	"io"
	"os"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/experiments"
	"buffalo/internal/gnn"
	"buffalo/internal/graph"
	"buffalo/internal/pipeline"
	"buffalo/internal/train"
)

// Memory units for TrainConfig.MemBudget. Reproduction scale maps the
// paper's GB budgets to MB (DESIGN.md §3).
const (
	MB = device.MB
	GB = device.GB
)

// NodeID identifies a node in a dataset's graph.
type NodeID = graph.NodeID

// Dataset is a synthetic stand-in for one of the paper's Table II datasets:
// a graph with node features and labels.
type Dataset = datagen.Dataset

// DatasetSpec describes a synthetic dataset generator.
type DatasetSpec = datagen.Spec

// LoadDataset generates one of the registered datasets ("cora", "pubmed",
// "reddit", "ogbn-arxiv", "ogbn-products", "ogbn-papers") deterministically
// from a seed.
func LoadDataset(name string, seed int64) (*Dataset, error) {
	return datagen.Load(name, seed)
}

// GenerateDataset builds a dataset from a custom spec.
func GenerateDataset(spec DatasetSpec, seed int64) (*Dataset, error) {
	return datagen.Generate(spec, seed)
}

// DatasetNames lists the registered datasets in the paper's Table II order.
func DatasetNames() []string { return datagen.Names() }

// ModelConfig configures a GNN model.
type ModelConfig = gnn.Config

// Model architectures.
const (
	SAGE = gnn.SAGE
	GAT  = gnn.GAT
)

// GraphSAGE aggregators, in increasing memory appetite.
const (
	Mean = gnn.Mean
	Pool = gnn.Pool
	LSTM = gnn.LSTM
)

// TrainConfig configures a training session; see train.Config.
type TrainConfig = train.Config

// Training systems: the paper's baselines and Buffalo itself.
const (
	SystemDGL     = train.DGL
	SystemPyG     = train.PyG
	SystemBetty   = train.Betty
	SystemBuffalo = train.Buffalo
	SystemRandom  = train.RandomP
	SystemRange   = train.RangeP
	SystemMetis   = train.MetisP
)

// Session is a single-GPU training run, sequential (NewSession) or behind
// the pipelined loader (NewPipelinedSession).
type Session = train.Session

// IterationResult reports one training iteration (loss, micro-batch count,
// peak device memory, per-phase timings).
type IterationResult = train.IterationResult

// Phases is the per-iteration component breakdown (Fig 11's categories).
type Phases = train.Phases

// NewSession builds a training session on a simulated GPU with the
// configured memory budget.
func NewSession(ds *Dataset, cfg TrainConfig) (*Session, error) {
	return train.NewSession(ds, cfg)
}

// PipelineConfig tunes the async loader: prefetch depth and the device bytes
// reserved for the feature cache.
type PipelineConfig = train.PipelineConfig

// CacheStats summarizes the feature cache's effectiveness.
type CacheStats = pipeline.CacheStats

// NewPipelinedSession builds a training session behind an asynchronous
// three-stage loader (sampler → planner → prefetcher) with an optional
// degree-aware GPU feature cache. It reproduces the sequential session's
// exact batch sequence for a given seed; only the timing model (transfer
// overlap, cache hits) differs. The cache budget (if any) is charged to the
// device ledger up front, so the micro-batch planner sees the reduced
// headroom.
func NewPipelinedSession(ds *Dataset, cfg TrainConfig, pcfg PipelineConfig) (*Session, error) {
	return train.NewPipelinedSession(ds, cfg, pcfg)
}

// DataParallel is a multi-GPU (data-parallel) Buffalo training run (§V-G).
type DataParallel = train.DataParallel

// MultiGPUResult is a data-parallel iteration result: an IterationResult
// plus per-device compute timing.
type MultiGPUResult = train.MultiGPUResult

// NewDataParallel builds a data-parallel run over the given number of
// simulated GPUs, each with cfg.MemBudget capacity. Feature staging is
// synchronous — this is the paper's §V-G plateau configuration, where
// host-side micro-batch generation serializes the replicas.
func NewDataParallel(ds *Dataset, cfg TrainConfig, gpus int) (*DataParallel, error) {
	return train.NewDataParallel(ds, cfg, gpus)
}

// NewDataParallelPipelined is NewDataParallel with the asynchronous loader in
// front: one shared sampler/planner/prefetcher stages every replica's
// micro-batches ahead of compute over per-replica bounded lanes, with an
// optional per-device feature cache (pcfg.CacheBudget is charged to each
// device's ledger).
func NewDataParallelPipelined(ds *Dataset, cfg TrainConfig, gpus int, pcfg PipelineConfig) (*DataParallel, error) {
	return train.NewDataParallelPipelined(ds, cfg, gpus, pcfg)
}

// IsOOM reports whether err is (or wraps) a simulated device out-of-memory
// fault.
func IsOOM(err error) bool { return device.IsOOM(err) }

// ExperimentIDs lists the reproducible paper artifacts (figures, tables,
// ablations) in the paper's order.
func ExperimentIDs() []string {
	var ids []string
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	return ids
}

// RunExperiment regenerates the given paper figure/table (or "all") and
// renders it to w. Quick mode restricts datasets and iteration counts so a
// full sweep finishes in minutes.
func RunExperiment(id string, quick bool, seed int64, w io.Writer) error {
	return RunExperimentObserved(id, quick, seed, nil, w)
}

// RunExperimentObserved is RunExperiment with an observability recorder
// attached to every training run. When the recorder carries a metrics
// registry, each experiment's table is followed by a metrics summary and the
// registry is reset between experiments. A nil recorder behaves exactly like
// RunExperiment.
func RunExperimentObserved(id string, quick bool, seed int64, rec *Recorder, w io.Writer) error {
	return experiments.Run(id, experiments.Options{Quick: quick, Seed: seed, Obs: rec, MetricsSummary: true}, w)
}

// ExperimentOptions is the full experiment-sweep configuration, for callers
// that need finer control than RunExperimentObserved — e.g. accumulating one
// metrics registry across the whole sweep for a run manifest instead of
// rendering and resetting per experiment.
type ExperimentOptions = experiments.Options

// RunExperiments is RunExperiment with explicit options.
func RunExperiments(id string, opts ExperimentOptions, w io.Writer) error {
	return experiments.Run(id, opts, w)
}

// WriteDatasetFile serializes a dataset to path in the binary dataset
// format, so expensive generations (papers-mini takes ~10s) happen once.
func WriteDatasetFile(ds *Dataset, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := ds.Save(f); err != nil {
		_ = f.Close() // the Save failure is the error worth reporting
		return err
	}
	return f.Close()
}

// ReadDatasetFile loads a dataset written by WriteDatasetFile.
func ReadDatasetFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //buffalo:vet-ignore errcheck close of read-only file
	return datagen.ReadDataset(f)
}
