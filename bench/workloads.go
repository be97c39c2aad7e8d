package main

import (
	"fmt"
	"time"

	"buffalo/internal/datagen"
	"buffalo/internal/device"
	"buffalo/internal/gnn"
	"buffalo/internal/train"
)

type kind int

const (
	trainSeq kind = iota // train.NewSession, planned and run inline
	trainDP              // train.NewDataParallelPipelined over 2 replicas
	planOnly             // the planner layers alone, cold K-search per budget
	serving              // open-loop requests through serve.Server, then offline Infer
)

// spec is one named workload. Every workload is Buffalo-scheduled 2-layer
// GraphSAGE with hidden 16; what differs is the graph, the aggregator, how
// tight the simulated device is, and which code path drives the layers.
type spec struct {
	name, why string
	kind      kind
	dataset   string
	agg       gnn.Aggregator
	inDim     int // 0 = the dataset's feature width
	batch     int
	fanouts   []int
	budget    int64
	micro     int // fixed K; 0 = search for the smallest K that fits
	warm      int // warm-up operations, part of set-up
	// recorderCost: the traced run also measures obs.recorder_overhead_frac
	// here (the compute-bound workload, where a recorder's cost would show).
	recorderCost bool
}

var workloads = []spec{
	{
		name: "train-cora-seq", kind: trainSeq,
		why:     "compute-bound: K fixed at 4 on a roomy device, GEMM is most of host time, so kernel work shows here and planner work must not",
		dataset: "cora", agg: gnn.Mean, batch: 256, fanouts: []int{5, 5},
		budget: device.GB, micro: 4, warm: 20, recorderCost: true,
	},
	{
		name: "train-arxiv-tight", kind: trainSeq,
		why:     "the paper's regime: power-law graph under a 12 MB device, inline K-search and bucket explosion, GEMMs above the parallel threshold",
		dataset: "ogbn-arxiv", agg: gnn.Mean, batch: 512, fanouts: []int{10, 25},
		budget: 12 * device.MB, warm: 10,
	},
	{
		name: "train-arxiv-dp2", kind: trainDP,
		why:     "same task through the pipelined 2-replica path: background planner, feature cache, prefetch, ZeRO-1 collectives compete for two cores",
		dataset: "ogbn-arxiv", agg: gnn.Mean, batch: 512, fanouts: []int{10, 25},
		budget: 12 * device.MB, warm: 10,
	},
	{
		name: "train-cora-lstm", kind: trainSeq,
		why:     "the memory wall: the LSTM aggregator forces K>1 under 2 MB and runs nn.LSTMCell and the LSTM estimator, not the GEMM-only path",
		dataset: "cora", agg: gnn.LSTM, inDim: 64, batch: 128, fanouts: []int{5, 5},
		budget: 2 * device.MB, warm: 5,
	},
	{
		name: "plan-arxiv-sweep", kind: planOnly,
		why:     "planner layers only, cold K-search at whole/2, /4 and /8 of a 1024-seed batch: tensor, gnn and nn do no work, so kernel changes must not move it",
		dataset: "ogbn-arxiv", agg: gnn.Mean, batch: 1024, fanouts: []int{10, 25},
		warm: 10,
	},
	{
		name: "serve-arxiv-zipf", kind: serving,
		why:     "forward-only use of the same layers behind a batching queue: offline 32-node batches, then open-loop Zipf(1.2) requests at 1000/2000/3000 per second",
		dataset: "ogbn-arxiv", agg: gnn.Mean, batch: serveBatch, fanouts: []int{10, 25},
		budget: 16 * device.MB, warm: 20,
	},
}

const (
	serveBatch       = 32
	serveCacheBudget = 4 * device.MB
	dpCacheBudget    = 2 * device.MB
	dpReplicas       = 2
	dpDepth          = 2
	gpuSpeedup       = 100 // train.Config's default: simulated kernel time = host time / 100
	serveLimit       = 10 * time.Millisecond
)

var serveRates = []float64{1000, 2000, 3000}

func findWorkload(name string) (*spec, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// graphSeed fixes each workload's graph, features and labels: the dataset is
// part of the workload's definition, as ogbn-arxiv is one graph. How often K
// flips between neighbouring values under a tight budget depends on the
// sampled degree tail, and a graph per seed moved k_mean by 20% between
// seeds. The run's seed draws everything that varies between runs of one
// dataset: the model's initial weights, the batch stream, the request
// stream.
const graphSeed = 3

func modelSeed(seed int64) int64  { return seed*7919 + 1 }
func sampleSeed(seed int64) int64 { return seed*104729 + 2 }

func (sp *spec) load() (*datagen.Dataset, error) { return datagen.Load(sp.dataset, graphSeed) }

func (sp *spec) modelConfig(ds *datagen.Dataset, seed int64) gnn.Config {
	in := sp.inDim
	if in == 0 {
		in = ds.FeatDim()
	}
	return gnn.Config{Arch: gnn.SAGE, Aggregator: sp.agg, Layers: len(sp.fanouts),
		InDim: in, Hidden: 16, OutDim: ds.NumClasses, Seed: modelSeed(seed)}
}

func (sp *spec) trainConfig(ds *datagen.Dataset, seed int64) train.Config {
	cfg := train.Config{
		System:       train.Buffalo,
		Model:        sp.modelConfig(ds, seed),
		Fanouts:      sp.fanouts,
		BatchSize:    sp.batch,
		MemBudget:    sp.budget,
		MicroBatches: sp.micro,
		Seed:         sampleSeed(seed),
	}
	if sp.kind == trainDP {
		cfg.CommOverlap = true
		cfg.ZeRO1 = true
	}
	return cfg
}

// metricDef names one reported number. The two tables below are the
// benchmark's contract: BENCHMARK.json lists exactly these names and units,
// and every workload reports every one of them (a per-layer row reads 0 on a
// workload where that layer does no work).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"host_seeds_per_s", "seeds/s"},
	{"sim_op_ms_p50", "ms"},
	{"k_mean", "micro-batches"},
	{"good_frac", "ratio"},
	{"host_allocs_per_op", "count"},
}

var perLayer = []metricDef{
	{"sampling.busy_ms_per_iter", "ms"},
	{"sampling.edges_per_s", "edges/s"},
	{"sampling.nodes_per_iter", "count"},
	{"bucket.busy_ms_per_iter", "ms"},
	{"bucket.buckets_per_batch", "count"},
	{"bucket.explosion_frac", "ratio"},
	{"memest.busy_ms_per_iter", "ms"},
	{"memest.err_pct_p50", "%"},
	{"memest.err_pct_p90", "%"},
	{"schedule.busy_ms_per_iter", "ms"},
	{"schedule.ms_per_k", "ms"},
	{"schedule.k_mean", "micro-batches"},
	{"schedule.imbalance_p50", "ratio"},
	{"schedule.redundancy_ratio", "ratio"},
	{"block.busy_ms_per_iter", "ms"},
	{"block.edges_per_s", "edges/s"},
	{"block.nodes_per_iter", "count"},
	{"datagen.gather_ms_per_iter", "ms"},
	{"datagen.gather_gb_per_s", "GB/s"},
	{"pipeline.cache_hit_frac", "ratio"},
	{"pipeline.cache_evictions_per_iter", "count"},
	{"pipeline.cache_lookup_ns", "ns"},
	{"pipeline.cache_admit_ns", "ns"},
	{"device.sim_transfer_ms_per_iter", "ms"},
	{"device.sim_compute_ms_per_iter", "ms"},
	{"device.sim_comm_ms_per_iter", "ms"},
	{"device.sim_exposed_comm_ms_per_iter", "ms"},
	{"device.sim_hidden_transfer_ms_per_iter", "ms"},
	{"device.h2d_bytes_per_iter", "bytes"},
	{"device.collective_calls_per_iter", "count"},
	{"device.peak_frac", "ratio"},
	{"device.ledger_ns_per_alloc", "ns"},
	{"gnn.fwd_ms_per_iter", "ms"},
	{"gnn.bwd_ms_per_iter", "ms"},
	{"gnn.fwd_nodes_per_s", "nodes/s"},
	{"nn.loss_ms_per_iter", "ms"},
	{"nn.opt_step_ms_per_iter", "ms"},
	{"nn.lstm_seq_ms", "ms"},
	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.matmul_atb_gflops", "GFLOP/s"},
	{"tensor.matmul_abt_gflops", "GFLOP/s"},
	{"tensor.pool_hit_frac", "ratio"},
	{"tensor.pool_get_put_ns", "ns"},
	{"train.host_op_ms_p50", "ms"},
	{"train.host_op_ms_p90", "ms"},
	{"train.host_allocs_per_op", "count"},
	{"train.host_heap_mb", "MB"},
	{"train.planning_share", "ratio"},
	{"train.residual_frac", "ratio"},
	{"serve.p50_ms_r1000", "ms"},
	{"serve.p99_ms_r1000", "ms"},
	{"serve.p99_ms_r2000", "ms"},
	{"serve.p99_ms_r3000", "ms"},
	{"serve.good_frac_r3000", "ratio"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.queue_wait_ms_p99", "ms"},
	{"serve.batch_size_mean", "count"},
	{"serve.shed_frac", "ratio"},
	{"serve.gen_late_ms_max", "ms"},
	{"serve.max_rate_ok", "1/s"},
	{"serve.assembly_ms_p50", "ms"},
	{"serve.compute_ms_p50", "ms"},
	{"obs.recorder_overhead_frac", "ratio"},
	{"bench.trace_overhead_frac", "ratio"},
	{"bench.calib_gflops", "GFLOP/s"},
	{"bench.calib_drift_frac", "ratio"},
}
