// Command buffalo-train trains a GNN on a synthetic dataset under a
// simulated-GPU memory budget with any of the reproduced systems.
//
// Usage:
//
//	buffalo-train -dataset ogbn-arxiv -system buffalo -budget-mb 24 \
//	    -agg lstm -hidden 64 -batch 2048 -iters 5
//
// Observability: -trace out.json records every scheduler decision, ledger
// event and phase span to a file (-trace-format chrome loads directly into
// Perfetto / chrome://tracing; jsonl is one event per line; folded is
// collapsed-stack input for flamegraph tooling), -metrics prints the metrics
// registry and a per-device memory-timeline summary after the run, and
// -trace-ring bounds the trace's memory for long runs.
//
// Pipelined loading: -pipeline runs the session behind the async prefetch
// pipeline (sampler → planner → prefetcher), -prefetch-depth sets how many
// micro-batches may stage ahead of compute, and -cache-budget-mb reserves
// device memory for the degree-aware feature cache.
//
// Run manifests: -report out.json writes a versioned run manifest (config,
// per-phase breakdown, estimator error distribution, per-device memory
// summary, cache/pool state, metrics snapshot) for buffalo-report
// show/diff. -live renders a self-rewriting status line on stderr —
// per-device live/peak memory, iteration rate, phase mix — fed by a bounded
// recorder tap that never blocks the training hot path.
//
// Multi-GPU: -gpus N runs data-parallel Buffalo over N simulated devices;
// composed with -pipeline, one shared loader stages every replica's
// micro-batches round-robin with a per-device feature cache. -plan-ahead W
// widens the pipeline's planner stage to W concurrent workers, dealt batches
// round-robin (plans still arrive in sampling order); -comm-overlap
// switches the gradient all-reduce to size-bounded buckets (-bucket-kb)
// launched during the backward tail, reporting the exposed/hidden comm split.
//
// Sharded gradients: -zero1 replaces each bucket's all-reduce with a
// reduce-scatter, steps the optimizer per shard, and all-gathers the updated
// values (losses stay bit-identical to the all-reduce path), keeping the
// resident gradient buffer and Adam moments 1/n per replica (ZeRO stage 1):
// each device's fixed footprint shrinks by ~(n-1)/n of the optimizer+gradient
// bytes. It composes with -comm-overlap and shows up in the -report
// manifest's sharding section.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"buffalo"
)

func main() {
	dataset := flag.String("dataset", "ogbn-arxiv", "dataset name")
	system := flag.String("system", "buffalo", "dgl|pyg|betty|buffalo|random|range|metis")
	arch := flag.String("arch", "sage", "sage|gat")
	agg := flag.String("agg", "mean", "mean|pool|lstm (sage only)")
	layers := flag.Int("layers", 2, "aggregation depth")
	hidden := flag.Int("hidden", 32, "hidden size")
	fanouts := flag.String("fanouts", "10,25", "comma-separated per-hop fanouts")
	batch := flag.Int("batch", 1024, "output nodes per iteration")
	budgetMB := flag.Int64("budget-mb", 24, "simulated GPU memory budget in MB")
	iters := flag.Int("iters", 3, "training iterations")
	micro := flag.Int("micro", 0, "fixed micro-batch count (0 = search against the budget)")
	gpus := flag.Int("gpus", 1, "simulated GPUs (data parallel, buffalo only)")
	pipelined := flag.Bool("pipeline", false, "load via the async prefetch pipeline (overlaps H2D with compute)")
	prefetchDepth := flag.Int("prefetch-depth", 2, "micro-batches the pipeline may stage ahead of compute")
	cacheBudgetMB := flag.Int64("cache-budget-mb", 0, "device MB reserved for the degree-aware feature cache (0 = off; implies -pipeline)")
	planAhead := flag.Int("plan-ahead", 0, "planner-pool width: concurrent planner workers dealt batches round-robin (0/1 = single planner; implies -pipeline)")
	commOverlap := flag.Bool("comm-overlap", false, "bucketed overlapped all-reduce: launch gradient buckets during the backward tail (multi-GPU)")
	bucketKB := flag.Int64("bucket-kb", 0, "gradient bucket size in KB for -comm-overlap (0 = 32KB default)")
	zero1 := flag.Bool("zero1", false, "ZeRO-1 optimizer sharding: reduce-scatter buckets, step the optimizer per shard, all-gather values, with 1/n-resident gradients and Adam moments per replica (multi-GPU; bit-identical losses)")
	seed := flag.Int64("seed", 7, "seed")
	tracePath := flag.String("trace", "", "write an execution trace to this file")
	traceFormat := flag.String("trace-format", "chrome", "trace file format: chrome|jsonl|folded")
	traceRing := flag.Int("trace-ring", 0, "bound the trace to the most recent N events (0 = unbounded)")
	metrics := flag.Bool("metrics", false, "print the metrics registry and memory-timeline summary after the run")
	reportPath := flag.String("report", "", "write a versioned run manifest to this file (see buffalo-report)")
	live := flag.Bool("live", false, "render a live status line (memory, it/s, phase mix) on stderr during the run")
	flag.Parse()

	if *traceFormat != "chrome" && *traceFormat != "jsonl" && *traceFormat != "folded" {
		fail(fmt.Errorf("unknown trace format %q (want chrome, jsonl or folded)", *traceFormat))
	}
	var trace *buffalo.Trace
	if *tracePath != "" || *metrics {
		if *traceRing > 0 {
			trace = buffalo.NewRingTrace(*traceRing)
		} else {
			trace = buffalo.NewTrace()
		}
	}
	var rec *buffalo.Recorder
	if trace != nil || *metrics || *reportPath != "" || *live {
		var reg *buffalo.Metrics
		if *metrics || *reportPath != "" {
			reg = buffalo.NewMetrics()
		}
		rec = buffalo.NewRecorder(trace, reg)
	}

	ds, err := buffalo.LoadDataset(*dataset, 3)
	if err != nil {
		fail(err)
	}
	var fo []int
	for _, part := range strings.Split(*fanouts, ",") {
		var f int
		if _, err := fmt.Sscanf(strings.TrimSpace(part), "%d", &f); err != nil {
			fail(fmt.Errorf("bad fanout %q", part))
		}
		fo = append(fo, f)
	}
	cfg := buffalo.TrainConfig{
		System: buffalo.SystemBuffalo,
		Model: buffalo.ModelConfig{
			Arch: buffalo.SAGE, Aggregator: buffalo.Mean,
			Layers: *layers, InDim: ds.FeatDim(), Hidden: *hidden,
			OutDim: ds.NumClasses, Seed: 1,
		},
		Fanouts:      fo,
		BatchSize:    *batch,
		MemBudget:    *budgetMB * buffalo.MB,
		MicroBatches: *micro,
		Seed:         *seed,
		CommOverlap:  *commOverlap,
		BucketBytes:  *bucketKB << 10,
		ZeRO1:        *zero1,
		Obs:          rec,
	}
	switch *system {
	case "dgl":
		cfg.System = buffalo.SystemDGL
	case "pyg":
		cfg.System = buffalo.SystemPyG
	case "betty":
		cfg.System = buffalo.SystemBetty
	case "buffalo":
		cfg.System = buffalo.SystemBuffalo
	case "random":
		cfg.System = buffalo.SystemRandom
	case "range":
		cfg.System = buffalo.SystemRange
	case "metis":
		cfg.System = buffalo.SystemMetis
	default:
		fail(fmt.Errorf("unknown system %q", *system))
	}
	if *arch == "gat" {
		cfg.Model.Arch = buffalo.GAT
	}
	switch *agg {
	case "mean":
		cfg.Model.Aggregator = buffalo.Mean
	case "pool":
		cfg.Model.Aggregator = buffalo.Pool
	case "lstm":
		cfg.Model.Aggregator = buffalo.LSTM
	default:
		fail(fmt.Errorf("unknown aggregator %q", *agg))
	}

	pcfg := buffalo.PipelineConfig{
		Depth:       *prefetchDepth,
		CacheBudget: *cacheBudgetMB * buffalo.MB,
		PlanAhead:   *planAhead,
	}
	usePipeline := *pipelined || *cacheBudgetMB > 0 || *planAhead > 1

	// Both rr and meter are nil-safe: every branch threads them without
	// branching on whether -report/-live were given.
	var rr *buffalo.RunReport
	if *reportPath != "" {
		rr = buffalo.NewRunReport("buffalo-train", *dataset, cfg, *gpus)
		if usePipeline {
			rr.SetPipeline(pcfg)
		}
	}
	var meter *buffalo.Meter
	if *live {
		meter = buffalo.NewLiveMeter(rec)
	}
	defer meter.Stop()
	exitOOM := func(format string, args ...any) {
		meter.Stop()
		fmt.Printf(format, args...)
		rr.RecordOOM()
		writeManifest(rr, rec, *reportPath)
		os.Exit(1)
	}

	if *gpus > 1 {
		var dp *buffalo.DataParallel
		if usePipeline {
			dp, err = buffalo.NewDataParallelPipelined(ds, cfg, *gpus, pcfg)
		} else {
			dp, err = buffalo.NewDataParallel(ds, cfg, *gpus)
		}
		if err != nil {
			fail(err)
		}
		defer dp.Close()
		for i := 0; i < *iters; i++ {
			res, err := dp.RunIteration()
			if err != nil {
				if buffalo.IsOOM(err) {
					exitOOM("iter %d: OOM under %dMB per-GPU budget — shrink -cache-budget-mb or -prefetch-depth, or grow -budget-mb\n", i, *budgetMB)
				}
				fail(err)
			}
			rr.Record(&res.IterationResult)
			if usePipeline {
				fmt.Printf("iter %d: loss=%.4f K=%d peak=%.1fMB critical=%v (compute=%v comm=%v exposed-comm=%v hidden-comm=%v hidden=%v)\n",
					i, res.Loss, res.K, float64(res.Peak)/float64(buffalo.MB),
					res.CriticalPath(), res.Phases.GPUCompute, res.Phases.Communication,
					res.ExposedComm, res.HiddenComm, res.HiddenTransfer)
			} else {
				fmt.Printf("iter %d: loss=%.4f K=%d peak=%.1fMB critical=%v (compute=%v comm=%v exposed-comm=%v hidden-comm=%v)\n",
					i, res.Loss, res.K, float64(res.Peak)/float64(buffalo.MB),
					res.CriticalPath(), res.Phases.GPUCompute, res.Phases.Communication,
					res.ExposedComm, res.HiddenComm)
			}
		}
		if *cacheBudgetMB > 0 {
			for i, st := range dp.PerDeviceCacheStats() {
				fmt.Printf("cache gpu-%d: %d entries, %d hits / %d misses, %d evictions\n",
					i, st.Entries, st.Hits, st.Misses, st.Evictions)
			}
			fmt.Printf("cache aggregate: %.0f%% hit rate\n", 100*dp.CacheHitRate())
		}
		rr.CaptureDataParallel(dp)
		meter.Stop()
		devices := make([]string, *gpus)
		for i := range devices {
			devices[i] = fmt.Sprintf("gpu-%d", i)
		}
		report(rec, trace, *tracePath, *traceFormat, *metrics, devices)
		writeManifest(rr, rec, *reportPath)
		return
	}
	var s *buffalo.Session
	oomHint := "try -system buffalo or a larger budget"
	if usePipeline {
		s, err = buffalo.NewPipelinedSession(ds, cfg, pcfg)
		oomHint = "shrink -cache-budget-mb or -prefetch-depth, or grow -budget-mb"
	} else {
		s, err = buffalo.NewSession(ds, cfg)
	}
	if err != nil {
		fail(err)
	}
	// Stage failures already surface through RunIteration; the shutdown
	// error adds nothing at exit.
	defer s.Close()
	for i := 0; i < *iters; i++ {
		res, err := s.RunIteration()
		if err != nil {
			if buffalo.IsOOM(err) {
				exitOOM("iter %d: OOM under %dMB budget — %s\n", i, *budgetMB, oomHint)
			}
			fail(err)
		}
		rr.Record(res)
		fmt.Printf("iter %d: loss=%.4f acc=%.3f K=%d peak=%.1fMB total=%v",
			i, res.Loss, res.Accuracy, res.K, float64(res.Peak)/float64(buffalo.MB), res.CriticalPath())
		if usePipeline {
			fmt.Printf(" (loading=%v hidden=%v exposed-plan=%v)",
				res.Phases.DataLoading, res.HiddenTransfer, res.ExposedPlanning)
		}
		fmt.Println()
	}
	if *cacheBudgetMB > 0 {
		st := s.CacheStats()
		fmt.Printf("cache: %d entries, %d hits / %d misses (%.0f%% hit rate), %d evictions\n",
			st.Entries, st.Hits, st.Misses, 100*s.CacheHitRate(), st.Evictions)
	}
	rr.CaptureSession(s)
	meter.Stop()
	report(rec, trace, *tracePath, *traceFormat, *metrics, []string{string(cfg.System)})
	writeManifest(rr, rec, *reportPath)
}

// writeManifest stamps and writes the run manifest; a nil report or empty
// path writes nothing. The git revision is best-effort — a tarball checkout
// still gets a manifest, just without provenance.
func writeManifest(rr *buffalo.RunReport, rec *buffalo.Recorder, path string) {
	if rr == nil || path == "" {
		return
	}
	m := rr.Build(rec)
	buffalo.StampManifest(m)
	if err := buffalo.WriteRunManifest(path, m); err != nil {
		fail(err)
	}
	fmt.Printf("report: wrote %s\n", path)
}

// report renders the post-run observability artifacts: the metrics registry
// and per-device memory timelines to stdout, and the trace to its file.
// Every write error propagates to the exit status — a truncated trace file
// must not look like a successful export.
func report(rec *buffalo.Recorder, trace *buffalo.Trace, tracePath, traceFormat string, metrics bool, devices []string) {
	if metrics && rec.Enabled() {
		fmt.Println()
		if err := rec.Metrics().WriteSummary(os.Stdout); err != nil {
			fail(err)
		}
		if trace != nil {
			for _, d := range devices {
				tl := buffalo.ReconstructTimeline(trace.Events(), d)
				fmt.Println()
				if err := tl.WriteSummary(os.Stdout); err != nil {
					fail(err)
				}
			}
		}
	}
	if tracePath == "" {
		return
	}
	f, err := os.Create(tracePath)
	if err != nil {
		fail(err)
	}
	switch traceFormat {
	case "jsonl":
		err = trace.WriteJSONL(f)
	case "folded":
		err = trace.WriteFolded(f)
	default:
		err = trace.WriteChromeTrace(f)
	}
	if err != nil {
		_ = f.Close() // the export failure is the error worth reporting
		fail(err)
	}
	if err := f.Close(); err != nil {
		fail(err)
	}
	if d := trace.Dropped(); d > 0 {
		fmt.Printf("trace: wrote %s (%d events, %d dropped by the ring)\n", tracePath, trace.Len(), d)
	} else {
		fmt.Printf("trace: wrote %s (%d events)\n", tracePath, trace.Len())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "buffalo-train:", err)
	os.Exit(1)
}
