// Command buffalo-serve runs the online inference service over a forward-only
// Buffalo session and drives it with a built-in load generator.
//
// Usage:
//
//	buffalo-serve -dataset ogbn-arxiv -budget-mb 24 -batch 32 -max-wait 2ms \
//	    -clients 16 -requests 200
//
// The service coalesces concurrent per-node requests into micro-batches under
// the -batch/-max-wait policy; each batch rides the same sample → K-search →
// block-gen → execute spine as training, forward-only, so a batch too large
// for the moment's headroom splits instead of failing. Admission control
// charges queued batches to the simulated GPU's ledger and sheds load
// (ErrOverloaded) rather than OOMing. -cache-budget-mb reserves device memory
// for the degree-aware feature cache, which absorbs H2D traffic under skewed
// request traffic (-skew).
//
// Load generation: the default is a closed loop of -clients synchronous
// workers issuing -requests each; -rate R switches to an open loop issuing
// -requests total at R req/s regardless of completions. -skew Z draws request
// nodes Zipf(Z) instead of uniformly.
//
// Observability: -metrics prints the registry (request counters, latency/
// queue-wait/assembly histograms) after the run; -report out.json writes a
// run manifest with a serving section (p50/p90/p99 latency, throughput, shed
// and batch counters) for buffalo-report show/diff; -live renders the
// live status line on stderr while the load runs.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"buffalo"
)

func main() {
	dataset := flag.String("dataset", "ogbn-arxiv", "dataset name")
	arch := flag.String("arch", "sage", "sage|gat")
	agg := flag.String("agg", "mean", "mean|pool|lstm (sage only)")
	layers := flag.Int("layers", 2, "aggregation depth")
	hidden := flag.Int("hidden", 32, "hidden size")
	fanouts := flag.String("fanouts", "10,25", "comma-separated per-hop fanouts")
	budgetMB := flag.Int64("budget-mb", 24, "simulated GPU memory budget in MB")
	cacheBudgetMB := flag.Int64("cache-budget-mb", 0, "device MB reserved for the degree-aware feature cache (0 = off)")
	batch := flag.Int("batch", 32, "max requests coalesced into one batch")
	maxWait := flag.Duration("max-wait", 2*time.Millisecond, "max time the first request of a batch waits for company")
	queue := flag.Int("queue", 2, "sealed batches that may wait for the executor before shedding")
	reserveKB := flag.Int64("reserve-kb", 0, "admission charge per queued request in KB (0 = calibrate from a warm-up batch)")
	clients := flag.Int("clients", 16, "closed-loop client goroutines")
	requests := flag.Int("requests", 200, "requests per client (closed loop) or total (open loop)")
	rate := flag.Float64("rate", 0, "open-loop arrival rate in req/s (0 = closed loop)")
	skew := flag.Float64("skew", 0, "Zipf skew for request nodes (0 = uniform)")
	seed := flag.Int64("seed", 7, "seed")
	metrics := flag.Bool("metrics", false, "print the metrics registry after the run")
	reportPath := flag.String("report", "", "write a run manifest with a serving section to this file (see buffalo-report)")
	live := flag.Bool("live", false, "render a live status line (memory, batch rate, phase mix) on stderr during the load")
	flag.Parse()

	// The SLO quantiles in the exit summary come from the metrics registry,
	// so buffalo-serve always records one (unlike buffalo-train, where
	// metrics are opt-in).
	rec := buffalo.NewRecorder(nil, buffalo.NewMetrics())

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
		Fanouts:   fo,
		BatchSize: *batch,
		MemBudget: *budgetMB * buffalo.MB,
		Seed:      *seed,
		Obs:       rec,
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

	sess, err := buffalo.NewInferenceSession(ds, cfg, *cacheBudgetMB*buffalo.MB)
	if err != nil {
		fail(err)
	}
	defer sess.Close()
	srv, err := buffalo.NewServer(sess, buffalo.ServeConfig{
		BatchSize:         *batch,
		MaxWait:           *maxWait,
		QueueLimit:        *queue,
		ReservePerRequest: *reserveKB << 10,
	})
	if err != nil {
		fail(err)
	}

	var meter *buffalo.Meter
	if *live {
		meter = buffalo.NewLiveMeter(rec)
	}
	var pf buffalo.NodePickerFactory
	if *skew > 0 {
		pf = buffalo.ZipfPicker(ds.Graph.NumNodes(), *skew)
	} else {
		pf = buffalo.UniformPicker(ds.Graph.NumNodes())
	}
	var lr buffalo.LoadResult
	if *rate > 0 {
		fmt.Printf("open loop: %d requests at %.0f req/s\n", *requests, *rate)
		lr = buffalo.ServeOpenLoop(srv, *rate, *requests, pf, *seed)
	} else {
		fmt.Printf("closed loop: %d clients x %d requests\n", *clients, *requests)
		lr = buffalo.ServeClosedLoop(srv, *clients, *requests, pf, *seed)
	}
	srv.Close()
	meter.Stop()

	st := srv.Stats()
	fmt.Printf("offered=%d completed=%d shed=%d errors=%d in %v\n",
		lr.Offered, lr.Completed, lr.Shed, lr.Errors, lr.Elapsed.Round(time.Millisecond))
	fmt.Printf("throughput=%.0f req/s batches=%d avg-batch=%.1f\n",
		st.ThroughputRPS, st.Batches, st.AvgBatchSize)
	fmt.Printf("latency p50=%v p90=%v p99=%v queue-wait p50=%v p99=%v\n",
		st.LatencyP50, st.LatencyP90, st.LatencyP99, st.QueueWaitP50, st.QueueWaitP99)
	if c := st.Cache; c.Hits+c.Misses > 0 {
		fmt.Printf("cache: %d entries, %d hits / %d misses (%.0f%% hit rate), %d evictions\n",
			c.Entries, c.Hits, c.Misses, 100*float64(c.Hits)/float64(c.Hits+c.Misses), c.Evictions)
	}

	if *metrics && rec.Enabled() {
		fmt.Println()
		if err := rec.Metrics().WriteSummary(os.Stdout); err != nil {
			fail(err)
		}
	}
	if *reportPath != "" {
		m := srv.BuildManifest(*dataset)
		buffalo.StampManifest(m)
		if err := buffalo.WriteRunManifest(*reportPath, m); err != nil {
			fail(err)
		}
		fmt.Printf("report: wrote %s\n", *reportPath)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "buffalo-serve:", err)
	os.Exit(1)
}
