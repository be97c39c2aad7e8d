// Command experiments regenerates the paper's evaluation artifacts.
//
// Usage:
//
//	experiments -run fig10            # one figure/table
//	experiments -run all -quick       # the whole suite at reduced scale
//	experiments -run pipeline         # async-prefetch/cache vs sequential loading
//	experiments -list                 # available experiment ids
//
// Observability: -metrics appends a per-experiment metrics summary to each
// table; -report out.json accumulates one metrics registry across the whole
// sweep and writes a run manifest (metrics snapshot + estimator error
// distribution) for buffalo-report show/diff; -live renders a live
// status line on stderr while the sweep runs.
package main

import (
	"flag"
	"fmt"
	"os"

	"buffalo"
)

func main() {
	run := flag.String("run", "", "experiment id to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "reduced datasets/iterations (minutes instead of tens of minutes)")
	seed := flag.Int64("seed", 3, "dataset and sampling seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	metrics := flag.Bool("metrics", false, "append a per-experiment metrics summary table to each experiment")
	reportPath := flag.String("report", "", "write a sweep-wide run manifest to this file (see buffalo-report)")
	live := flag.Bool("live", false, "render a live status line (memory, it/s, phase mix) on stderr during the sweep")
	flag.Parse()

	if *list {
		for _, id := range buffalo.ExperimentIDs() {
			fmt.Println(id)
		}
		return
	}
	if *run == "" {
		fmt.Fprintln(os.Stderr, "experiments: pass -run <id> or -list; ids map to the paper's figures/tables (see DESIGN.md)")
		os.Exit(2)
	}
	// -metrics renders and resets the registry per experiment; -report needs
	// the registry to accumulate across the sweep instead, so the two are
	// mutually exclusive rather than silently truncating the manifest.
	if *metrics && *reportPath != "" {
		fmt.Fprintln(os.Stderr, "experiments: -metrics resets the registry between experiments; use it or -report, not both")
		os.Exit(2)
	}
	var rec *buffalo.Recorder
	if *metrics || *reportPath != "" {
		rec = buffalo.NewRecorder(nil, buffalo.NewMetrics())
	} else if *live {
		rec = buffalo.NewRecorder(nil, nil)
	}
	var meter *buffalo.Meter
	if *live {
		meter = buffalo.NewLiveMeter(rec)
	}
	opts := buffalo.ExperimentOptions{Quick: *quick, Seed: *seed, Obs: rec, MetricsSummary: *metrics}
	err := buffalo.RunExperiments(*run, opts, os.Stdout)
	meter.Stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *reportPath != "" {
		m := buffalo.BuildMetricsManifest("experiments", rec)
		buffalo.StampManifest(m)
		if err := buffalo.WriteRunManifest(*reportPath, m); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		fmt.Printf("report: wrote %s\n", *reportPath)
	}
}
