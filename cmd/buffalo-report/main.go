// Command buffalo-report inspects, compares and gates run manifests written
// by buffalo-train -report and experiments -report.
//
// Usage:
//
//	buffalo-report show run.json
//	buffalo-report diff base.json current.json
//	buffalo-report gate -baseline base.json -current run.json \
//	    -est-drift-pp 1 -allocs-pct 5
//	buffalo-report gate -baseline base.json -current run.json \
//	    -thresholds scripts/report_thresholds.json
//	buffalo-report merge-bench -bench bench.txt -out run.json [-manifest run.json]
//
// show pretty-prints one manifest. diff aligns two manifests by flattened
// metric key and prints every changed value ("(new)"/"(gone)" for one-sided
// keys). gate applies regression thresholds — estimator-error drift in
// percentage points, critical-path growth %, allocs/op growth %, cache
// hit-rate drop in percentage points; a zero threshold disables that check —
// and exits 1 with one actionable line per violation. merge-bench folds a
// `go test -bench` text log into a manifest so benchmark ns/op and allocs/op
// gate alongside run metrics.
package main

import (
	"flag"
	"fmt"
	"os"

	"buffalo/internal/obs/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "show":
		err = show(os.Args[2:])
	case "diff":
		err = diff(os.Args[2:])
	case "gate":
		err = gate(os.Args[2:])
	case "merge-bench":
		err = mergeBench(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "buffalo-report: unknown subcommand %q\n\n", os.Args[1])
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "buffalo-report:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  buffalo-report show <manifest.json>
  buffalo-report diff <base.json> <current.json>
  buffalo-report gate -baseline <base.json> -current <current.json> [threshold flags]
  buffalo-report merge-bench -bench <bench output> -out <manifest.json> [-manifest <base>]`)
	os.Exit(2)
}

func show(args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("show: want exactly one manifest path, got %d args", fs.NArg())
	}
	m, err := report.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	return report.WriteSummary(os.Stdout, m)
}

func diff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	th := thresholdFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("diff: want <base.json> <current.json>, got %d args", fs.NArg())
	}
	base, err := report.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	cur, err := report.ReadFile(fs.Arg(1))
	if err != nil {
		return err
	}
	if err := report.WriteDiff(os.Stdout, report.Diff(base, cur)); err != nil {
		return err
	}
	// Any gating thresholds given alongside diff report (but don't fail on)
	// how the change would fare under the gate.
	if *th != (report.Thresholds{}) {
		vs := report.Gate(base, cur, *th)
		fmt.Println()
		if err := report.WriteViolations(os.Stdout, vs); err != nil {
			return err
		}
	}
	return nil
}

func gate(args []string) error {
	fs := flag.NewFlagSet("gate", flag.ExitOnError)
	basePath := fs.String("baseline", "", "baseline manifest (required)")
	curPath := fs.String("current", "", "current manifest (required)")
	thPath := fs.String("thresholds", "", "thresholds JSON file (overridden by individual flags)")
	th := thresholdFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *basePath == "" || *curPath == "" {
		return fmt.Errorf("gate: -baseline and -current are required")
	}
	eff := report.Thresholds{}
	if *thPath != "" {
		var err error
		if eff, err = report.ReadThresholdsFile(*thPath); err != nil {
			return err
		}
	}
	// Individual flags layer over the file, so CI can keep one committed
	// thresholds file and a workflow can still tighten a single knob.
	if th.EstimatorErrorDriftPP != 0 {
		eff.EstimatorErrorDriftPP = th.EstimatorErrorDriftPP
	}
	if th.CriticalPathPct != 0 {
		eff.CriticalPathPct = th.CriticalPathPct
	}
	if th.AllocsPct != 0 {
		eff.AllocsPct = th.AllocsPct
	}
	if th.CacheHitRateDropPP != 0 {
		eff.CacheHitRateDropPP = th.CacheHitRateDropPP
	}
	if th.ShardingPaddingPct != 0 {
		eff.ShardingPaddingPct = th.ShardingPaddingPct
	}
	if eff == (report.Thresholds{}) {
		return fmt.Errorf("gate: no thresholds given (pass -thresholds or at least one of -est-drift-pp, -critical-path-pct, -allocs-pct, -cache-drop-pp, -sharding-padding-pct)")
	}
	base, err := report.ReadFile(*basePath)
	if err != nil {
		return err
	}
	cur, err := report.ReadFile(*curPath)
	if err != nil {
		return err
	}
	vs := report.Gate(base, cur, eff)
	if err := report.WriteViolations(os.Stdout, vs); err != nil {
		return err
	}
	if len(vs) > 0 {
		os.Exit(1)
	}
	return nil
}

func mergeBench(args []string) error {
	fs := flag.NewFlagSet("merge-bench", flag.ExitOnError)
	benchPath := fs.String("bench", "", "go test -bench -benchmem text log (required)")
	outPath := fs.String("out", "", "manifest to write (required)")
	basePath := fs.String("manifest", "", "existing manifest to fold the benchmarks into (default: a fresh one)")
	tool := fs.String("tool", "bench", "tool name stamped on a fresh manifest")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *benchPath == "" || *outPath == "" {
		return fmt.Errorf("merge-bench: -bench and -out are required")
	}
	m := report.New(*tool)
	if *basePath != "" {
		var err error
		if m, err = report.ReadFile(*basePath); err != nil {
			return err
		}
	}
	if err := m.MergeBenchFile(*benchPath); err != nil {
		return err
	}
	if err := report.WriteFile(*outPath, m); err != nil {
		return err
	}
	fmt.Printf("merged %d benchmarks into %s\n", len(m.Benchmarks), *outPath)
	return nil
}

// thresholdFlags registers the gate knobs on fs and returns the threshold
// set they fill in after Parse.
func thresholdFlags(fs *flag.FlagSet) *report.Thresholds {
	th := &report.Thresholds{}
	fs.Float64Var(&th.EstimatorErrorDriftPP, "est-drift-pp", 0, "max estimator error drift (mean or p99) in percentage points")
	fs.Float64Var(&th.CriticalPathPct, "critical-path-pct", 0, "max per-iteration critical-path growth in percent")
	fs.Float64Var(&th.AllocsPct, "allocs-pct", 0, "max allocs/op growth in percent (growth from a zero baseline always fails)")
	fs.Float64Var(&th.CacheHitRateDropPP, "cache-drop-pp", 0, "max cache hit-rate drop in percentage points")
	fs.Float64Var(&th.ShardingPaddingPct, "sharding-padding-pct", 0, "max flat-buffer bucket padding as a percent of the parameter bytes (absolute, judged on the current manifest)")
	return th
}
