// Command buffalo-vet runs the repository's domain-aware static analyzers
// (see internal/analysis) over the module: allocfree, errcheck, hotalloc,
// leaksafe, locksafe, and shapecheck. It is stdlib-only and loads packages
// with go/parser + go/types against the source importer; the
// interprocedural analyzers share one whole-module call graph.
//
// Usage:
//
//	buffalo-vet [flags] [package patterns]
//
// Patterns are module-relative: "./...", "internal/device", or full import
// paths like "buffalo/internal/train". With no pattern every package in
// the module is analyzed. Exit status is 1 when diagnostics are reported,
// 2 on usage or load errors.
//
// Flags:
//
//	-analyzers a,b     run only the named analyzers (default: all)
//	-disable a,b       run all analyzers except the named ones
//	-json              emit diagnostics as a JSON array
//	-list              list available analyzers and exit
//	-C dir             module root to analyze (default: ascend from cwd)
//	-stale-ignores     also report //buffalo:vet-ignore directives that
//	                   suppress nothing
//	-timing            print per-analyzer wall time to stderr
//	-baseline file     gate hotalloc against the committed baseline file
//	-baseline-write    rewrite the -baseline file from current counts
//	                   (both growth and shrinkage) instead of gating
//	-hotalloc-summary  print per-root reachable allocation-site totals and
//	                   exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"buffalo/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("buffalo-vet", flag.ContinueOnError)
	var (
		analyzerList = fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
		disableList  = fs.String("disable", "", "comma-separated analyzers to skip")
		jsonOut      = fs.Bool("json", false, "emit diagnostics as JSON")
		list         = fs.Bool("list", false, "list available analyzers and exit")
		chdir        = fs.String("C", "", "module root to analyze (default: ascend from cwd)")
		staleIgnores = fs.Bool("stale-ignores", false, "report vet-ignore directives that suppress nothing")
		timing       = fs.Bool("timing", false, "print per-analyzer wall time to stderr")
		baselinePath = fs.String("baseline", "", "hotalloc baseline file to gate against")
		baselineW    = fs.Bool("baseline-write", false, "rewrite the -baseline file from current counts")
		hotSummary   = fs.Bool("hotalloc-summary", false, "print per-root allocation-site totals and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *baselineW && *baselinePath == "" {
		fmt.Fprintln(os.Stderr, "buffalo-vet: -baseline-write requires -baseline <file>")
		return 2
	}

	analyzers, err := selectAnalyzers(*analyzerList, *disableList)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
		return 2
	}

	root := *chdir
	if root == "" {
		root, err = findModuleRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
			return 2
		}
	}
	prog, err := analysis.LoadModule(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
		return 2
	}

	pkgs, err := selectPackages(prog, fs.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
		return 2
	}

	opts := &analysis.RunOptions{StaleIgnores: *staleIgnores}
	if *timing {
		opts.Timing = make(map[string]time.Duration)
	}
	if *hotSummary || *baselineW {
		// Recording runs need the counts, not the gate.
		opts.RecordHotSites = true
	} else if *baselinePath != "" {
		base, err := analysis.ReadHotBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
			return 2
		}
		opts.HotBaseline = base
	}

	diags := analysis.RunOpts(prog, pkgs, analyzers, opts)
	printTiming(opts)

	if *hotSummary {
		printHotSummary(opts.HotSites)
		return 0
	}
	if *baselineW {
		sites := opts.HotSites
		if sites == nil {
			sites = analysis.NewHotBaseline()
		}
		if err := sites.WriteFile(*baselinePath); err != nil {
			fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "buffalo-vet: wrote hotalloc baseline for %d root(s) to %s\n",
			len(sites.Roots), *baselinePath)
		return 0
	}
	for _, line := range opts.Shrunk {
		fmt.Fprintln(os.Stderr, "buffalo-vet: baseline slack:", line)
	}

	for i := range diags {
		if rel, err := filepath.Rel(root, diags[i].File); err == nil && !strings.HasPrefix(rel, "..") {
			diags[i].File = rel
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if diags == nil {
			diags = []analysis.Diagnostic{}
		}
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "buffalo-vet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
			for _, hop := range d.Chain {
				fmt.Println("\t" + hop)
			}
		}
	}
	if len(diags) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "buffalo-vet: %d finding(s)\n", len(diags))
		}
		return 1
	}
	return 0
}

// printTiming reports per-analyzer wall time (plus the shared call-graph
// construction) to stderr, slowest first.
func printTiming(opts *analysis.RunOptions) {
	if opts.Timing == nil {
		return
	}
	names := make([]string, 0, len(opts.Timing))
	for name := range opts.Timing {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if opts.Timing[names[i]] != opts.Timing[names[j]] {
			return opts.Timing[names[i]] > opts.Timing[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "buffalo-vet: timing %-12s %8.1fms\n",
			name, float64(opts.Timing[name].Microseconds())/1000)
	}
}

// printHotSummary emits one "<root> <total>" line per hot root, sorted.
func printHotSummary(sites *analysis.HotBaseline) {
	if sites == nil {
		return
	}
	roots := make([]string, 0, len(sites.Roots))
	for name := range sites.Roots {
		roots = append(roots, name)
	}
	sort.Strings(roots)
	for _, name := range roots {
		fmt.Printf("%s %d\n", name, sites.Roots[name].Total)
	}
}

// selectAnalyzers resolves the -analyzers / -disable flags.
func selectAnalyzers(enable, disable string) ([]*analysis.Analyzer, error) {
	if enable != "" && disable != "" {
		return nil, fmt.Errorf("-analyzers and -disable are mutually exclusive")
	}
	if enable != "" {
		return analysis.ByName(splitNames(enable))
	}
	all := analysis.All()
	if disable == "" {
		return all, nil
	}
	skip := make(map[string]bool)
	for _, n := range splitNames(disable) {
		if _, err := analysis.ByName([]string{n}); err != nil {
			return nil, err
		}
		skip[n] = true
	}
	var out []*analysis.Analyzer
	for _, a := range all {
		if !skip[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

func splitNames(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// selectPackages maps command-line patterns to loaded packages.
func selectPackages(prog *analysis.Program, patterns []string) ([]*analysis.Package, error) {
	if len(patterns) == 0 {
		return prog.Packages, nil
	}
	var out []*analysis.Package
	seen := make(map[string]bool)
	for _, pat := range patterns {
		matched := false
		for _, pkg := range prog.Packages {
			if matchPattern(prog.ModulePath, pat, pkg.ImportPath) {
				matched = true
				if !seen[pkg.ImportPath] {
					seen[pkg.ImportPath] = true
					out = append(out, pkg)
				}
			}
		}
		if !matched {
			return nil, fmt.Errorf("pattern %q matches no packages", pat)
		}
	}
	return out, nil
}

// matchPattern interprets one pattern against an import path. "./..." and
// "..." match everything; a trailing "/..." matches the subtree; otherwise
// the pattern must equal the import path, either fully qualified or
// module-relative.
func matchPattern(modulePath, pat, importPath string) bool {
	pat = strings.TrimPrefix(pat, "./")
	if pat == "..." || pat == "" {
		return true
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(importPath, modulePath), "/")
	if rel == "" {
		rel = "."
	}
	if sub, ok := strings.CutSuffix(pat, "/..."); ok {
		return importPath == sub || rel == sub ||
			strings.HasPrefix(importPath, sub+"/") || strings.HasPrefix(rel, sub+"/")
	}
	return pat == importPath || pat == rel
}

// findModuleRoot ascends from the working directory to the nearest go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
