// Command buffalo-vet runs the repository's domain-aware static analyzers
// (see internal/analysis) over the module: errcheck and locksafe. It is
// stdlib-only and loads packages with go/parser + go/types against the
// source importer; locksafe follows calls through one whole-module call
// graph. A //buffalo:vet-ignore directive that suppresses nothing is itself
// a finding.
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
//	-json              emit diagnostics as a JSON array
//	-list              list available analyzers and exit
//	-C dir             module root to analyze (default: ascend from cwd)
//	-timing            print per-analyzer wall time to stderr
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
		jsonOut      = fs.Bool("json", false, "emit diagnostics as JSON")
		list         = fs.Bool("list", false, "list available analyzers and exit")
		chdir        = fs.String("C", "", "module root to analyze (default: ascend from cwd)")
		timing       = fs.Bool("timing", false, "print per-analyzer wall time to stderr")
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

	analyzers, err := selectAnalyzers(*analyzerList)
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

	var times map[string]time.Duration
	if *timing {
		times = make(map[string]time.Duration)
	}
	diags := analysis.Run(prog, pkgs, analyzers, times)
	printTiming(times)

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
// construction) to stderr, slowest first. A nil map prints nothing.
func printTiming(times map[string]time.Duration) {
	names := make([]string, 0, len(times))
	for name := range times {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if times[names[i]] != times[names[j]] {
			return times[names[i]] > times[names[j]]
		}
		return names[i] < names[j]
	})
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "buffalo-vet: timing %-12s %8.1fms\n",
			name, float64(times[name].Microseconds())/1000)
	}
}

// selectAnalyzers resolves the -analyzers flag: every analyzer when empty.
func selectAnalyzers(enable string) ([]*analysis.Analyzer, error) {
	if enable == "" {
		return analysis.All(), nil
	}
	return analysis.ByName(splitNames(enable))
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
