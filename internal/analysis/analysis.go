// Package analysis implements buffalo-vet, a domain-aware static-analysis
// suite for this repository. It is stdlib-only: packages are parsed with
// go/parser and type-checked with go/types against the source importer, and
// each analyzer walks the typed ASTs looking for violations of the
// invariants Buffalo's memory-discipline results depend on:
//
//   - errcheck: error results must not be discarded; the memory estimator
//     and scheduler communicate OOM through errors.
//   - locksafe: no simulated-transfer, I/O, or ledger Alloc calls while a
//     sync.Mutex is held (deadlock and latency hazards under concurrency).
//     The check is interprocedural: a call under a lock is flagged when any
//     function reachable from it blocks, with the chain in the diagnostic.
//
// The rest of the contract — every ledger allocation released, every
// goroutine stopped, no new hot-path allocation, positive matmul-compatible
// shapes — is held by runtime tests (Live()==0 after Close, the shutdown
// tests, the golden ledger peaks, the warm allocs/iteration ceilings, and
// the tensor package's shape panics), which catch those defects where a
// syntactic check could not.
//
// locksafe's interprocedural hop uses a whole-module call graph (see
// internal/analysis/callgraph) built lazily per run.
//
// A diagnostic can be suppressed with a line directive:
//
//	//buffalo:vet-ignore <analyzer>[,<analyzer>...]  [reason]
//
// placed either at the end of the offending line or alone on the line
// directly above it. An empty analyzer list suppresses every analyzer.
// Directives that no longer suppress anything are themselves reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"os"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding from one analyzer.
type Diagnostic struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
	// Chain, when present, is the call path an interprocedural analyzer
	// followed from the reported site to the function that violates the
	// invariant, outermost call first.
	Chain []string `json:"chain,omitempty"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Column, d.Analyzer, d.Message)
}

// Analyzer is one named, independently enableable per-package check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{ErrCheck, LockSafe}
}

// ByName resolves analyzer names (comma- or space-separated) against the
// suite, erroring on unknown names.
func ByName(names []string) ([]*Analyzer, error) {
	var out []*Analyzer
	for _, name := range names {
		found := false
		for _, a := range All() {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Pass carries one analyzer's view of one package plus the report sink.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	state   *runState
	ignores ignoreIndex
	diags   *[]Diagnostic
}

// Reportf records a diagnostic at pos unless an ignore directive suppresses
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportChain(pos, nil, format, args...)
}

// ReportChain records a diagnostic carrying an interprocedural call chain.
func (p *Pass) ReportChain(pos token.Pos, chain []string, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.ignores.suppressed(p.Analyzer.Name, position) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		File:     position.Filename,
		Line:     position.Line,
		Column:   position.Column,
		Message:  fmt.Sprintf(format, args...),
		Chain:    chain,
	})
}

// Run executes the given analyzers over the given packages and returns the
// merged diagnostics sorted by position, plus a "vet-ignore" diagnostic for
// every suppression directive that suppressed nothing, provided every
// analyzer it names ran (an empty-list directive requires the full suite).
// A non-nil timing map accumulates wall time per analyzer, plus a
// "callgraph" entry for the shared graph construction.
func Run(prog *Program, pkgs []*Package, analyzers []*Analyzer, timing map[string]time.Duration) []Diagnostic {
	var diags []Diagnostic
	ignores := buildIgnoreIndex(prog.Fset, allFiles(pkgs))
	state := &runState{prog: prog, pkgs: pkgs, timing: timing}
	for _, a := range analyzers {
		start := time.Now()
		for _, pkg := range pkgs {
			a.Run(&Pass{
				Analyzer: a,
				Fset:     prog.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				state:    state,
				ignores:  ignores,
				diags:    &diags,
			})
		}
		if timing != nil {
			timing[a.Name] += time.Since(start)
		}
	}
	reportStaleIgnores(prog.Fset, ignores, analyzers, &diags)
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings deterministically regardless of package
// selection order or analyzer interleaving: by file, position, analyzer,
// then message.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

func allFiles(pkgs []*Package) []*ast.File {
	var files []*ast.File
	for _, pkg := range pkgs {
		files = append(files, pkg.Files...)
	}
	return files
}

// reportStaleIgnores emits a diagnostic for every directive whose hit count
// stayed at zero, provided this run gave each analyzer it names a chance to
// fire (otherwise silence proves nothing).
func reportStaleIgnores(fset *token.FileSet, ignores ignoreIndex, analyzers []*Analyzer, diags *[]Diagnostic) {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	fullSuite := len(ran) == len(All())
	seen := make(map[*ignoreDirective]bool)
	var stale []*ignoreDirective
	for _, byLine := range ignores {
		for _, ds := range byLine {
			for _, d := range ds {
				if seen[d] || d.hits > 0 {
					seen[d] = true
					continue
				}
				seen[d] = true
				covered := fullSuite
				if len(d.analyzers) > 0 {
					covered = true
					for name := range d.analyzers {
						if !ran[name] {
							covered = false
							break
						}
					}
				}
				if covered {
					stale = append(stale, d)
				}
			}
		}
	}
	sort.Slice(stale, func(i, j int) bool {
		a, b := stale[i].pos, stale[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	for _, d := range stale {
		names := "any analyzer"
		if len(d.analyzers) > 0 {
			list := make([]string, 0, len(d.analyzers))
			for name := range d.analyzers {
				list = append(list, name)
			}
			sort.Strings(list)
			names = strings.Join(list, ", ")
		}
		*diags = append(*diags, Diagnostic{
			Analyzer: "vet-ignore",
			File:     d.pos.Filename,
			Line:     d.pos.Line,
			Column:   d.pos.Column,
			Message:  fmt.Sprintf("stale suppression: no %s diagnostic here anymore; remove the directive", names),
		})
	}
}

// ignoreDirective is the parsed form of one //buffalo:vet-ignore comment.
// Suppressions count hits so unused directives can be reported as stale.
type ignoreDirective struct {
	analyzers map[string]bool // empty means all analyzers
	pos       token.Position
	hits      int
}

func (d *ignoreDirective) matches(analyzer string) bool {
	return len(d.analyzers) == 0 || d.analyzers[analyzer]
}

// ignoreIndex maps file -> line -> directives that apply to that line. A
// directive covering two lines (its own and the next) appears twice but is
// one shared object, so a hit on either line marks it used.
type ignoreIndex map[string]map[int][]*ignoreDirective

func (ix ignoreIndex) suppressed(analyzer string, pos token.Position) bool {
	for _, d := range ix[pos.Filename][pos.Line] {
		if d.matches(analyzer) {
			d.hits++
			return true
		}
	}
	return false
}

// vetIgnorePrefix is the line-comment directive honored by every analyzer.
const vetIgnorePrefix = "buffalo:vet-ignore"

// buildIgnoreIndex scans file comments for vet-ignore directives. A
// directive applies to the line it sits on; when the comment starts its
// line (a standalone comment), it also applies to the following line.
func buildIgnoreIndex(fset *token.FileSet, files []*ast.File) ignoreIndex {
	ix := make(ignoreIndex)
	sources := make(map[string][]byte)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//")
				if !ok {
					continue
				}
				text = strings.TrimSpace(text)
				rest, ok := strings.CutPrefix(text, vetIgnorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				d := parseIgnore(rest)
				d.pos = pos
				byLine := ix[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]*ignoreDirective)
					ix[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], d)
				if startsLine(sources, pos) {
					byLine[pos.Line+1] = append(byLine[pos.Line+1], d)
				}
			}
		}
	}
	return ix
}

// parseIgnore parses the analyzer list following the directive prefix. The
// list ends at the first token that is not a known separator-joined word;
// anything after it is treated as free-form justification.
func parseIgnore(rest string) *ignoreDirective {
	d := &ignoreDirective{analyzers: make(map[string]bool)}
	rest = strings.TrimSpace(rest)
	if rest == "" {
		return d
	}
	fields := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	for _, f := range fields {
		known := false
		for _, a := range All() {
			if a.Name == f {
				known = true
				break
			}
		}
		if !known {
			break // start of the justification text
		}
		d.analyzers[f] = true
	}
	return d
}

// startsLine reports whether only whitespace precedes pos on its source
// line (so the directive should cover the next line too). File contents are
// cached in sources across calls.
func startsLine(sources map[string][]byte, pos token.Position) bool {
	if pos.Column == 1 {
		return true
	}
	src, ok := sources[pos.Filename]
	if !ok {
		src, _ = os.ReadFile(pos.Filename)
		sources[pos.Filename] = src
	}
	start := pos.Offset - (pos.Column - 1)
	if start < 0 || pos.Offset > len(src) {
		return false
	}
	return strings.TrimSpace(string(src[start:pos.Offset])) == ""
}
