package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

var (
	progOnce sync.Once
	prog     *Program
	progErr  error
)

// LoadDir parses and type-checks one extra directory (e.g. a test fixture
// under testdata) as importPath, resolving imports of module packages from
// the already-loaded program. The package is returned but not added to
// prog.Packages.
func (p *Program) LoadDir(dir, importPath string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	pkg, err := p.parseDirAs(dir, importPath)
	if err != nil {
		return nil, err
	}
	if pkg == nil {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	if err := p.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// Package returns the loaded package with the given import path, or nil.
func (p *Program) Package(path string) *Package { return p.byPath[path] }

// moduleProgram loads the repository module once for every test.
func moduleProgram(t *testing.T) *Program {
	t.Helper()
	progOnce.Do(func() { prog, progErr = LoadModule(filepath.Join("..", "..")) })
	if progErr != nil {
		t.Fatalf("LoadModule: %v", progErr)
	}
	return prog
}

// loadFixture type-checks one seeded-violation package under testdata/src.
func loadFixture(t *testing.T, name string) (*Program, *Package) {
	t.Helper()
	p := moduleProgram(t)
	pkg, err := p.LoadDir(filepath.Join("testdata", "src", name), "fixture/"+name)
	if err != nil {
		t.Fatalf("LoadDir(%s): %v", name, err)
	}
	return p, pkg
}

// wantLines scans the fixture sources for "want:<analyzer>" markers and
// returns the set of "file:line" strings expected to be reported.
func wantLines(t *testing.T, dir, analyzer string) map[string]bool {
	t.Helper()
	marker := "want:" + analyzer
	want := make(map[string]bool)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("ReadDir: %v", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("ReadFile: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			if strings.Contains(line, marker) {
				want[fmt.Sprintf("%s:%d", e.Name(), i+1)] = true
			}
		}
	}
	return want
}

// gotLines reduces diagnostics to the same "file:line" key space.
func gotLines(diags []Diagnostic) map[string]bool {
	got := make(map[string]bool)
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)] = true
	}
	return got
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// checkFixture runs exactly one analyzer over its fixture package and
// demands the findings match the want markers line for line.
func checkFixture(t *testing.T, analyzer *Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", analyzer.Name)
	p, pkg := loadFixture(t, analyzer.Name)
	diags := Run(p, []*Package{pkg}, []*Analyzer{analyzer}, nil)
	want := wantLines(t, dir, analyzer.Name)
	got := gotLines(diags)
	if len(want) == 0 {
		t.Fatalf("fixture %s has no want markers", dir)
	}
	for k := range want {
		if !got[k] {
			t.Errorf("%s: expected a %s finding at %s, got none", dir, analyzer.Name, k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("%s: unexpected %s finding at %s", dir, analyzer.Name, k)
		}
	}
	if t.Failed() {
		t.Logf("want: %v", keys(want))
		t.Logf("got:  %v", keys(got))
		for _, d := range diags {
			t.Logf("diag: %s", d)
		}
	}
}

func TestErrCheckFixture(t *testing.T) { checkFixture(t, ErrCheck) }
func TestLockSafeFixture(t *testing.T) { checkFixture(t, LockSafe) }

// TestLockSafeTransitiveRequired proves the interprocedural extension is
// doing work the old analyzer could not: with the call-graph hop disabled,
// none of the helper-wrapped fixture violations are found.
func TestLockSafeTransitiveRequired(t *testing.T) {
	dir := filepath.Join("testdata", "src", "locksafe")
	transWant := wantLines(t, dir, "locksafe-transitive")
	if len(transWant) == 0 {
		t.Fatal("locksafe fixture has no transitive markers")
	}
	p, pkg := loadFixture(t, "locksafe")
	locksafeTransitive = false
	defer func() { locksafeTransitive = true }()
	got := gotLines(Run(p, []*Package{pkg}, []*Analyzer{LockSafe}, nil))
	for k := range transWant {
		if got[k] {
			t.Errorf("intraprocedural locksafe unexpectedly caught %s", k)
		}
	}
}

// TestLockSafeChain asserts transitive diagnostics carry the offending
// call chain down to the classified blocking operation.
func TestLockSafeChain(t *testing.T) {
	p, pkg := loadFixture(t, "locksafe")
	diags := Run(p, []*Package{pkg}, []*Analyzer{LockSafe}, nil)
	found := false
	for _, d := range diags {
		if !strings.Contains(d.Message, "reserve") || len(d.Chain) == 0 {
			continue
		}
		found = true
		last := d.Chain[len(d.Chain)-1]
		if !strings.Contains(last, "ledger allocation GPU.Alloc") {
			t.Errorf("chain terminal %q does not name the blocking op", last)
		}
	}
	if !found {
		t.Fatal("no chained diagnostic through the reserve helper")
	}
}

// TestStaleIgnores runs the full suite over the directive fixture: the two
// directives that suppress nothing (one naming the wrong analyzer, one on a
// clean line) are reported, the working ones are not.
func TestStaleIgnores(t *testing.T) {
	p, pkg := loadFixture(t, "ignored")
	diags := Run(p, []*Package{pkg}, All(), nil)
	want := wantLines(t, filepath.Join("testdata", "src", "ignored"), "vet-ignore")
	got := make(map[string]bool)
	for _, d := range diags {
		if d.Analyzer == "vet-ignore" {
			got[fmt.Sprintf("%s:%d", filepath.Base(d.File), d.Line)] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected stale-ignore report at %s", k)
		}
	}
	for k := range got {
		if !want[k] {
			t.Errorf("unexpected stale-ignore report at %s", k)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("diag: %s", d)
		}
	}
}

// TestDeterministicOrder runs the full suite over two fixture packages in
// both selection orders: the merged diagnostics must be identical and
// position-sorted, regardless of package order or analyzer interleaving.
func TestDeterministicOrder(t *testing.T) {
	p, pkgA := loadFixture(t, "locksafe")
	_, pkgB := loadFixture(t, "errcheck")
	d1 := Run(p, []*Package{pkgA, pkgB}, All(), nil)
	d2 := Run(p, []*Package{pkgB, pkgA}, All(), nil)
	if len(d1) == 0 {
		t.Fatal("expected findings from the fixture packages")
	}
	if !reflect.DeepEqual(d1, d2) {
		t.Errorf("diagnostics differ across package orders:\n%v\nvs\n%v", d1, d2)
	}
	for i := 1; i < len(d1); i++ {
		a, b := d1[i-1], d1[i]
		if a.File > b.File || (a.File == b.File && a.Line > b.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}

// TestIgnoreDirective proves //buffalo:vet-ignore suppresses exactly the
// named analyzer, in both inline and preceding-line placement, and that a
// directive naming a different analyzer does not suppress.
func TestIgnoreDirective(t *testing.T) {
	p, pkg := loadFixture(t, "ignored")
	var diags []Diagnostic
	for _, d := range Run(p, []*Package{pkg}, []*Analyzer{ErrCheck}, nil) {
		if d.Analyzer == ErrCheck.Name {
			diags = append(diags, d)
		}
	}
	want := wantLines(t, filepath.Join("testdata", "src", "ignored"), "errcheck")
	got := gotLines(diags)
	if len(got) != len(want) {
		t.Errorf("got %d findings, want %d (only the wrong-analyzer directive line)", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("expected surviving finding at %s", k)
		}
	}
	for _, d := range diags {
		t.Logf("diag: %s", d)
	}
}

// TestModuleClean is the acceptance gate: the repository's own packages
// must produce zero diagnostics, stale suppressions included, under the
// full suite.
func TestModuleClean(t *testing.T) {
	p := moduleProgram(t)
	diags := Run(p, p.Packages, All(), nil)
	for _, d := range diags {
		t.Errorf("repository finding: %s", d)
	}
}

// TestByName covers analyzer selection.
func TestByName(t *testing.T) {
	got, err := ByName([]string{"locksafe", "errcheck"})
	if err != nil || len(got) != 2 {
		t.Fatalf("ByName: %v, %d analyzers", err, len(got))
	}
	if _, err := ByName([]string{"nope"}); err == nil {
		t.Fatal("ByName accepted an unknown analyzer")
	}
}

// TestLoadModuleShape sanity-checks the loader: the module path is read
// from go.mod, dependencies precede dependents, and testdata is skipped.
func TestLoadModuleShape(t *testing.T) {
	p := moduleProgram(t)
	if p.ModulePath != "buffalo" {
		t.Fatalf("module path = %q", p.ModulePath)
	}
	pos := make(map[string]int)
	for i, pkg := range p.Packages {
		pos[pkg.ImportPath] = i
		if strings.Contains(pkg.ImportPath, "testdata") {
			t.Errorf("testdata package loaded: %s", pkg.ImportPath)
		}
		if pkg.Types == nil || pkg.Info == nil {
			t.Errorf("package %s not type-checked", pkg.ImportPath)
		}
	}
	dev, devOK := pos["buffalo/internal/device"]
	train, trainOK := pos["buffalo/internal/train"]
	if !devOK || !trainOK {
		t.Fatalf("expected device and train packages, got %v", keys(boolSet(pos)))
	}
	if dev > train {
		t.Errorf("device (%d) should be checked before train (%d)", dev, train)
	}
	// Build constraints are honored: internal/experiments carries a
	// race_on.go//race_off.go pair and only the non-race half may load
	// (loading both would redeclare raceEnabled and fail type-checking).
	exp := p.Package("buffalo/internal/experiments")
	if exp == nil {
		t.Fatal("experiments package not loaded")
	}
	for _, f := range exp.Files {
		if name := filepath.Base(p.Fset.Position(f.Pos()).Filename); name == "race_on.go" {
			t.Error("race_on.go loaded despite its //go:build race constraint")
		}
	}
}

func boolSet(m map[string]int) map[string]bool {
	out := make(map[string]bool, len(m))
	for k := range m {
		out[k] = true
	}
	return out
}
