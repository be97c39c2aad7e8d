package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked package of the module under analysis.
type Package struct {
	// ImportPath is the full import path, e.g. "buffalo/internal/device".
	ImportPath string
	// Dir is the absolute directory the sources were read from.
	Dir   string
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Program is a fully loaded module: every package parsed with comments and
// type-checked against the standard library, ready for analyzers.
type Program struct {
	Fset       *token.FileSet
	ModulePath string
	Root       string
	// Packages holds the module's packages in dependency (topological)
	// order, so analyzers that follow cross-package references always see
	// dependencies type-checked first.
	Packages []*Package

	byPath map[string]*Package
	std    types.Importer
}

// moduleImporter resolves module-internal import paths from the program's
// own type-checked packages and delegates everything else (the standard
// library) to the stdlib source importer. buffalo-vet is stdlib-only, so
// there are no third-party imports to resolve.
type moduleImporter struct{ prog *Program }

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := m.prog.byPath[path]; ok {
		if pkg.Types == nil {
			return nil, fmt.Errorf("analysis: import cycle or unchecked dependency %q", path)
		}
		return pkg.Types, nil
	}
	return m.prog.std.Import(path)
}

// LoadModule parses and type-checks every package under root (a directory
// containing go.mod). Test files, testdata trees, vendor trees, and hidden
// directories are skipped.
func LoadModule(root string) (*Program, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       token.NewFileSet(),
		ModulePath: modPath,
		Root:       root,
		byPath:     make(map[string]*Package),
	}
	prog.std = importer.ForCompiler(prog.Fset, "source", nil)

	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}
	for _, dir := range dirs {
		pkg, err := prog.parseDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg == nil { // no buildable non-test files
			continue
		}
		prog.Packages = append(prog.Packages, pkg)
		prog.byPath[pkg.ImportPath] = pkg
	}
	if err := prog.sortByDeps(); err != nil {
		return nil, err
	}
	for _, pkg := range prog.Packages {
		if err := prog.check(pkg); err != nil {
			return nil, err
		}
	}
	return prog, nil
}

// parseDir parses dir as the module package derived from its location.
func (p *Program) parseDir(dir string) (*Package, error) {
	rel, err := filepath.Rel(p.Root, dir)
	if err != nil {
		return nil, err
	}
	importPath := p.ModulePath
	if rel != "." {
		importPath = p.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return p.parseDirAs(dir, importPath)
}

func (p *Program) parseDirAs(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		// Honor //go:build constraints and GOOS/GOARCH filename rules so
		// the loaded file set matches what `go build` would compile here
		// (e.g. a race_on.go/race_off.go build-tag pair must not both load).
		if match, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, err
		} else if !match {
			continue
		}
		f, err := parser.ParseFile(p.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	return &Package{ImportPath: importPath, Dir: dir, Files: files}, nil
}

// check type-checks pkg, filling Types and Info.
func (p *Program) check(pkg *Package) error {
	var errs []error
	conf := types.Config{
		Importer: &moduleImporter{prog: p},
		Error:    func(err error) { errs = append(errs, err) },
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, _ := conf.Check(pkg.ImportPath, p.Fset, pkg.Files, info)
	if len(errs) > 0 {
		msgs := make([]string, 0, len(errs))
		for i, e := range errs {
			if i == 8 {
				msgs = append(msgs, fmt.Sprintf("... and %d more", len(errs)-i))
				break
			}
			msgs = append(msgs, e.Error())
		}
		return fmt.Errorf("analysis: type errors in %s:\n  %s", pkg.ImportPath, strings.Join(msgs, "\n  "))
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// sortByDeps orders Packages so every module-internal import precedes its
// importer, failing on cycles.
func (p *Program) sortByDeps() error {
	const (
		unvisited = 0
		visiting  = 1
		done      = 2
	)
	state := make(map[string]int)
	var order []*Package
	var visit func(pkg *Package) error
	visit = func(pkg *Package) error {
		switch state[pkg.ImportPath] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("analysis: import cycle through %q", pkg.ImportPath)
		}
		state[pkg.ImportPath] = visiting
		for _, f := range pkg.Files {
			for _, imp := range f.Imports {
				path := strings.Trim(imp.Path.Value, `"`)
				if dep, ok := p.byPath[path]; ok {
					if err := visit(dep); err != nil {
						return err
					}
				}
			}
		}
		state[pkg.ImportPath] = done
		order = append(order, pkg)
		return nil
	}
	// Visit in a stable order so output ordering is deterministic.
	sorted := append([]*Package(nil), p.Packages...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ImportPath < sorted[j].ImportPath })
	for _, pkg := range sorted {
		if err := visit(pkg); err != nil {
			return err
		}
	}
	p.Packages = order
	return nil
}

// packageDirs walks root collecting directories that may hold module
// packages, skipping hidden directories, testdata, and vendor trees.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
			name == "testdata" || name == "vendor") {
			return filepath.SkipDir
		}
		dirs = append(dirs, path)
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	return dirs, nil
}

// readModulePath extracts the module path from a go.mod file.
func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			rest = strings.TrimSpace(rest)
			if rest != "" {
				return strings.Trim(rest, `"`), nil
			}
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}
