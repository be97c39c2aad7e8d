// Package callgraph builds a whole-module call graph over the typed ASTs
// the analysis loader produces, so buffalo-vet's locksafe analyzer can reason
// interprocedurally: a ledger allocation reached through two helpers is as
// hazardous under a mutex as a direct one.
//
// The graph is CHA-style (class-hierarchy analysis) and deliberately simple:
//
//   - Direct calls of module functions and methods become Static edges.
//   - Calls through an interface method become one Dynamic edge per module
//     type implementing that interface — sound for module code, silent about
//     stdlib implementations (stdlib bodies are not loaded, so stdlib calls
//     are leaves classified by the consumer).
//   - Function literals are first-class nodes. An immediately invoked
//     literal gets a LitCall edge, a literal passed as a call argument gets
//     an ArgLit edge (possibly-synchronous callback). Any other reference to
//     a function value (assigned, returned, stored, a method value) gets no
//     edge: it runs later, if at all, and not as part of this call.
//   - `go` statements become Spawn edges, tagged so a consumer can exclude
//     them: work handed to another goroutine does not block the caller.
//
// Each consumer picks the edge kinds that model its invariant via a Reach,
// a memoized transitive attribute computed cycle-safely by fixpoint, with
// shortest-path extraction for diagnostics that print the offending chain.
package callgraph

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// Package is one type-checked package the graph is built from. It mirrors
// the analysis loader's package shape without importing it (the analysis
// package imports this one).
type Package struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
}

// EdgeKind classifies how control may flow from caller to callee.
type EdgeKind uint8

const (
	// Static is a direct call of a declared module function or method.
	Static EdgeKind = iota
	// Dynamic is an interface-dispatch edge to one possible implementation.
	Dynamic
	// LitCall is the immediate invocation of a function literal.
	LitCall
	// ArgLit marks a function literal passed as a call argument: the callee
	// may invoke it synchronously (hooks, callbacks) or never.
	ArgLit
	// Spawn is a go-statement edge: the callee runs on a new goroutine.
	Spawn
)

// Edge is one possible control transfer out of a node.
type Edge struct {
	Kind   EdgeKind
	Callee *Node
}

// Node is one function body: a declared function or method, or a function
// literal.
type Node struct {
	Body *ast.BlockStmt
	Pkg  *Package
	// Name is a stable human-readable identity: "path.Fn",
	// "path.(*T).Method", literals as "<owner>$<n>" in source order.
	Name string
	Out  []*Edge
}

// Graph is the whole-module call graph.
type Graph struct {
	// Nodes lists every function body in deterministic (package, position)
	// order.
	Nodes []*Node

	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node
	bySite map[*ast.CallExpr][]*Edge

	named     []*types.Named
	implCache map[implKey][]*Node
}

type implKey struct {
	iface *types.Interface
	name  string
}

// NodeOf returns the node of a declared function (resolved through Origin
// for generic instantiations), or nil.
func (g *Graph) NodeOf(fn *types.Func) *Node {
	if fn == nil {
		return nil
	}
	return g.byFunc[fn.Origin()]
}

// EdgesAt returns every edge resolved at one call expression (including the
// call of a go statement), in deterministic order.
func (g *Graph) EdgesAt(call *ast.CallExpr) []*Edge { return g.bySite[call] }

// Build constructs the graph over the given packages. Packages must already
// be type-checked; edges are only created toward functions whose bodies are
// in the given set (stdlib and unresolved indirect calls are leaves).
func Build(pkgs []*Package) *Graph {
	g := &Graph{
		byFunc:    make(map[*types.Func]*Node),
		byLit:     make(map[*ast.FuncLit]*Node),
		bySite:    make(map[*ast.CallExpr][]*Edge),
		implCache: make(map[implKey][]*Node),
	}
	b := &builder{g: g, names: make(map[string]int)}
	// Pass 1: declared functions and the named-type universe for CHA.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				n := &Node{Body: fd.Body, Pkg: pkg, Name: b.unique(declName(pkg.Path, fn))}
				g.Nodes = append(g.Nodes, n)
				g.byFunc[fn.Origin()] = n
			}
		}
		g.collectNamed(pkg)
	}
	// Pass 2: walk bodies, creating literal nodes and every edge.
	decls := append([]*Node(nil), g.Nodes...)
	for _, n := range decls {
		b.pkg = n.Pkg
		b.walk(n, n.Body)
	}
	return g
}

// collectNamed gathers the package's named non-interface types as the CHA
// implementation universe. Generic types are skipped: they cannot be tested
// with Implements without instantiation.
func (g *Graph) collectNamed(pkg *Package) {
	for _, obj := range pkg.Info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || named.TypeParams().Len() > 0 {
			continue
		}
		if types.IsInterface(named) {
			continue
		}
		g.named = append(g.named, named)
	}
	sort.Slice(g.named, func(i, j int) bool {
		return g.named[i].Obj().Id() < g.named[j].Obj().Id()
	})
}

// implementers resolves an interface method to every module method that can
// satisfy it, cached per (interface, method name).
func (g *Graph) implementers(ifaceType types.Type, name string, pkg *types.Package) []*Node {
	iface, ok := ifaceType.Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	key := implKey{iface: iface, name: name}
	if nodes, ok := g.implCache[key]; ok {
		return nodes
	}
	var nodes []*Node
	seen := make(map[*Node]bool)
	for _, named := range g.named {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, pkg, name)
		m, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		if n := g.NodeOf(m); n != nil && !seen[n] {
			seen[n] = true
			nodes = append(nodes, n)
		}
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Name < nodes[j].Name })
	g.implCache[key] = nodes
	return nodes
}

type builder struct {
	g     *Graph
	pkg   *Package
	names map[string]int
}

// unique disambiguates node names (multiple init functions, redeclarations
// across build-tag variants) with a #n suffix.
func (b *builder) unique(name string) string {
	b.names[name]++
	if n := b.names[name]; n > 1 {
		return fmt.Sprintf("%s#%d", name, n)
	}
	return name
}

// declName renders the stable identity of a declared function.
func declName(path string, fn *types.Func) string {
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil {
		t := sig.Recv().Type()
		ptr := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			ptr = "*"
		}
		name := "?"
		if named, ok := t.(*types.Named); ok {
			name = named.Obj().Name()
		}
		return fmt.Sprintf("%s.(%s%s).%s", path, ptr, name, fn.Name())
	}
	return path + "." + fn.Name()
}

// litNode creates (or returns) the node of a function literal owned by encl.
func (b *builder) litNode(encl *Node, lit *ast.FuncLit) *Node {
	if n := b.g.byLit[lit]; n != nil {
		return n
	}
	n := &Node{Body: lit.Body, Pkg: b.pkg, Name: b.unique(encl.Name + "$")}
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.byLit[lit] = n
	return n
}

func (b *builder) edge(caller, callee *Node, kind EdgeKind, site *ast.CallExpr) {
	e := &Edge{Kind: kind, Callee: callee}
	caller.Out = append(caller.Out, e)
	b.g.bySite[site] = append(b.g.bySite[site], e)
}

// walk attributes every call and spawn under root to owner, descending into
// function literals under their own nodes.
func (b *builder) walk(owner *Node, root ast.Node) {
	if root == nil {
		return
	}
	ast.Inspect(root, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.GoStmt:
			b.call(owner, v.Call, true)
			return false
		case *ast.CallExpr:
			b.call(owner, v, false)
			return false
		case *ast.FuncLit:
			b.walk(b.litNode(owner, v), v.Body)
			return false
		}
		return true
	})
}

// call resolves one call expression (spawned when part of a go statement):
// target edges for the callee, ArgLit edges for literal arguments, and a
// recursive walk of every operand.
func (b *builder) call(owner *Node, call *ast.CallExpr, spawn bool) {
	kind := Static
	if spawn {
		kind = Spawn
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		lit := b.litNode(owner, fun)
		if spawn {
			b.edge(owner, lit, Spawn, call)
		} else {
			b.edge(owner, lit, LitCall, call)
		}
		b.walk(lit, fun.Body)
	case *ast.Ident:
		b.resolve(owner, call, fun, kind)
	case *ast.SelectorExpr:
		b.resolve(owner, call, fun.Sel, kind)
		b.walk(owner, fun.X)
	case *ast.IndexExpr: // generic instantiation f[T](...)
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			b.resolve(owner, call, id, kind)
		} else {
			b.walk(owner, fun.X)
		}
	case *ast.IndexListExpr:
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			b.resolve(owner, call, id, kind)
		} else {
			b.walk(owner, fun.X)
		}
	default:
		b.walk(owner, call.Fun)
	}
	for _, arg := range call.Args {
		if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			litNode := b.litNode(owner, lit)
			b.edge(owner, litNode, ArgLit, call)
			b.walk(litNode, lit.Body)
			continue
		}
		b.walk(owner, arg)
	}
}

// resolve classifies the callee identifier: an interface method fans out to
// every module implementation (Dynamic), a declared module function becomes
// a Static (or Spawn) edge, anything else is a leaf.
func (b *builder) resolve(owner *Node, call *ast.CallExpr, id *ast.Ident, kind EdgeKind) {
	fn, ok := b.pkg.Info.ObjectOf(id).(*types.Func)
	if !ok {
		return
	}
	sig, _ := fn.Type().(*types.Signature)
	if sig != nil && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		dyn := Dynamic
		if kind == Spawn {
			dyn = Spawn
		}
		for _, callee := range b.g.implementers(sig.Recv().Type(), fn.Name(), fn.Pkg()) {
			b.edge(owner, callee, dyn, call)
		}
		return
	}
	if callee := b.g.NodeOf(fn); callee != nil {
		b.edge(owner, callee, kind, call)
	}
}

// Reach is a memoized transitive attribute over the graph: Reaches(n)
// reports whether n, or anything reachable from n over the followed edges,
// satisfies the local predicate. Computed once by fixpoint, so recursion and
// mutual recursion cost nothing and cannot loop.
type Reach struct {
	local  map[*Node]bool
	attr   map[*Node]bool
	follow func(*Edge) bool
}

// NewReach evaluates local once per node and closes it transitively over
// the edges follow admits.
func NewReach(g *Graph, local func(*Node) bool, follow func(*Edge) bool) *Reach {
	r := &Reach{
		local:  make(map[*Node]bool, len(g.Nodes)),
		attr:   make(map[*Node]bool, len(g.Nodes)),
		follow: follow,
	}
	for _, n := range g.Nodes {
		v := local(n)
		r.local[n] = v
		r.attr[n] = v
	}
	for changed := true; changed; {
		changed = false
		for _, n := range g.Nodes {
			if r.attr[n] {
				continue
			}
			for _, e := range n.Out {
				if follow(e) && r.attr[e.Callee] {
					r.attr[n] = true
					changed = true
					break
				}
			}
		}
	}
	return r
}

// Reaches reports the transitive attribute for n (false for nil).
func (r *Reach) Reaches(n *Node) bool { return n != nil && r.attr[n] }

// Path returns a shortest followed-edge path from n to the nearest node
// where the local predicate holds. It is nil when n itself satisfies the
// predicate or when nothing is reachable.
func (r *Reach) Path(n *Node) []*Edge {
	if n == nil || r.local[n] || !r.attr[n] {
		return nil
	}
	type hop struct {
		node *Node
		via  *Edge
		prev *hop
	}
	visited := map[*Node]bool{n: true}
	queue := []*hop{{node: n}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, e := range h.node.Out {
			if !r.follow(e) || visited[e.Callee] || !r.attr[e.Callee] {
				continue
			}
			next := &hop{node: e.Callee, via: e, prev: h}
			if r.local[e.Callee] {
				var path []*Edge
				for cur := next; cur.via != nil; cur = cur.prev {
					path = append([]*Edge{cur.via}, path...)
				}
				return path
			}
			visited[e.Callee] = true
			queue = append(queue, next)
		}
	}
	return nil
}
