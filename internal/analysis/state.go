package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"time"

	"buffalo/internal/analysis/callgraph"
)

// runState is the machinery one Run invocation hands locksafe: the
// whole-module call graph and the memoized "reaches a blocking operation"
// attribute computed over it. Both are built lazily so runs without locksafe
// pay nothing.
type runState struct {
	prog   *Program
	pkgs   []*Package // selected packages (may include fixtures outside prog)
	timing map[string]time.Duration

	graph *callgraph.Graph

	// blockLocal maps nodes whose own body performs a blocking operation to
	// the first such call, for locksafe chain terminals.
	blockLocal map[*callgraph.Node]blockSite
	blocking   *callgraph.Reach
}

// blockSite is one directly blocking call inside a node's own body.
type blockSite struct {
	reason string
	pos    token.Pos
}

// Graph builds (once) the call graph over the union of the module's
// packages and any extra selected packages (testdata fixtures), so fixture
// code calling into module packages resolves cross-package edges.
func (s *runState) Graph() *callgraph.Graph {
	if s.graph != nil {
		return s.graph
	}
	start := time.Now()
	inModule := make(map[*Package]bool, len(s.prog.Packages))
	var cgPkgs []*callgraph.Package
	add := func(pkg *Package) {
		cgPkgs = append(cgPkgs, &callgraph.Package{
			Path:  pkg.ImportPath,
			Files: pkg.Files,
			Info:  pkg.Info,
		})
	}
	for _, pkg := range s.prog.Packages {
		inModule[pkg] = true
		add(pkg)
	}
	for _, pkg := range s.pkgs {
		if !inModule[pkg] {
			add(pkg)
		}
	}
	s.graph = callgraph.Build(cgPkgs)
	if s.timing != nil {
		s.timing["callgraph"] += time.Since(start)
	}
	return s.graph
}

// inspectOwnBody walks a node's body without descending into nested
// function literals — those are their own graph nodes with their own
// attributes.
func inspectOwnBody(n *callgraph.Node, visit func(ast.Node) bool) {
	if n.Body == nil {
		return
	}
	ast.Inspect(n.Body, func(node ast.Node) bool {
		if _, isLit := node.(*ast.FuncLit); isLit {
			return false
		}
		return visit(node)
	})
}

// Blocking returns the memoized "reaches a blocking operation" attribute,
// following synchronous edges only: static and dynamic calls, invoked
// literals, and literal arguments (callbacks the callee may run inline).
// Spawn edges are excluded — work on another goroutine does not block the
// caller's critical section — as are bare references, which only run later.
func (s *runState) Blocking() *callgraph.Reach {
	if s.blocking != nil {
		return s.blocking
	}
	g := s.Graph()
	s.blockLocal = make(map[*callgraph.Node]blockSite)
	for _, n := range g.Nodes {
		n := n
		// Comm statements of a polling select (one with a default clause)
		// never park the goroutine; Inspect visits a select before its
		// clauses, so the skip set is always populated in time.
		skipComm := make(map[ast.Node]bool)
		inspectOwnBody(n, func(node ast.Node) bool {
			if _, seen := s.blockLocal[n]; seen {
				return false
			}
			if skipComm[node] {
				return false
			}
			switch v := node.(type) {
			case *ast.CallExpr:
				if why := blockingCallReason(n.Pkg.Info, v); why != "" {
					s.blockLocal[n] = blockSite{reason: why, pos: v.Pos()}
					return false
				}
			case *ast.SelectStmt:
				if !selectHasDefault(v) {
					s.blockLocal[n] = blockSite{reason: "blocking select (no default)", pos: v.Select}
					return false
				}
				for _, c := range v.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
						skipComm[cc.Comm] = true
					}
				}
			case *ast.SendStmt:
				s.blockLocal[n] = blockSite{reason: "channel send", pos: v.Arrow}
				return false
			case *ast.UnaryExpr:
				if v.Op == token.ARROW {
					s.blockLocal[n] = blockSite{reason: "channel receive", pos: v.OpPos}
					return false
				}
			case *ast.RangeStmt:
				if t := n.Pkg.Info.TypeOf(v.X); t != nil {
					if _, isChan := t.Underlying().(*types.Chan); isChan {
						s.blockLocal[n] = blockSite{reason: "range over channel", pos: v.For}
						return false
					}
				}
			}
			return true
		})
	}
	s.blocking = callgraph.NewReach(g,
		func(n *callgraph.Node) bool { _, ok := s.blockLocal[n]; return ok },
		syncEdge)
	return s.blocking
}

// syncEdge admits edges that transfer control synchronously on the calling
// goroutine.
func syncEdge(e *callgraph.Edge) bool {
	switch e.Kind {
	case callgraph.Static, callgraph.Dynamic, callgraph.LitCall, callgraph.ArgLit:
		return true
	}
	return false
}

// BlockChain renders the call path from (but excluding) the node behind
// start down to the blocking operation, one entry per hop, ending with the
// classified reason.
func (s *runState) BlockChain(start *callgraph.Node) []string {
	r := s.Blocking()
	var chain []string
	node := start
	if site, ok := s.blockLocal[start]; ok {
		chain = append(chain, s.describeNode(start))
		chain = append(chain, site.reason+" at "+s.shortPos(site.pos))
		return chain
	}
	path := r.Path(start)
	if path == nil {
		return nil
	}
	chain = append(chain, s.describeNode(start))
	for _, e := range path {
		chain = append(chain, s.describeNode(e.Callee))
		node = e.Callee
	}
	if site, ok := s.blockLocal[node]; ok {
		chain = append(chain, site.reason+" at "+s.shortPos(site.pos))
	}
	return chain
}

// describeNode renders a node for a diagnostic chain: its stable name plus
// the short position of its body.
func (s *runState) describeNode(n *callgraph.Node) string {
	return fmt.Sprintf("%s (%s)", n.Name, s.shortPos(n.Body.Pos()))
}

// shortPos renders pos as base-filename:line.
func (s *runState) shortPos(pos token.Pos) string {
	p := s.prog.Fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
