package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockSafe flags blocking work performed while a sync.Mutex (or RWMutex
// write lock) is held: simulated device transfers, ledger allocations,
// all-reduces, real I/O (os, io, net), time.Sleep, and blocking channel
// operations (sends, receives, range-over-channel, and selects without a
// default clause; a select with a default never blocks, which is exactly
// the obs tap's offer pattern). Buffalo's device ledger serializes every
// allocator on one mutex, so blocking inside a critical section stalls
// every trainer goroutine — and taking the ledger lock around a call that
// itself locks the ledger deadlocks outright.
//
// The check is interprocedural: a call under a held lock is also flagged
// when any function reachable from it over synchronous call edges (static,
// interface-dispatch, invoked or callback literals) performs a blocking
// operation, and the diagnostic carries the offending call chain. Work
// handed to another goroutine (go statements) does not block the critical
// section and is not followed.
//
// The walk is a statement-ordered approximation, not a CFG: a lock is
// considered held from x.Lock() (or from function entry to the end for
// defer x.Unlock()) until a matching x.Unlock() at the same nesting level.
// Function literals are analyzed independently with no locks held.
var LockSafe = &Analyzer{
	Name: "locksafe",
	Doc:  "no transfers, I/O, or ledger allocations while a mutex is held, transitively",
	Run:  runLockSafe,
}

// locksafeTransitive gates the interprocedural extension; tests flip it off
// to demonstrate what the intraprocedural analyzer alone misses.
var locksafeTransitive = true

func runLockSafe(p *Pass) {
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					walkLocked(p, fn.Body.List, map[string]bool{})
				}
			case *ast.FuncLit:
				walkLocked(p, fn.Body.List, map[string]bool{})
			}
			return true
		})
	}
}

// walkLocked walks one statement list tracking which mutexes are held.
// Nested blocks inherit a copy of the current state; state changes inside a
// branch do not propagate past it (both branches of an if may lock, but
// only statements inside the branch see that lock).
func walkLocked(p *Pass, stmts []ast.Stmt, held map[string]bool) {
	for _, stmt := range stmts {
		switch s := stmt.(type) {
		case *ast.ExprStmt:
			if key, op, ok := lockOp(p, s.X); ok {
				switch op {
				case "Lock", "RLock":
					held[key] = true
				case "Unlock", "RUnlock":
					delete(held, key)
				}
				continue
			}
			reportBlockingCalls(p, s, held)
		case *ast.SendStmt:
			if len(held) > 0 {
				p.Reportf(s.Arrow, "channel send on %s while holding %s", exprKey(s.Chan), heldList(held))
			}
			reportBlockingCalls(p, s.Value, held)
		case *ast.DeferStmt:
			if key, op, ok := lockOp(p, s.Call); ok && (op == "Unlock" || op == "RUnlock") {
				// Deferred unlock: the mutex stays held for the remainder
				// of the function, which is exactly when blocking calls
				// after this point are hazardous.
				held[key] = true
				continue
			}
			reportBlockingCalls(p, s, held)
		case *ast.BlockStmt:
			walkLocked(p, s.List, copyHeld(held))
		case *ast.IfStmt:
			reportBlockingCalls(p, s.Cond, held)
			if s.Init != nil {
				reportBlockingCalls(p, s.Init, held)
			}
			walkLocked(p, s.Body.List, copyHeld(held))
			if s.Else != nil {
				walkLocked(p, []ast.Stmt{s.Else}, copyHeld(held))
			}
		case *ast.ForStmt:
			if s.Init != nil {
				reportBlockingCalls(p, s.Init, held)
			}
			if s.Cond != nil {
				reportBlockingCalls(p, s.Cond, held)
			}
			walkLocked(p, s.Body.List, copyHeld(held))
		case *ast.RangeStmt:
			if len(held) > 0 && isChanExpr(p.Info, s.X) {
				p.Reportf(s.For, "range over channel %s while holding %s", exprKey(s.X), heldList(held))
			}
			reportBlockingCalls(p, s.X, held)
			walkLocked(p, s.Body.List, copyHeld(held))
		case *ast.SwitchStmt:
			if s.Tag != nil {
				reportBlockingCalls(p, s.Tag, held)
			}
			walkLocked(p, s.Body.List, copyHeld(held))
		case *ast.TypeSwitchStmt:
			walkLocked(p, s.Body.List, copyHeld(held))
		case *ast.SelectStmt:
			// A select with a default clause polls and moves on — the
			// lock-cheap tap-offer shape. Without one, the goroutine parks
			// on the channels with the lock held.
			if len(held) > 0 && !selectHasDefault(s) {
				p.Reportf(s.Select, "blocking select (no default) while holding %s", heldList(held))
			}
			walkLocked(p, s.Body.List, copyHeld(held))
		case *ast.CaseClause:
			walkLocked(p, s.Body, copyHeld(held))
		case *ast.CommClause:
			walkLocked(p, s.Body, copyHeld(held))
		case *ast.LabeledStmt:
			walkLocked(p, []ast.Stmt{s.Stmt}, held)
		default:
			reportBlockingCalls(p, stmt, held)
		}
	}
}

func copyHeld(held map[string]bool) map[string]bool {
	c := make(map[string]bool, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

// lockOp recognizes x.Lock()/x.Unlock()/x.RLock()/x.RUnlock() on a
// sync.Mutex or sync.RWMutex and returns the mutex key and operation.
func lockOp(p *Pass, e ast.Expr) (key, op string, ok bool) {
	call, isCall := ast.Unparen(e).(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	fn := staticCallee(p.Info, call)
	if fn == nil || funcPkgPath(fn) != "sync" {
		return "", "", false
	}
	name := fn.Name()
	switch name {
	case "Lock", "Unlock", "RLock", "RUnlock":
		return exprKey(sel.X), name, true
	}
	return "", "", false
}

// reportBlockingCalls inspects node (a statement or expression) for calls
// that must not run under a lock. Function literals are skipped: their
// bodies execute later, under their own analysis.
func reportBlockingCalls(p *Pass, node ast.Node, held map[string]bool) {
	if len(held) == 0 || node == nil {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false
		}
		if u, isRecv := n.(*ast.UnaryExpr); isRecv && u.Op == token.ARROW {
			p.Reportf(u.OpPos, "channel receive from %s while holding %s", exprKey(u.X), heldList(held))
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if why := blockingCallReason(p.Info, call); why != "" {
			p.Reportf(call.Pos(), "%s while holding %s", why, heldList(held))
			return true
		}
		reportTransitiveBlocking(p, call, held)
		return true
	})
}

// reportTransitiveBlocking flags a call whose callee — resolved through the
// module call graph, including interface dispatch and callback literals —
// reaches a blocking operation. Lock operations themselves are exempt (the
// lock tracking above models them), as is anything without a resolvable
// module callee.
func reportTransitiveBlocking(p *Pass, call *ast.CallExpr, held map[string]bool) {
	if !locksafeTransitive || p.state == nil {
		return
	}
	if _, _, isLock := lockOp(p, call); isLock {
		return
	}
	blocking := p.state.Blocking()
	for _, e := range p.state.Graph().EdgesAt(call) {
		if !syncEdge(e) || !blocking.Reaches(e.Callee) {
			continue
		}
		chain := p.state.BlockChain(e.Callee)
		reason := "a blocking operation"
		if len(chain) > 0 {
			reason = chain[len(chain)-1]
		}
		p.ReportChain(call.Pos(), chain, "call to %s reaches %s while holding %s",
			e.Callee.Name, reason, heldList(held))
		return
	}
}

// blockingCallReason classifies a call that should not run under a mutex,
// returning a human-readable reason or "".
func blockingCallReason(info *types.Info, call *ast.CallExpr) string {
	fn := staticCallee(info, call)
	if fn == nil {
		return ""
	}
	if isDeviceMethod(fn, "GPU", "Alloc") {
		return "ledger allocation GPU.Alloc"
	}
	if isDeviceMethod(fn, "GPU", "TransferH2D") {
		return "simulated transfer GPU.TransferH2D"
	}
	if isDeviceMethod(fn, "GPU", "TransferH2DAsync") {
		// Async issue still books copy-engine time under the ledger lock.
		return "simulated transfer GPU.TransferH2DAsync"
	}
	if isDeviceMethod(fn, "GPU", "WaitTransfer") {
		return "simulated stall GPU.WaitTransfer"
	}
	if isDeviceMethod(fn, "Cluster", "AllReduceAsync") {
		// Async launch still books interconnect time under the cluster's
		// comm-engine clock; holding a mutex across it serializes every
		// replica's bucket launches.
		return "simulated collective Cluster.AllReduceAsync"
	}
	if isDeviceMethod(fn, "Cluster", "ReduceScatterAsync") {
		// Same comm-engine booking as AllReduceAsync: the sharded combine
		// launches one reduce-scatter per bucket, and a mutex held across
		// the launches serializes every replica's bucket stream.
		return "simulated collective Cluster.ReduceScatterAsync"
	}
	if isDeviceMethod(fn, "Cluster", "AllGatherAsync") {
		return "simulated collective Cluster.AllGatherAsync"
	}
	if isDeviceMethod(fn, "Cluster", "WaitReduce") {
		return "simulated stall Cluster.WaitReduce"
	}
	path := funcPkgPath(fn)
	switch path {
	case "time":
		if fn.Name() == "Sleep" {
			return "time.Sleep"
		}
	case "os", "io", "io/ioutil", "net", "net/http", "bufio":
		// Method values on sync/atomic types come from "sync"; anything
		// declared in an I/O package is presumed to touch the outside
		// world.
		return "I/O call " + fn.FullName()
	case "fmt":
		if strings.HasPrefix(fn.Name(), "Fprint") {
			return "I/O call " + fn.FullName()
		}
	}
	return ""
}

// selectHasDefault reports whether a select statement carries a default
// clause, making it a non-blocking poll.
func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// isChanExpr reports whether e has channel type (after unwrapping named
// types), so ranging over it parks the goroutine between elements.
func isChanExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	_, isChan := tv.Type.Underlying().(*types.Chan)
	return isChan
}

// heldList renders the held mutex set for a diagnostic.
func heldList(held map[string]bool) string {
	names := make([]string, 0, len(held))
	for k := range held {
		names = append(names, k)
	}
	if len(names) == 1 {
		return "mutex " + names[0]
	}
	sortStrings(names)
	return "mutexes " + strings.Join(names, ", ")
}

func sortStrings(s []string) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
