package analysis

import (
	"strings"
	"testing"

	"buffalo/internal/analysis/callgraph"
)

// fixtureGraph builds the shared call graph over the module plus one
// fixture package, the way a real run does.
func fixtureGraph(t *testing.T, name string) *callgraph.Graph {
	t.Helper()
	p, pkg := loadFixture(t, name)
	s := &runState{prog: p, pkgs: []*Package{pkg}}
	return s.Graph()
}

func graphNode(t *testing.T, g *callgraph.Graph, name string) *callgraph.Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Name == name {
			return n
		}
	}
	t.Fatalf("node %q not in graph", name)
	return nil
}

// edgeTo reports whether caller has an out-edge of the given kind to a
// callee with the given name.
func edgeTo(caller *callgraph.Node, kind callgraph.EdgeKind, callee string) bool {
	for _, e := range caller.Out {
		if e.Kind == kind && e.Callee.Name == callee {
			return true
		}
	}
	return false
}

func TestCallGraphEdges(t *testing.T) {
	g := fixtureGraph(t, "callgraph")
	const fx = "fixture/callgraph."

	// Direct recursion: a static self-edge.
	fact := graphNode(t, g, fx+"Fact")
	if !edgeTo(fact, callgraph.Static, fx+"Fact") {
		t.Error("Fact lacks its recursive static self-edge")
	}

	// Mutual recursion: the cycle must exist and not wedge anything.
	ping := graphNode(t, g, fx+"Ping")
	pong := graphNode(t, g, fx+"Pong")
	if !edgeTo(ping, callgraph.Static, fx+"Pong") || !edgeTo(pong, callgraph.Static, fx+"Ping") {
		t.Error("Ping/Pong mutual recursion edges missing")
	}

	// Interface dispatch fans out to every implementing type.
	talk := graphNode(t, g, fx+"Talk")
	if !edgeTo(talk, callgraph.Dynamic, fx+"(dog).Speak") {
		t.Error("Talk lacks dynamic edge to dog.Speak")
	}
	if !edgeTo(talk, callgraph.Dynamic, fx+"(cat).Speak") {
		t.Error("Talk lacks dynamic edge to cat.Speak")
	}

	// A method value is a reference, not a call: no edge at all.
	if mv := graphNode(t, g, fx+"MethodValue"); len(mv.Out) != 0 {
		t.Errorf("MethodValue has %d out-edges, want none", len(mv.Out))
	}

	// Go statements become spawn edges, to declared functions and literals.
	if !edgeTo(graphNode(t, g, fx+"SpawnWorker"), callgraph.Spawn, fx+"worker") {
		t.Error("SpawnWorker lacks spawn edge to worker")
	}
	spawnLit := graphNode(t, g, fx+"SpawnLit")
	var litName string
	for _, e := range spawnLit.Out {
		if e.Kind == callgraph.Spawn {
			litName = e.Callee.Name
		}
	}
	if !strings.HasPrefix(litName, fx+"SpawnLit$") {
		t.Fatalf("SpawnLit spawn edge goes to %q, want its own literal", litName)
	}
	if !edgeTo(graphNode(t, g, litName), callgraph.Static, fx+"worker") {
		t.Error("spawned literal lacks static edge to worker")
	}

	// Immediately invoked and argument literals.
	invoke := graphNode(t, g, fx+"InvokeLit")
	foundLitCall := false
	for _, e := range invoke.Out {
		if e.Kind == callgraph.LitCall {
			foundLitCall = true
		}
	}
	if !foundLitCall {
		t.Error("InvokeLit lacks a litcall edge")
	}
	use := graphNode(t, g, fx+"UseHook")
	foundArgLit := false
	for _, e := range use.Out {
		if e.Kind == callgraph.ArgLit {
			foundArgLit = true
		}
	}
	if !foundArgLit {
		t.Error("UseHook lacks an arglit edge for its literal callback")
	}
}

func TestReachAndPath(t *testing.T) {
	g := fixtureGraph(t, "callgraph")
	const fx = "fixture/callgraph."
	worker := graphNode(t, g, fx+"worker")
	reach := callgraph.NewReach(g,
		func(n *callgraph.Node) bool { return n == worker },
		func(e *callgraph.Edge) bool { return e.Kind == callgraph.Static || e.Kind == callgraph.Spawn })

	spawnLitNode := graphNode(t, g, fx+"SpawnLit")
	if !reach.Reaches(spawnLitNode) {
		t.Error("SpawnLit should reach worker through its spawned literal")
	}
	path := reach.Path(spawnLitNode)
	if len(path) != 2 {
		t.Fatalf("Path(SpawnLit) has %d hops, want 2 (literal, worker)", len(path))
	}
	if path[len(path)-1].Callee != worker {
		t.Error("path does not terminate at worker")
	}

	// Recursive nodes must not satisfy reachability they don't have, and
	// the fixpoint must terminate on cycles (implicitly: we got here).
	if reach.Reaches(graphNode(t, g, fx+"Fact")) {
		t.Error("Fact should not reach worker")
	}
	if reach.Path(worker) != nil {
		t.Error("Path from a locally-true node should be nil")
	}
}
