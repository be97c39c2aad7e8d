// Package fixture exercises the call-graph builder: recursion, mutual
// recursion, interface dispatch, method values, function literals, and go
// statements. TestCallGraphEdges walks this package's graph by node name; keep
// names stable.
package fixture

// speaker is dispatched through CHA: a call of Speak on the interface must
// fan out to every implementing type in the module.
type speaker interface{ Speak() string }

type dog struct{}

func (dog) Speak() string { return "woof" }

type cat struct{}

func (cat) Speak() string { return "meow" }

// Talk calls through the interface.
func Talk(s speaker) string { return s.Speak() }

// Fact is directly recursive: the graph must carry a self-edge without the
// reachability fixpoint looping.
func Fact(n int) int {
	if n <= 1 {
		return 1
	}
	return n * Fact(n-1)
}

// Ping and Pong are mutually recursive.
func Ping(n int) {
	if n > 0 {
		Pong(n - 1)
	}
}

func Pong(n int) {
	if n > 0 {
		Ping(n - 1)
	}
}

// MethodValue references a method without calling it: no edge.
func MethodValue(d dog) func() string {
	f := d.Speak
	return f
}

func worker() {}

// SpawnWorker spawns a declared function: a Spawn edge.
func SpawnWorker() {
	go worker()
}

// SpawnLit spawns a literal, which calls worker statically.
func SpawnLit() {
	go func() { worker() }()
}

// InvokeLit invokes a literal immediately: a LitCall edge.
func InvokeLit() int {
	return func() int { return Fact(3) }()
}

// TakeHook receives a callback it may run synchronously; call sites create
// ArgLit edges for literal arguments.
func TakeHook(fn func() int) int { return fn() }

func UseHook() int {
	return TakeHook(func() int { return 7 })
}
