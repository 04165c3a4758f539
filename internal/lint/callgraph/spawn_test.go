package callgraph

import (
	"strings"
	"testing"
)

// These tests pin the `go` edges of the call graph: the summary engine
// reads KindGo to withhold a spawned callee's effects from its caller and
// to treat the spawned call's arguments and captures as escaping.

var kindName = map[EdgeKind]string{KindCall: "call", KindGo: "go", KindDefer: "defer", KindUnknown: "unknown"}

// edgeList renders a node's edges as "kind callee" items in source order,
// with the example.com/p. prefix dropped.
func edgeList(t *testing.T, g *Graph, key string) string {
	t.Helper()
	n := g.ByKey["example.com/p."+key]
	if n == nil {
		t.Fatalf("missing node %s; have %v", key, nodeKeys(g))
	}
	var out []string
	for _, e := range n.Edges {
		out = append(out, strings.TrimSpace(kindName[e.Kind]+" "+strings.TrimPrefix(e.Callee, "example.com/p.")))
	}
	return strings.Join(out, ", ")
}

func wantEdges(t *testing.T, g *Graph, key, want string) {
	t.Helper()
	if got := edgeList(t, g, key); got != want {
		t.Errorf("%s edges = [%s], want [%s]", key, got, want)
	}
}

// TestSpawnRolesScheduler: a `go` statement inside a loop is one KindGo
// edge to the resolved method, and the spawned method's own calls are
// ordinary call edges of its node.
func TestSpawnRolesScheduler(t *testing.T) {
	g, _ := load(t, `package p

type sched struct{ n int }

func Run(s *sched) {
	for i := 0; i < 4; i++ {
		go s.worker()
	}
}

func (s *sched) worker() {
	s.advance()
}

func (s *sched) advance() { s.n++ }

func shared() {}

func Front(s *sched) { shared() }
`)
	wantEdges(t, g, "Run", "go (sched).worker")
	wantEdges(t, g, "(sched).worker", "call (sched).advance")
	wantEdges(t, g, "(sched).advance", "")
	wantEdges(t, g, "Front", "call shared")
	if got := goSites(g); got != 1 {
		t.Errorf("go sites = %d, want 1 (a loop spawn is one site)", got)
	}
}

func goSites(g *Graph) int {
	n := 0
	for _, e := range g.Sites {
		if e.Kind == KindGo {
			n++
		}
	}
	return n
}

// TestSpawnRolesFanoutAndValueRef: a spawned declared function gets a
// KindGo edge; a function referenced only as a value gets no edge at all,
// and calling it through the parameter is an unknown edge.
func TestSpawnRolesFanoutAndValueRef(t *testing.T) {
	g, _ := load(t, `package p

func Run() {
	go helper()
	use(taken)
	go use(taken)
}

func helper() {}

func taken() {}

func use(f func()) { f() }
`)
	wantEdges(t, g, "Run", "go helper, call use, go use")
	wantEdges(t, g, "use", "unknown")
	for _, e := range g.Sites {
		if e.Callee == "example.com/p.taken" {
			t.Errorf("value reference produced a %s edge to taken", kindName[e.Kind])
		}
	}
}

// TestSpawnRolesMixed: one caller may both spawn and call the same
// function; every site keeps its own kind, in source order.
func TestSpawnRolesMixed(t *testing.T) {
	g, _ := load(t, `package p

func Run() {
	go both()
	both()
	go both()
	defer both()
}

func Direct() { both() }

func both() {}
`)
	wantEdges(t, g, "Run", "go both, call both, go both, defer both")
	wantEdges(t, g, "Direct", "call both")
	if got := goSites(g); got != 2 {
		t.Errorf("go sites = %d, want 2", got)
	}
}

// TestSpawnRolesClosure: a closure spawned in a loop is its own node with
// a KindGo edge from the host; its deferred and direct calls belong to the
// closure's node, not the host's.
func TestSpawnRolesClosure(t *testing.T) {
	g, _ := load(t, `package p

import "sync"

func Run(wg *sync.WaitGroup) {
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
}

func work() {}
`)
	wantEdges(t, g, "Run", "call sync.(WaitGroup).Add, go Run$0")
	wantEdges(t, g, "Run$0", "defer sync.(WaitGroup).Done, call work")
	if n := g.ByKey["example.com/p.Run$0"]; n == nil || n.Lit == nil || n.Parent != g.ByKey["example.com/p.Run"] {
		t.Fatalf("spawned closure node wrong: %+v", n)
	}
}

// TestRoleString: `go` through a variable bound once to a literal resolves
// to the literal's node; `go` through an arbitrary function value stays
// unknown, like a synchronous call through one.
func TestRoleString(t *testing.T) {
	g, _ := load(t, `package p

func Run(fs []func()) {
	done := func() {}
	go done()
	for _, f := range fs {
		go f()
	}
}
`)
	wantEdges(t, g, "Run", "go Run$0, unknown")
	for _, e := range g.ByKey["example.com/p.Run"].Edges {
		if g.Sites[e.Site] != e {
			t.Errorf("Sites disagrees with Edges at %v", e.Site)
		}
	}
}
