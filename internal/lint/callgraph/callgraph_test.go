package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// load type-checks one synthetic file and builds its graph.
func load(t *testing.T, src string) (*Graph, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", nil), Error: func(error) {}}
	if _, err := conf.Check("example.com/p", fset, []*ast.File{f}, info); err != nil {
		t.Fatalf("check: %v", err)
	}
	return Build("example.com/p", []*ast.File{f}, info), info
}

func edgeKeys(n *Node) []string {
	var out []string
	for _, e := range n.Edges {
		if e.Kind == KindUnknown {
			out = append(out, "?")
		} else if e.Callee != "" {
			out = append(out, e.Callee)
		}
	}
	return out
}

func TestDirectAndMethodEdges(t *testing.T) {
	g, _ := load(t, `package p

type T struct{}

func (t *T) M() { helper() }

func helper() {}

func top(t *T) {
	t.M()
	helper()
	go helper()
	defer helper()
}
`)
	top := g.ByKey["example.com/p.top"]
	if top == nil {
		t.Fatalf("missing top node; have %v", nodeKeys(g))
	}
	want := []string{"example.com/p.(T).M", "example.com/p.helper", "example.com/p.helper", "example.com/p.helper"}
	got := edgeKeys(top)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("top edges = %v, want %v", got, want)
	}
	kinds := []EdgeKind{KindCall, KindCall, KindGo, KindDefer}
	for i, e := range top.Edges {
		if e.Kind != kinds[i] {
			t.Errorf("edge %d kind = %d, want %d", i, e.Kind, kinds[i])
		}
	}
	m := g.ByKey["example.com/p.(T).M"]
	if m == nil || len(m.Edges) != 1 || m.Edges[0].Callee != "example.com/p.helper" {
		t.Fatalf("method node edges wrong: %+v", m)
	}
}

func TestClosureNodesAndBindings(t *testing.T) {
	g, info := load(t, `package p

func host() {
	done := func() { inner() }
	done()
	func() { inner() }()
	var cb func()
	cb = func() {}
	cb = func() {}
	cb()
}

func inner() {}
`)
	host := g.ByKey["example.com/p.host"]
	if host == nil {
		t.Fatal("missing host node")
	}
	if g.ByKey["example.com/p.host$0"] == nil || g.ByKey["example.com/p.host$1"] == nil {
		t.Fatalf("closure nodes missing: %v", nodeKeys(g))
	}
	// done() resolves to the first literal; the IIFE to the second; cb()
	// (two assignments) stays unknown.
	var resolved, unknown int
	for _, e := range host.Edges {
		switch {
		case e.Callee == "example.com/p.host$0" || e.Callee == "example.com/p.host$1":
			resolved++
		case e.Kind == KindUnknown:
			unknown++
		}
	}
	if resolved != 2 || unknown != 1 {
		t.Fatalf("resolved=%d unknown=%d, want 2/1 (edges %v)", resolved, unknown, edgeKeys(host))
	}
	// CallOnly: done is only ever called.
	found := false
	for obj, lit := range g.Bindings {
		if obj.Name() == "done" {
			found = true
			if g.LitKey[lit] != "example.com/p.host$0" {
				t.Errorf("done bound to %s", g.LitKey[lit])
			}
			if !g.CallOnly[obj] {
				t.Errorf("done should be call-only")
			}
		}
	}
	if !found {
		t.Fatal("done binding missing")
	}
	_ = info
}

func TestUnknownEdges(t *testing.T) {
	g, _ := load(t, `package p

type I interface{ M() }

func viaInterface(i I) { i.M() }

func viaValue(f func()) { f() }

func viaConversion(x int) int64 { return int64(x) }
`)
	for _, name := range []string{"viaInterface", "viaValue"} {
		n := g.ByKey["example.com/p."+name]
		if n == nil || len(n.Edges) != 1 || n.Edges[0].Kind != KindUnknown {
			t.Errorf("%s: want one unknown edge, got %+v", name, n.Edges)
		}
	}
	conv := g.ByKey["example.com/p.viaConversion"]
	for _, e := range conv.Edges {
		if e.Kind == KindUnknown || e.Callee != "" {
			t.Errorf("conversion produced an edge: %+v", e)
		}
	}
}

func TestSCCsBottomUp(t *testing.T) {
	g, _ := load(t, `package p

func a() { b() }
func b() { c(); d() }
func c() { b() } // b <-> c
func d() {}
func e() { e() } // self-loop
`)
	sccs := g.SCCs()
	pos := map[string]int{}
	size := map[string]int{}
	for i, scc := range sccs {
		for _, n := range scc {
			pos[n.Key] = i
			size[n.Key] = len(scc)
		}
	}
	bc := "example.com/p.b"
	if size[bc] != 2 || pos[bc] != pos["example.com/p.c"] {
		t.Fatalf("b and c should share a 2-node SCC: sizes %v", size)
	}
	if size["example.com/p.e"] != 1 {
		t.Errorf("self-loop e should be its own SCC")
	}
	// Bottom-up: d before b/c, b/c before a.
	if !(pos["example.com/p.d"] < pos[bc] && pos[bc] < pos["example.com/p.a"]) {
		t.Fatalf("SCC order not bottom-up: %v", pos)
	}
}

func TestBuiltinPanicEdge(t *testing.T) {
	g, _ := load(t, `package p

func boom() { panic("x") }
`)
	n := g.ByKey["example.com/p.boom"]
	if n == nil || len(n.Edges) != 1 || n.Edges[0].Callee != "builtin.panic" {
		t.Fatalf("panic edge wrong: %+v", n.Edges)
	}
}

func nodeKeys(g *Graph) []string {
	var out []string
	for _, n := range g.Nodes {
		out = append(out, n.Key)
	}
	return out
}
