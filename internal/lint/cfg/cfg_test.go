package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseBody parses src as the body of a single function declaration and
// returns it.
func parseBody(t *testing.T, body string) *ast.BlockStmt {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}\n"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "t.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f.Decls[0].(*ast.FuncDecl).Body
}

// checkInvariants verifies structural sanity: pred/succ symmetry, indices,
// and that Entry has no predecessors.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	if len(g.Entry.Preds) != 0 {
		t.Errorf("entry has %d preds", len(g.Entry.Preds))
	}
	if len(g.Exit.Succs) != 0 {
		t.Errorf("exit has %d succs", len(g.Exit.Succs))
	}
	for i, b := range g.Blocks {
		if b.Index != i {
			t.Fatalf("block %d has Index %d", i, b.Index)
		}
		for _, s := range b.Succs {
			if !containsBlock(s.Preds, b) {
				t.Errorf("edge %d->%d missing from preds", b.Index, s.Index)
			}
		}
		for _, p := range b.Preds {
			if !containsBlock(p.Succs, b) {
				t.Errorf("edge %d->%d missing from succs", p.Index, b.Index)
			}
		}
	}
}

func containsBlock(bs []*Block, b *Block) bool {
	for _, x := range bs {
		if x == b {
			return true
		}
	}
	return false
}

func reachable(g *Graph) map[*Block]bool {
	m := map[*Block]bool{}
	for _, b := range g.RPO() {
		m[b] = true
	}
	return m
}

func TestStraightLine(t *testing.T) {
	g := New(parseBody(t, "x := 1\ny := x\n_ = y"))
	checkInvariants(t, g)
	if len(g.Entry.Nodes) != 3 {
		t.Errorf("entry has %d nodes, want 3", len(g.Entry.Nodes))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Errorf("entry should flow straight to exit")
	}
}

func TestIfElseJoin(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`))
	checkInvariants(t, g)
	// Entry (with cond) -> then, else; both -> join -> exit.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("cond block has %d succs, want 2", len(g.Entry.Succs))
	}
	join := g.Entry.Succs[0].Succs[0]
	if join != g.Entry.Succs[1].Succs[0] {
		t.Fatalf("then and else do not meet at one join block")
	}
	if len(join.Preds) != 2 {
		t.Errorf("join has %d preds, want 2", len(join.Preds))
	}
}

func TestIfWithoutElse(t *testing.T) {
	g := New(parseBody(t, "x := 0\nif x > 0 {\n\tx = 1\n}\n_ = x"))
	checkInvariants(t, g)
	// The condition block must have an edge skipping the then-block.
	var then, after *Block
	for _, s := range g.Entry.Succs {
		if len(s.Preds) == 2 {
			after = s
		} else {
			then = s
		}
	}
	if then == nil || after == nil {
		t.Fatalf("missing then/after shape: succs=%d", len(g.Entry.Succs))
	}
	if !containsBlock(then.Succs, after) {
		t.Errorf("then does not rejoin after")
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := New(parseBody(t, "for i := 0; i < 3; i++ {\n\t_ = i\n}"))
	checkInvariants(t, g)
	// Some reachable block must have a back edge (successor already seen on
	// the path), i.e. the graph is cyclic.
	idom := idoms(g)
	cyclic := false
	for b := range reachable(g) {
		for _, s := range b.Succs {
			if dominates(idom, s, b) {
				cyclic = true
			}
		}
	}
	if !cyclic {
		t.Error("for loop produced an acyclic graph")
	}
}

func TestReturnReachesExit(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x > 0 {
	return
}
x = 2
_ = x`))
	checkInvariants(t, g)
	if len(g.Exit.Preds) != 2 {
		t.Errorf("exit has %d preds, want 2 (return + fallthrough)", len(g.Exit.Preds))
	}
}

func TestBreakContinue(t *testing.T) {
	g := New(parseBody(t, `
for i := 0; i < 10; i++ {
	if i == 3 {
		continue
	}
	if i == 5 {
		break
	}
	_ = i
}`))
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Error("exit unreachable")
	}
}

func TestLabeledBreak(t *testing.T) {
	g := New(parseBody(t, `
outer:
for i := 0; i < 3; i++ {
	for j := 0; j < 3; j++ {
		if i+j > 2 {
			break outer
		}
	}
}
_ = 1`))
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Error("exit unreachable")
	}
}

func TestGotoForward(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x == 0 {
	goto done
}
x = 1
done:
_ = x`))
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Error("exit unreachable")
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := New(parseBody(t, `
x := 0
switch x {
case 0:
	x = 1
	fallthrough
case 1:
	x = 2
default:
	x = 3
}
_ = x`))
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Error("exit unreachable")
	}
}

func TestSelectShape(t *testing.T) {
	g := New(parseBody(t, `
a := make(chan int)
b := make(chan int)
select {
case <-a:
	_ = 1
case <-b:
	_ = 2
}`))
	checkInvariants(t, g)
	if !reachable(g)[g.Exit] {
		t.Error("exit unreachable")
	}
}

func TestRangeZeroIterations(t *testing.T) {
	// The range head must have an edge straight to the after-block: a
	// zero-iteration range skips the body.
	g := New(parseBody(t, "m := map[int]int{}\nfor k := range m {\n\t_ = k\n}"))
	checkInvariants(t, g)
	idom := idoms(g)
	// The body must not dominate the exit.
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.AssignStmt); ok && b != g.Entry {
				if dominates(idom, b, g.Exit) {
					t.Errorf("range body dominates exit; zero-iteration edge missing")
				}
			}
		}
	}
}

func TestDominance(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`))
	idom := idoms(g)
	// Entry dominates everything reachable.
	for b := range reachable(g) {
		if !dominates(idom, g.Entry, b) {
			t.Errorf("entry does not dominate block %d", b.Index)
		}
	}
	// Neither arm dominates the exit.
	for _, arm := range g.Entry.Succs {
		if dominates(idom, arm, g.Exit) {
			t.Errorf("branch arm %d dominates exit", arm.Index)
		}
	}
}

// TestSolveMustStamp runs a small must-analysis ("has f() been called on
// every path?") over an if-without-else and a loop, checking join
// directionality.
func TestSolveMustStamp(t *testing.T) {
	isStamp := func(n ast.Node) bool {
		found := false
		ast.Inspect(n, func(m ast.Node) bool {
			if c, ok := m.(*ast.CallExpr); ok {
				if id, ok := c.Fun.(*ast.Ident); ok && id.Name == "stamp" {
					found = true
				}
			}
			return true
		})
		return found
	}
	solve := func(body string) bool {
		g := New(parseBody(t, body))
		in := Solve(g, Problem[bool]{
			Entry: false,
			Transfer: func(b *Block, in bool) bool {
				out := in
				for _, n := range b.Nodes {
					if isStamp(n) {
						out = true
					}
				}
				return out
			},
			Join:  func(a, b bool) bool { return a && b },
			Equal: func(a, b bool) bool { return a == b },
		})
		return in[g.Exit.Index]
	}

	if got := solve("stamp()\n_ = 1"); !got {
		t.Error("straight-line stamp not seen at exit")
	}
	if got := solve("x := 0\nif x > 0 {\n\tstamp()\n}\n_ = x"); got {
		t.Error("one-armed stamp should not reach exit on all paths")
	}
	if got := solve("x := 0\nif x > 0 {\n\tstamp()\n} else {\n\tstamp()\n}\n_ = x"); !got {
		t.Error("both-armed stamp should reach exit")
	}
	if got := solve("for i := 0; i < 3; i++ {\n\tstamp()\n}\n_ = 1"); got {
		t.Error("stamp inside a maybe-zero-iteration loop should not reach exit")
	}
}

// TestSolveMayTaint runs a small may-analysis (union join) checking that
// facts merge across branches.
func TestSolveMayTaint(t *testing.T) {
	g := New(parseBody(t, `
x := 0
if x > 0 {
	x = 1
} else {
	x = 2
}
_ = x`))
	type fact map[string]bool
	countAssigns := func(b *Block, in fact) fact {
		out := fact{}
		for k := range in {
			out[k] = true
		}
		for _, n := range b.Nodes {
			if as, ok := n.(*ast.AssignStmt); ok {
				if id, ok := as.Lhs[0].(*ast.Ident); ok && id.Name != "_" {
					out[id.Name+":"+as.Tok.String()] = true
				}
			}
		}
		return out
	}
	in := Solve(g, Problem[fact]{
		Entry:    fact{},
		Transfer: countAssigns,
		Join: func(a, b fact) fact {
			u := fact{}
			for k := range a {
				u[k] = true
			}
			for k := range b {
				u[k] = true
			}
			return u
		},
		Equal: func(a, b fact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	})
	got := in[g.Exit.Index]
	if !got["x:="] || !got["x::="] {
		t.Errorf("exit fact missing branch assignments: %v", got)
	}
}

// idoms returns the immediate dominator of every block, indexed by
// Block.Index, using the Cooper–Harvey–Kennedy iterative algorithm. The
// entry block's immediate dominator is itself; unreachable blocks map to
// nil. The tests use dominance to pin the shape of built graphs.
func idoms(g *Graph) []*Block {
	rpo := g.RPO()
	num := make([]int, len(g.Blocks)) // block index -> RPO position
	for i := range num {
		num[i] = -1
	}
	for i, b := range rpo {
		num[b.Index] = i
	}
	idom := make([]*Block, len(g.Blocks))
	idom[g.Entry.Index] = g.Entry

	intersect := func(a, b *Block) *Block {
		for a != b {
			for num[a.Index] > num[b.Index] {
				a = idom[a.Index]
			}
			for num[b.Index] > num[a.Index] {
				b = idom[b.Index]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			if b == g.Entry {
				continue
			}
			var d *Block
			for _, p := range b.Preds {
				if idom[p.Index] == nil {
					continue // unreachable or not yet processed
				}
				if d == nil {
					d = p
				} else {
					d = intersect(d, p)
				}
			}
			if d != nil && idom[b.Index] != d {
				idom[b.Index] = d
				changed = true
			}
		}
	}
	return idom
}

// dominates reports whether a dominates b under the idom tree returned by
// idoms (every block dominates itself).
func dominates(idom []*Block, a, b *Block) bool {
	for {
		if b == a {
			return true
		}
		d := idom[b.Index]
		if d == nil || d == b {
			return false
		}
		b = d
	}
}

// TestEncodeDeterministic pins what two lint runs over one tree rely on:
// building the CFG of the same body twice gives the same blocks and edges,
// and Solve over each gives the same fact at every block.
func TestEncodeDeterministic(t *testing.T) {
	const body = `
x := 0
for i := 0; i < 3; i++ {
	if i == x {
		continue
	}
	x = i
}
switch x {
case 1:
	x = 2
	fallthrough
case 2:
	return
}
_ = x`
	shape := func(g *Graph) string {
		var b strings.Builder
		for _, blk := range g.RPO() {
			fmt.Fprintf(&b, "%d:%d->", blk.Index, len(blk.Nodes))
			for _, s := range blk.Succs {
				fmt.Fprintf(&b, "%d,", s.Index)
			}
			b.WriteByte(' ')
		}
		return b.String()
	}
	// A may-analysis of which blocks can precede each block: any change in
	// block numbering or edges shows up in the facts.
	solve := func(g *Graph) []uint64 {
		return Solve(g, Problem[uint64]{
			Transfer: func(b *Block, in uint64) uint64 { return in | 1<<uint(b.Index) },
			Join:     func(a, b uint64) uint64 { return a | b },
			Equal:    func(a, b uint64) bool { return a == b },
		})
	}
	g1, g2 := New(parseBody(t, body)), New(parseBody(t, body))
	if a, b := shape(g1), shape(g2); a != b {
		t.Fatalf("CFG shape differs between builds:\n%s\n%s", a, b)
	}
	if a, b := fmt.Sprint(solve(g1)), fmt.Sprint(solve(g2)); a != b {
		t.Errorf("Solve facts differ between builds:\n%s\n%s", a, b)
	}
}
