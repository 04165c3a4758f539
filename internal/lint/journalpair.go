package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/cfg"
)

// AnalyzerJournalPair guards the obstacle-journal protocol behind the
// negotiation rounds and the detour restore: ObsMap.StartJournal begins
// recording cell edits so a failed routing attempt can be rolled back
// (RewindJournal) and the recording handed back (StopJournal). A journal
// left open leaks every subsequent edit into the rollback log — the next
// rewind then un-does work that was supposed to be committed.
//
// The check is a must-analysis within one function body: a StartJournal
// on a local ObsMap variable x must reach x.StopJournal() or
// defer x.StopJournal() on every path to the function's exit, and a
// builtin panic ends its path. Passing x to a call only uses it, so a
// helper that stops the journal does not discharge the caller. Storing,
// returning or capturing x (in a closure or a go statement) moves the
// obligation with the value, and the check stays silent.
var AnalyzerJournalPair = &Analyzer{
	Name: "journalpair",
	Doc:  "every ObsMap.StartJournal on a local variable must reach StopJournal, or a deferred one, on every path in the same function",
	Run:  runJournalPair,
}

func runJournalPair(p *Pass) {
	for _, file := range p.Files {
		for _, body := range funcBodies(file) {
			checkJournalFunc(p, body)
		}
	}
}

// journalFact holds one bit per started variable: open while its journal
// may still be recording on some path, esc once the value may have moved
// elsewhere. Both join by union.
type journalFact struct{ open, esc uint64 }

// journalCheck interprets one body's nodes against the started variables.
type journalCheck struct {
	p   *Pass
	bit map[types.Object]uint64
}

func checkJournalFunc(p *Pass, body *ast.BlockStmt) {
	// The started variables, in source order so reports are deterministic.
	c := &journalCheck{p: p, bit: map[types.Object]uint64{}}
	var starts []ast.Node
	var names []string
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if obj, id := c.journalRecv(call, "StartJournal"); obj != nil && c.bit[obj] == 0 && len(starts) < 64 {
			c.bit[obj] = 1 << uint(len(starts))
			starts = append(starts, call)
			names = append(names, id.Name)
		}
		return true
	})
	if len(starts) == 0 {
		return
	}

	g := cfg.New(body)
	facts := cfg.Solve(g, cfg.Problem[journalFact]{
		Transfer: func(b *cfg.Block, in journalFact) journalFact {
			for _, n := range b.Nodes {
				if !c.node(n, &in) {
					return journalFact{} // the path panicked: nothing reaches the exit
				}
			}
			return in
		},
		Join:  func(a, b journalFact) journalFact { return journalFact{a.open | b.open, a.esc | b.esc} },
		Equal: func(a, b journalFact) bool { return a == b },
	})
	exit := facts[g.Exit.Index]
	for i, start := range starts {
		if m := uint64(1) << uint(i); exit.open&m != 0 && exit.esc&m == 0 {
			p.Reportf(start.Pos(), "journal on %s is started here but does not reach StopJournal on every path; pair it with a StopJournal (or defer one)", names[i])
		}
	}
}

// journalRecv returns the started variable when call is v.<method>() on a
// local ObsMap variable v.
func (c *journalCheck) journalRecv(call *ast.CallExpr, method string) (types.Object, *ast.Ident) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method || namedTypeName(c.p.TypeOf(sel.X)) != "ObsMap" {
		return nil, nil
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return nil, nil
	}
	if v, ok := c.p.ObjectOf(id).(*types.Var); ok {
		return v, id
	}
	return nil, nil
}

// node applies one CFG node to f and reports whether control continues
// past it (false after a builtin panic).
func (c *journalCheck) node(n ast.Node, f *journalFact) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, e := range n.Rhs {
			f.esc |= c.stored(e)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
			for _, spec := range gd.Specs {
				for _, e := range spec.(*ast.ValueSpec).Values {
					f.esc |= c.stored(e)
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			f.esc |= c.stored(e)
		}
	case *ast.SendStmt:
		f.esc |= c.stored(n.Value)
	case *ast.GoStmt:
		f.esc |= c.mentioned(n.Call) // the goroutine keeps what it is handed
		return true
	case *ast.DeferStmt:
		if obj, _ := c.journalRecv(n.Call, "StopJournal"); obj != nil {
			f.open &^= c.bit[obj] // runs on every path out from here
			return true
		}
	}
	live := true
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			f.esc |= c.mentioned(m.Body)
		case *ast.CallExpr:
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				if b, ok := c.p.ObjectOf(id).(*types.Builtin); ok && b.Name() == "panic" {
					live = false
				}
			}
			if obj, _ := c.journalRecv(m, "StartJournal"); obj != nil {
				f.open |= c.bit[obj]
			} else if obj, _ := c.journalRecv(m, "StopJournal"); obj != nil {
				f.open &^= c.bit[obj]
			}
		}
		return live
	})
	return live
}

// stored returns the started variables that e hands on as a value: e
// itself, its address, or an element of a composite literal. A variable
// that is only a call's argument or receiver inside e is not stored.
func (c *journalCheck) stored(e ast.Expr) uint64 {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return c.bit[c.p.ObjectOf(e)]
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return c.stored(e.X)
		}
	case *ast.CompositeLit:
		var m uint64
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			m |= c.stored(el)
		}
		return m
	}
	return 0
}

// mentioned returns the started variables referenced anywhere under n,
// closure bodies included.
func (c *journalCheck) mentioned(n ast.Node) uint64 {
	var m uint64
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			m |= c.bit[c.p.ObjectOf(id)]
		}
		return true
	})
	return m
}
