package lint

import (
	"go/ast"
	"go/types"
)

// AnalyzerNonDeterm hunts sources of run-to-run divergence in library
// code — the repo's outputs (Table 2, golden sweeps) must be
// byte-identical across runs, so anything that injects entropy into a
// routing decision is a bug even when each individual run looks correct:
//
//   - math/rand package-level functions draw from the process-global,
//     randomly-seeded source (rand.New(rand.NewSource(seed)) is the
//     deterministic idiom and stays allowed);
//   - wall-clock values (time.Now/time.Since) that flow into a branch or
//     loop condition make control flow depend on machine load. Storing or
//     returning durations is fine — only conditions are flagged, tracked
//     by a flow-insensitive taint analysis over each function body.
//
// Library code starts no goroutines (TestGoStatementInventory), so racing
// selects and channel sends have nothing to guard here.
var AnalyzerNonDeterm = &Analyzer{
	Name: "nondeterm",
	Doc:  "library code must not let random sources or wall-clock time steer routing results",
	Run:  runNonDeterm,
}

func runNonDeterm(p *Pass) {
	if !libPackage(p.PkgPath) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				checkGlobalRand(p, call)
			}
			return true
		})
		for _, body := range funcBodies(file) {
			checkClockTaint(p, body)
		}
	}
}

// checkGlobalRand flags math/rand package-level calls other than the
// constructors of explicitly-seeded sources.
func checkGlobalRand(p *Pass, call *ast.CallExpr) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	if !isPkgIdent(p, id, "math/rand") && !isPkgIdent(p, id, "math/rand/v2") {
		return
	}
	if sel.Sel.Name == "New" || sel.Sel.Name == "NewSource" {
		return // building an explicitly-seeded source: the deterministic idiom
	}
	p.Reportf(call.Pos(), "%s.%s draws from the process-global random source; thread a rand.New(rand.NewSource(seed)) through instead", id.Name, sel.Sel.Name)
}

// clockFact is the set of variables holding wall-clock-derived values.
type clockFact map[types.Object]bool

// clockFlow is one assignment in a body: dst becomes tainted when any of
// src touches the clock.
type clockFlow struct {
	dst types.Object
	src []ast.Expr
}

// checkClockTaint runs the wall-clock taint analysis over one body. It is
// flow-insensitive: a variable assigned or declared from a time.Now or
// time.Since call, or from a tainted variable, is tainted everywhere in the
// body, and the tainted set grows to a fixpoint. A tainted value in an if
// or for condition, a range operand, a switch tag or a case expression is
// flagged. A closure is its own body: it starts with nothing tainted.
func checkClockTaint(p *Pass, body *ast.BlockStmt) {
	var flows []clockFlow
	var conds []ast.Expr
	inspectShallow(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			flows = appendFlows(p, flows, n.Lhs, n.Rhs)
		case *ast.ValueSpec:
			lhs := make([]ast.Expr, len(n.Names))
			for i, name := range n.Names {
				lhs[i] = name
			}
			flows = appendFlows(p, flows, lhs, n.Values)
		case *ast.IfStmt:
			conds = append(conds, n.Cond)
		case *ast.ForStmt:
			if n.Cond != nil {
				conds = append(conds, n.Cond)
			}
		case *ast.RangeStmt:
			conds = append(conds, n.X)
		case *ast.SwitchStmt:
			if n.Tag != nil {
				conds = append(conds, n.Tag)
			}
		case *ast.CaseClause:
			conds = append(conds, n.List...)
		}
		return true
	})
	fact := clockFact{}
	for changed := true; changed; {
		changed = false
		for _, f := range flows {
			if fact[f.dst] {
				continue
			}
			for _, e := range f.src {
				if clockTouched(p, e, fact) {
					fact[f.dst] = true
					changed = true
					break
				}
			}
		}
	}
	for _, cond := range conds {
		if clockTouched(p, cond, fact) {
			p.Reportf(cond.Pos(), "wall-clock time steers control flow here; a load-dependent branch makes routing output differ run to run")
		}
	}
}

// appendFlows appends one clockFlow per identifier on the left: from its
// own right-hand value when the sides pair up, from every right-hand value
// otherwise (a multi-value call or comma-ok form).
func appendFlows(p *Pass, flows []clockFlow, lhs, rhs []ast.Expr) []clockFlow {
	for i, l := range lhs {
		id, ok := l.(*ast.Ident)
		if !ok {
			continue
		}
		obj := p.ObjectOf(id)
		if obj == nil {
			continue
		}
		src := rhs
		if len(lhs) == len(rhs) {
			src = rhs[i : i+1]
		}
		flows = append(flows, clockFlow{dst: obj, src: src})
	}
	return flows
}

// clockTouched reports whether e mentions a wall-clock source call or a
// tainted variable.
func clockTouched(p *Pass, e ast.Expr, fact clockFact) bool {
	touched := false
	inspectShallow(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isClockCall(p, n) {
				touched = true
			}
		case *ast.Ident:
			if obj := p.ObjectOf(n); obj != nil && fact[obj] {
				touched = true
			}
		}
		return !touched
	})
	return touched
}

// isClockCall reports whether call is time.Now or time.Since.
func isClockCall(p *Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok || !isPkgIdent(p, id, "time") {
		return false
	}
	return sel.Sel.Name == "Now" || sel.Sel.Name == "Since"
}

// funcBodies enumerates every function body in file, outermost first: each
// declared function, then the closures nested inside it, which are analyzed
// as bodies of their own.
func funcBodies(file *ast.File) []*ast.BlockStmt {
	var out []*ast.BlockStmt
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		out = append(out, fn.Body)
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if l, ok := n.(*ast.FuncLit); ok {
				out = append(out, l.Body)
			}
			return true
		})
	}
	return out
}

// inspectShallow walks n in preorder like ast.Inspect but does not descend
// into function literals: f still sees the *ast.FuncLit node itself (so a
// caller can treat the closure as a value), never its body.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			f(m)
			return false
		}
		return f(m)
	})
}
