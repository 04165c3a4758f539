package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/cfg"
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
//     by a taint analysis over the control-flow graph.
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

// checkClockTaint runs the wall-clock taint analysis over one body:
// time.Now/time.Since results propagate through assignments, and a
// tainted value appearing in a control condition is flagged.
func checkClockTaint(p *Pass, body *ast.BlockStmt) {
	g := cfg.New(body)
	facts := cfg.Solve(g, cfg.Problem[clockFact]{
		Entry: clockFact{},
		Transfer: func(b *cfg.Block, in clockFact) clockFact {
			out := make(clockFact, len(in))
			for k := range in {
				out[k] = true
			}
			for _, n := range b.Nodes {
				clockTransferNode(p, n, out)
			}
			return out
		},
		Join: func(a, b clockFact) clockFact {
			u := make(clockFact, len(a)+len(b))
			for k := range a {
				u[k] = true
			}
			for k := range b {
				u[k] = true
			}
			return u
		},
		Equal: func(a, b clockFact) bool {
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
	for _, b := range g.RPO() {
		fact := make(clockFact, len(facts[b.Index]))
		for k := range facts[b.Index] {
			fact[k] = true
		}
		for _, n := range b.Nodes {
			if cond, ok := n.(ast.Expr); ok {
				if clockTouched(p, cond, fact) {
					p.Reportf(cond.Pos(), "wall-clock time steers control flow here; a load-dependent branch makes routing output differ run to run")
				}
				continue
			}
			clockTransferNode(p, n, fact)
		}
	}
}

// clockTransferNode propagates taint through one straight-line node:
// assignments and declarations whose right-hand side touches the clock
// taint their left-hand identifiers; plain reassignment clears them.
func clockTransferNode(p *Pass, n ast.Node, fact clockFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		paired := len(n.Lhs) == len(n.Rhs)
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := p.ObjectOf(id)
			if obj == nil {
				continue
			}
			var tainted bool
			if paired {
				tainted = clockTouched(p, n.Rhs[i], fact)
			} else {
				for _, rhs := range n.Rhs {
					tainted = tainted || clockTouched(p, rhs, fact)
				}
			}
			if tainted {
				fact[obj] = true
			} else if paired {
				delete(fact, obj)
			}
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				obj := p.ObjectOf(name)
				if obj == nil {
					continue
				}
				tainted := false
				if len(vs.Values) == len(vs.Names) {
					tainted = clockTouched(p, vs.Values[i], fact)
				} else {
					for _, v := range vs.Values {
						tainted = tainted || clockTouched(p, v, fact)
					}
				}
				if tainted {
					fact[obj] = true
				}
			}
		}
	}
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
