package lint

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// AnalyzerWsAliasing guards the pooled-workspace ownership contract: a
// *Workspace obtained from AcquireWorkspace is owned by exactly one
// goroutine, must reach ReleaseWorkspace on every control path (or the
// pool shrinks until every search allocates again), must not be used after
// release (the pool may already have handed it to another goroutine), and
// must not be released twice. The check is a forward dataflow analysis
// over the function's control-flow graph: each acquired variable carries a
// may-state bitset {acquired, released, escaped}, and joins take the
// union, so "released on one branch, leaked on the other" is visible where
// a syntax walk is blind.
//
// A workspace that escapes — passed to a callee, returned, stored into a
// structure, or captured by a closure — transfers its obligations to the
// receiver, and the local analysis stops tracking it.
//
// Calls are resolved interprocedurally when the driver provides summaries
// (Pass.ip): passing the workspace to a helper whose summary says it
// releases on every path discharges the obligation at the call site
// instead of escaping; a helper that releases on only some paths, or a
// call-only closure binding whose body leaks on a branch, keeps the
// obligation alive — cases the intraprocedural analysis either missed or
// wrote off as escapes.
var AnalyzerWsAliasing = &Analyzer{
	Name: "wsaliasing",
	Doc:  "pooled workspaces must be released on every path, never used after release, and never released twice",
	Run:  runWsAliasing,
}

// wsState maps each tracked workspace variable to its may-state bitset. A
// missing key means "not yet acquired".
type wsState map[types.Object]uint8

const (
	wsAcq uint8 = 1 << iota // holds a live pooled workspace on some path
	wsRel                   // released on some path
	wsEsc                   // escaped the function's ownership on some path
)

// wsSite records one AcquireWorkspace call site and the flow-insensitive
// facts about its variable.
type wsSite struct {
	name   string
	stmt   ast.Node // the acquiring statement
	qual   string   // callee qualifier as spelled ("route." or "")
	hasRel bool     // some ReleaseWorkspace(v) appears in the function
	defRel bool     // a defer ReleaseWorkspace(v) appears
}

func runWsAliasing(p *Pass) {
	for _, file := range p.Files {
		for _, fn := range flowFuncs(file) {
			checkWsFunc(p, fn)
		}
	}
}

type wsFunc struct {
	p       *Pass
	tracked map[types.Object]*wsSite
}

func checkWsFunc(p *Pass, fn flowFunc) {
	a := &wsFunc{p: p, tracked: map[types.Object]*wsSite{}}

	// Pass 1 (shallow): find acquire sites owned by this body. Acquires
	// inside nested closures belong to the closure's own flowFunc.
	inspectShallow(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call := wsAcquireCall(rhs)
				if call == nil {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				if obj := p.ObjectOf(id); obj != nil {
					a.tracked[obj] = &wsSite{name: id.Name, stmt: n, qual: wsCallQual(call)}
				}
			}
		case *ast.DeclStmt:
			gd, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Names) != 1 || len(vs.Values) != 1 {
					continue
				}
				call := wsAcquireCall(vs.Values[0])
				if call == nil {
					continue
				}
				if obj := p.ObjectOf(vs.Names[0]); obj != nil {
					a.tracked[obj] = &wsSite{name: vs.Names[0].Name, stmt: n, qual: wsCallQual(call)}
				}
			}
		}
		return true
	})
	if len(a.tracked) == 0 {
		return
	}

	// Pass 2 (deep): flow-insensitive facts — existing releases (anywhere,
	// closures included: a release inside a deferred closure still returns
	// the workspace).
	ast.Inspect(fn.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if obj := a.releaseTarget(n); obj != nil {
				if s := a.tracked[obj]; s != nil {
					s.hasRel = true
				}
			}
		case *ast.DeferStmt:
			if obj := a.releaseTarget(n.Call); obj != nil {
				if s := a.tracked[obj]; s != nil {
					s.defRel = true
				}
			} else if rel, _, ok := a.deferSummaryFacts(n.Call); ok {
				for obj := range rel {
					if s := a.tracked[obj]; s != nil {
						s.defRel = true
					}
				}
			}
		}
		return true
	})

	// Pass 3: dataflow. Solve for the state entering every block, then
	// replay reachable blocks with reporting on.
	g := cfg.New(fn.body)
	facts := cfg.Solve(g, cfg.Problem[wsState]{
		Entry: wsState{},
		Transfer: func(b *cfg.Block, in wsState) wsState {
			out := wsCopyState(in)
			for _, n := range b.Nodes {
				a.node(n, out, nil)
			}
			return out
		},
		Join:  wsJoinState,
		Equal: wsEqualState,
	})
	for _, b := range g.RPO() {
		fact := wsCopyState(facts[b.Index])
		for _, n := range b.Nodes {
			a.node(n, fact, p)
		}
	}

	// Exit obligations: a variable still (maybe) acquired at exit with no
	// deferred release leaks its workspace on that path.
	exit := facts[g.Exit.Index]
	for obj, site := range a.tracked {
		st := exit[obj]
		if st&wsAcq != 0 && st&wsEsc == 0 && !site.defRel {
			var fix *SuggestedFix
			if !site.hasRel {
				line := "defer " + site.qual + "ReleaseWorkspace(" + site.name + ")"
				if ed, ok := p.InsertLineAfter(site.stmt.Pos(), line); ok {
					fix = &SuggestedFix{Message: "defer the release at the acquire site", Edits: []TextEdit{ed}}
				}
			}
			p.ReportFix(site.stmt.Pos(), fix, "workspace %s does not reach ReleaseWorkspace on every path; release it or defer the release here", site.name)
		}
	}
}

// node interprets one CFG node against fact. When p is non-nil the walk is
// a reporting replay; during Solve it is nil and the walk only updates
// fact.
func (a *wsFunc) node(n ast.Node, fact wsState, p *Pass) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		a.assign(n, fact, p)
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
			if len(vs.Names) == 1 && len(vs.Values) == 1 && wsAcquireCall(vs.Values[0]) != nil {
				if obj := a.p.ObjectOf(vs.Names[0]); obj != nil && a.tracked[obj] != nil {
					fact[obj] = wsAcq
					continue
				}
			}
			for _, v := range vs.Values {
				a.expr(v, fact, p, true)
			}
		}
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(n.X).(*ast.CallExpr); ok {
			if obj := a.releaseTarget(call); obj != nil && a.tracked[obj] != nil {
				st := fact[obj]
				if st&wsEsc == 0 {
					if p != nil && st&wsRel != 0 {
						p.Reportf(call.Pos(), "workspace %s may already be released here; a double release poisons the pool", a.tracked[obj].name)
					}
					fact[obj] = (st | wsRel) &^ wsAcq
				}
				return
			}
		}
		a.expr(n.X, fact, p, false)
	case *ast.DeferStmt:
		if obj := a.releaseTarget(n.Call); obj != nil && a.tracked[obj] != nil {
			return // accounted for flow-insensitively via wsSite.defRel
		}
		if _, esc, ok := a.deferSummaryFacts(n.Call); ok {
			// Must-releases were folded into wsSite.defRel by pass 2; only
			// the partial effects (may-release, capture escape) matter here.
			for obj := range esc {
				fact[obj] |= wsEsc
			}
			return
		}
		a.expr(n.Call, fact, p, false)
	case *ast.GoStmt:
		a.expr(n.Call, fact, p, false)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			a.expr(r, fact, p, true)
		}
	case *ast.SendStmt:
		a.expr(n.Chan, fact, p, false)
		a.expr(n.Value, fact, p, true)
	case *ast.IncDecStmt:
		a.expr(n.X, fact, p, false)
	case ast.Expr:
		a.expr(n, fact, p, false) // control condition
	}
}

// assign interprets one assignment: an AcquireWorkspace pairing sets the
// acquired state, any other right-hand side is walked for uses and
// escapes, and reassigning a tracked variable from something else drops
// its obligations (the old value's owner is whoever it escaped to).
func (a *wsFunc) assign(n *ast.AssignStmt, fact wsState, p *Pass) {
	acquired := map[int]bool{}
	paired := len(n.Lhs) == len(n.Rhs)
	for i, rhs := range n.Rhs {
		if paired && (n.Tok == token.ASSIGN || n.Tok == token.DEFINE) {
			if call := wsAcquireCall(rhs); call != nil {
				if id, ok := n.Lhs[i].(*ast.Ident); ok {
					if obj := a.p.ObjectOf(id); obj != nil && a.tracked[obj] != nil {
						fact[obj] = wsAcq
						acquired[i] = true
						continue
					}
				}
			}
		}
		a.expr(rhs, fact, p, true)
	}
	for i, lhs := range n.Lhs {
		if acquired[i] {
			continue
		}
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := a.p.ObjectOf(id); obj != nil && a.tracked[obj] != nil && n.Tok == token.ASSIGN {
				delete(fact, obj) // overwritten with a non-pool value
			}
			continue
		}
		a.expr(lhs, fact, p, false)
	}
}

// expr walks an expression, reporting uses of released workspaces and
// recording escapes. escaping is true when the expression's value flows
// somewhere that may retain it (call argument, return, store, send).
func (a *wsFunc) expr(e ast.Expr, fact wsState, p *Pass, escaping bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		obj := a.p.ObjectOf(e)
		if obj == nil {
			return
		}
		site := a.tracked[obj]
		if site == nil {
			return
		}
		st := fact[obj]
		if st&wsEsc != 0 {
			return
		}
		if p != nil && st&wsRel != 0 {
			p.Reportf(e.Pos(), "workspace %s is used after ReleaseWorkspace; the pool may already have handed it to another goroutine", site.name)
		}
		if escaping {
			fact[obj] = st | wsEsc
		}
	case *ast.ParenExpr:
		a.expr(e.X, fact, p, escaping)
	case *ast.StarExpr:
		a.expr(e.X, fact, p, escaping)
	case *ast.UnaryExpr:
		a.expr(e.X, fact, p, escaping || e.Op == token.AND)
	case *ast.SelectorExpr:
		// Selecting a field or method copies a value out of the workspace;
		// the workspace itself does not escape.
		a.expr(e.X, fact, p, false)
	case *ast.CallExpr:
		if a.interpCall(e, fact, p) {
			return
		}
		switch fun := ast.Unparen(e.Fun).(type) {
		case *ast.SelectorExpr:
			a.expr(fun.X, fact, p, false) // method receiver: a use, not an escape
		case *ast.Ident:
			// plain callee name carries no workspace
		default:
			a.expr(e.Fun, fact, p, false)
		}
		for _, arg := range e.Args {
			a.expr(arg, fact, p, true) // the callee may retain the pointer
		}
	case *ast.FuncLit:
		if a.callOnlyBinding(e) {
			// Every call of this literal is a visible call site; its capture
			// effects are applied there (interpCall), not at the definition.
			return
		}
		// Closure capture: obligations transfer to the closure.
		for obj := range a.referencedIn(e.Body) {
			if a.tracked[obj] != nil {
				st := fact[obj]
				if p != nil && st&wsRel != 0 && st&wsEsc == 0 {
					p.Reportf(e.Pos(), "closure captures workspace %s after ReleaseWorkspace", a.tracked[obj].name)
				}
				fact[obj] = st | wsEsc
			}
		}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			a.expr(el, fact, p, true)
		}
	case *ast.KeyValueExpr:
		a.expr(e.Key, fact, p, false)
		a.expr(e.Value, fact, p, escaping)
	case *ast.BinaryExpr:
		a.expr(e.X, fact, p, false)
		a.expr(e.Y, fact, p, false)
	case *ast.IndexExpr:
		a.expr(e.X, fact, p, escaping)
		a.expr(e.Index, fact, p, false)
	case *ast.SliceExpr:
		a.expr(e.X, fact, p, escaping)
	case *ast.TypeAssertExpr:
		a.expr(e.X, fact, p, escaping)
	default:
		// Conservative fallback: treat every mentioned workspace as a use.
		inspectShallow(e, func(m ast.Node) bool {
			if id, ok := m.(*ast.Ident); ok {
				a.expr(id, fact, p, false)
			}
			return true
		})
	}
}

// interpCall applies the resolved callee's summary at one synchronous call
// site: a parameter the callee always releases discharges the obligation
// here; a parameter it may release or retain escapes; a parameter it
// merely reads is a use. Calls through call-only closure bindings apply
// the literal's capture effects the same way. Returns false when no
// interprocedural fact is available (the caller falls back to the
// conservative walk).
func (a *wsFunc) interpCall(call *ast.CallExpr, fact wsState, p *Pass) bool {
	ip := a.p.ip
	if ip == nil || ip.graph == nil {
		return false
	}
	edge, ok := ip.graph.Sites[call]
	if !ok || edge.Kind != callgraph.KindCall || edge.Callee == "" {
		return false
	}
	var lit *ast.FuncLit
	if node := ip.graph.ByKey[edge.Callee]; node != nil && node.Lit != nil {
		lit = node.Lit
	}
	sum := ip.store.Get(edge.Callee)
	if lit == nil && sum == nil {
		return false
	}

	// The callee expression: receivers and function values are uses.
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		a.expr(fun.X, fact, p, false)
	case *ast.Ident:
		// plain callee name carries no workspace
	default:
		a.expr(call.Fun, fact, p, false)
	}

	// Capture effects of a bound closure apply at its call sites.
	if lit != nil {
		for obj := range a.referencedIn(lit.Body) {
			if a.tracked[obj] == nil {
				continue
			}
			a.applyWsEffect(obj, ip.capEffect(lit, obj), fact, p, call.Pos())
		}
	}

	base := 0
	if sum != nil && sum.Recv {
		base = 1
	}
	for i, arg := range call.Args {
		id, isIdent := ast.Unparen(arg).(*ast.Ident)
		var obj types.Object
		if isIdent {
			obj = a.p.ObjectOf(id)
		}
		if obj == nil || a.tracked[obj] == nil {
			a.expr(arg, fact, p, true)
			continue
		}
		if sum == nil || base+i >= len(sum.Params) {
			a.expr(arg, fact, p, true)
			continue
		}
		ps := sum.Param(base + i)
		a.applyWsEffect(obj, objEffect{
			relAlways: ps.ReleasesAlways,
			relMay:    ps.ReleasesMay,
			escapes:   ps.Escapes,
		}, fact, p, arg.Pos())
	}
	return true
}

// applyWsEffect folds one callee-side effect on a tracked workspace into
// the caller's state.
func (a *wsFunc) applyWsEffect(obj types.Object, eff objEffect, fact wsState, p *Pass, pos token.Pos) {
	st := fact[obj]
	if st&wsEsc != 0 {
		return
	}
	switch {
	case eff.relAlways:
		if p != nil && st&wsRel != 0 {
			p.Reportf(pos, "workspace %s may already be released here; a double release poisons the pool", a.tracked[obj].name)
		}
		fact[obj] = (st | wsRel) &^ wsAcq
	case eff.escapes || eff.relMay:
		// A partial release is as bad as an escape for local reasoning:
		// the caller can no longer know whether it still owns the value.
		fact[obj] = st | wsEsc
	default:
		if p != nil && st&wsRel != 0 {
			p.Reportf(pos, "workspace %s is used after ReleaseWorkspace; the pool may already have handed it to another goroutine", a.tracked[obj].name)
		}
	}
}

// callOnlyBinding reports whether lit is bound to a variable whose every
// use is a call (so the literal in value position is not an escape).
func (a *wsFunc) callOnlyBinding(lit *ast.FuncLit) bool {
	ip := a.p.ip
	if ip == nil || ip.graph == nil {
		return false
	}
	for obj, l := range ip.graph.Bindings {
		if l == lit && ip.graph.CallOnly[obj] {
			return true
		}
	}
	return false
}

// deferSummaryFacts classifies one deferred call interprocedurally:
// rel holds tracked objects the deferred work always releases (folded into
// wsSite.defRel), esc holds objects it may retain or only partially
// release. ok is false when the call resolves to nothing — the caller
// falls back to the conservative escape walk.
func (a *wsFunc) deferSummaryFacts(call *ast.CallExpr) (rel, esc map[types.Object]bool, ok bool) {
	ip := a.p.ip
	if ip == nil || ip.graph == nil {
		return nil, nil, false
	}
	rel = map[types.Object]bool{}
	esc = map[types.Object]bool{}

	lit, _ := ast.Unparen(call.Fun).(*ast.FuncLit)
	var sum *cfg.Summary
	if e, found := ip.graph.Sites[call]; found && e.Callee != "" && e.Kind != callgraph.KindUnknown {
		if node := ip.graph.ByKey[e.Callee]; node != nil && node.Lit != nil {
			lit = node.Lit
		} else {
			sum = ip.store.Get(e.Callee)
		}
	}
	if lit == nil && sum == nil {
		return nil, nil, false
	}

	if lit != nil {
		for obj := range a.referencedIn(lit.Body) {
			if a.tracked[obj] == nil {
				continue
			}
			eff := ip.capEffect(lit, obj)
			switch {
			case eff.relAlways:
				rel[obj] = true
			case eff.escapes:
				esc[obj] = true
				// A may-release keeps the obligation alive: neither
				// discharged nor escaped, so the exit check still fires.
			}
		}
		for _, arg := range call.Args {
			for obj := range a.referenced(arg) {
				esc[obj] = true
			}
		}
		return rel, esc, true
	}

	base := 0
	if sum.Recv {
		base = 1
		if sel, selOK := ast.Unparen(call.Fun).(*ast.SelectorExpr); selOK {
			for obj := range a.referenced(sel.X) {
				if sum.Param(0).ReleasesAlways {
					rel[obj] = true
				} else if sum.Param(0).Escapes {
					esc[obj] = true
				}
			}
		}
	}
	for i, arg := range call.Args {
		id, isIdent := ast.Unparen(arg).(*ast.Ident)
		var obj types.Object
		if isIdent {
			obj = a.p.ObjectOf(id)
		}
		if obj == nil || a.tracked[obj] == nil {
			for o := range a.referenced(arg) {
				esc[o] = true
			}
			continue
		}
		ps := sum.Param(base + i)
		switch {
		case ps.ReleasesAlways:
			rel[obj] = true
		case ps.Escapes, base+i >= len(sum.Params):
			esc[obj] = true
		}
	}
	return rel, esc, true
}

// referenced returns the tracked objects mentioned anywhere under n,
// closure bodies included.
func (a *wsFunc) referenced(n ast.Node) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok {
			if obj := a.p.ObjectOf(id); obj != nil && a.tracked[obj] != nil {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

func (a *wsFunc) referencedIn(body *ast.BlockStmt) map[types.Object]bool {
	return a.referenced(body)
}

// releaseTarget returns the tracked variable released by call
// (ReleaseWorkspace(v)), or nil.
func (a *wsFunc) releaseTarget(call *ast.CallExpr) types.Object {
	id := calleeIdent(call)
	if id == nil || id.Name != "ReleaseWorkspace" || len(call.Args) != 1 {
		return nil
	}
	arg, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return nil
	}
	return a.p.ObjectOf(arg)
}

// wsAcquireCall returns e as an AcquireWorkspace call, or nil.
func wsAcquireCall(e ast.Expr) *ast.CallExpr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return nil
	}
	id := calleeIdent(call)
	if id == nil || id.Name != "AcquireWorkspace" {
		return nil
	}
	return call
}

// wsCallQual returns the package qualifier the acquire call was spelled
// with ("route." for route.AcquireWorkspace, "" for a same-package call),
// so an inserted release matches the file's imports.
func wsCallQual(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if x, ok := sel.X.(*ast.Ident); ok {
			return x.Name + "."
		}
	}
	return ""
}

func wsCopyState(f wsState) wsState {
	out := make(wsState, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

func wsJoinState(a, b wsState) wsState {
	out := wsCopyState(a)
	for k, v := range b {
		out[k] |= v
	}
	return out
}

func wsEqualState(a, b wsState) bool {
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	for k, v := range b {
		if a[k] != v {
			return false
		}
	}
	return true
}
