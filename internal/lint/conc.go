package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// This file holds the shared machinery of the concurrency analyzers
// (sharedcapture, conchygiene): the summary-side computation
// of concurrency effect bits, and a must-lockset dataflow over function
// bodies. Mutex and WaitGroup types are matched by name (Mutex, RWMutex,
// WaitGroup) so fixtures can declare stand-ins, exactly like the
// Workspace/ObsMap conventions elsewhere in the package.

func isMutexTypeName(s string) bool { return s == "Mutex" || s == "RWMutex" }

// concEffects fills in sum's concurrency-effect bits from n's body,
// folding in the summaries of resolved synchronous callees so the bits
// are transitive. All bits are may-facts and only grow across SCC
// iterations, so the fixed point is preserved.
func (r *ipResolver) concEffects(n *callgraph.Node, objs []types.Object, sum *cfg.Summary) {
	paramIdx := map[types.Object]int{}
	for i, obj := range objs {
		if obj != nil {
			paramIdx[obj] = i
		}
	}
	mark := func(i int, f func(*cfg.ParamSummary)) {
		if i >= 0 && i < len(sum.Params) {
			f(&sum.Params[i])
		}
	}
	paramOf := func(e ast.Expr) int {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = ast.Unparen(u.X)
		}
		id, ok := e.(*ast.Ident)
		if !ok || r.info == nil {
			return -1
		}
		if i, ok := paramIdx[r.info.ObjectOf(id)]; ok {
			return i
		}
		return -1
	}

	inspectShallow(n.Body(), func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			sum.Spawns = true
		case *ast.SendStmt:
			sum.SendsChan = true
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				sum.RecvsChan = true
			}
		case *ast.RangeStmt:
			if r.info != nil {
				if t := r.info.TypeOf(m.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						sum.RecvsChan = true
					}
				}
			}
		case *ast.CallExpr:
			r.concCall(m, sum, mark, paramOf)
		}
		return true
	})

	// Done-on-all-paths is a must-fact: a separate small dataflow per
	// flagged parameter.
	for i := range sum.Params {
		if sum.Params[i].WGDoneMay && objs[i] != nil {
			sum.Params[i].WGDoneAlways = r.doneOnAllPaths(n.Body(), objs[i])
		}
	}
}

// concCall folds one call site into the concurrency bits.
func (r *ipResolver) concCall(call *ast.CallExpr, sum *cfg.Summary, mark func(int, func(*cfg.ParamSummary)), paramOf func(ast.Expr) int) {
	sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if sel != nil && r.info != nil {
		switch namedTypeName(r.info.TypeOf(sel.X)) {
		case "Mutex", "RWMutex":
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				sum.LocksAny = true
				mark(paramOf(sel.X), func(p *cfg.ParamSummary) { p.LocksParam = true })
			case "Unlock", "RUnlock":
				sum.UnlocksAny = true
				mark(paramOf(sel.X), func(p *cfg.ParamSummary) { p.UnlocksParam = true })
			}
		case "WaitGroup":
			switch sel.Sel.Name {
			case "Add":
				sum.WGAdd = true
			case "Done":
				sum.WGDone = true
				mark(paramOf(sel.X), func(p *cfg.ParamSummary) { p.WGDoneMay = true })
			case "Wait":
				sum.WGWait = true
			}
		}
	}

	if r.graph == nil {
		return
	}
	e, ok := r.graph.Sites[call]
	if !ok || e.Callee == "" || e.Kind == callgraph.KindUnknown {
		return
	}
	if e.Kind == callgraph.KindGo {
		sum.Spawns = true
		return // the callee's effects happen on another goroutine
	}
	cs := r.store.Get(e.Callee)
	if cs == nil {
		return
	}
	sum.Spawns = sum.Spawns || cs.Spawns
	sum.LocksAny = sum.LocksAny || cs.LocksAny
	sum.UnlocksAny = sum.UnlocksAny || cs.UnlocksAny
	sum.SendsChan = sum.SendsChan || cs.SendsChan
	sum.RecvsChan = sum.RecvsChan || cs.RecvsChan
	sum.WGAdd = sum.WGAdd || cs.WGAdd
	sum.WGDone = sum.WGDone || cs.WGDone
	sum.WGWait = sum.WGWait || cs.WGWait

	base := 0
	if cs.Recv {
		base = 1
		if sel != nil {
			applyConcParam(cs.Param(0), paramOf(sel.X), mark)
		}
	}
	for i, a := range call.Args {
		applyConcParam(cs.Param(base+i), paramOf(a), mark)
	}
}

func applyConcParam(ps cfg.ParamSummary, idx int, mark func(int, func(*cfg.ParamSummary))) {
	if idx < 0 {
		return
	}
	mark(idx, func(p *cfg.ParamSummary) {
		p.LocksParam = p.LocksParam || ps.LocksParam
		p.UnlocksParam = p.UnlocksParam || ps.UnlocksParam
		p.WGDoneMay = p.WGDoneMay || ps.WGDoneMay
	})
}

// doneOnAllPaths reports whether every terminating path through body calls
// Done on the WaitGroup object wg. A deferred Done counts for every path
// (the framework-wide approximation: defers are folded into the exit, see
// bodyEffects).
func (r *ipResolver) doneOnAllPaths(body *ast.BlockStmt, wg types.Object) bool {
	isDone := func(n ast.Node) bool {
		found := false
		inspectShallow(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && r.info != nil && r.info.ObjectOf(id) == wg {
					found = true
				}
			}
			if cs := r.calleeSummary(call); cs != nil {
				base := 0
				if cs.Recv {
					base = 1
				}
				for i, a := range call.Args {
					if !cs.Param(base + i).WGDoneAlways {
						continue
					}
					e := ast.Unparen(a)
					if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
						e = ast.Unparen(u.X)
					}
					if id, ok := e.(*ast.Ident); ok && r.info != nil && r.info.ObjectOf(id) == wg {
						found = true
					}
				}
			}
			return !found
		})
		return found
	}

	deferred := false
	inspectShallow(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && isDone(d.Call) {
			deferred = true
		}
		return !deferred
	})
	if deferred {
		return true
	}

	g := cfg.New(body)
	facts := cfg.Solve(g, cfg.Problem[bool]{
		Entry: false,
		Transfer: func(b *cfg.Block, in bool) bool {
			done := in
			for _, nd := range b.Nodes {
				if _, isDefer := nd.(*ast.DeferStmt); isDefer {
					continue
				}
				if !done && isDone(nd) {
					done = true
				}
			}
			return done
		},
		Join:  func(a, b bool) bool { return a && b },
		Equal: func(a, b bool) bool { return a == b },
	})
	return facts[g.Exit.Index]
}

// --- must-lockset dataflow ---

// lockset is the set of canonical lock keys definitely held at a program
// point. nil means unreached (top of the must-lattice); an empty non-nil
// set means "reached, nothing held".
type lockset map[string]bool

func (s lockset) clone() lockset {
	if s == nil {
		return nil
	}
	out := make(lockset, len(s))
	for k := range s {
		out[k] = true
	}
	return out
}

func locksEqual(a, b lockset) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// intersect is the must-join: a lock is held at a merge point only when
// held on every incoming path.
func locksIntersect(a, b lockset) lockset {
	if a == nil {
		return b.clone()
	}
	if b == nil {
		return a.clone()
	}
	out := lockset{}
	for k := range a {
		if b[k] {
			out[k] = true
		}
	}
	return out
}

// lockKeyOf canonicalizes a lock operand to a stable key: the root
// object's declaration position followed by the field path ("o123.mu").
// Non-canonical operands (index expressions, call results) yield "" and
// are not tracked.
func lockKeyOf(info *types.Info, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if info == nil {
			return ""
		}
		obj := info.ObjectOf(e)
		if obj == nil {
			return ""
		}
		return "o" + strconv.Itoa(int(obj.Pos()))
	case *ast.SelectorExpr:
		base := lockKeyOf(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return lockKeyOf(info, e.X)
		}
	}
	return ""
}

// lockTransfer applies one CFG node's lock effects to held, in place:
// Lock/RLock on a mutex-typed receiver adds its key, Unlock/RUnlock
// removes it, and a resolved callee transfers its per-parameter
// lock/unlock bits onto canonical arguments. Deferred statements are
// skipped — a deferred unlock runs at exit, so the lock stays held for
// the rest of the body. cond.Wait releases and re-acquires, so the
// must-set is unchanged across it.
func lockTransfer(p *Pass, n ast.Node, held lockset) {
	inspectShallow(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.DeferStmt); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, _ := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if sel != nil && isMutexTypeName(namedTypeName(p.TypeOf(sel.X))) {
			key := lockKeyOf(p.Info, sel.X)
			switch sel.Sel.Name {
			case "Lock", "RLock":
				if key != "" {
					held[key] = true
				}
			case "Unlock", "RUnlock":
				if key != "" {
					delete(held, key)
				}
			}
			return true
		}
		if sum := p.ip.calleeSummary(call); sum != nil {
			base := 0
			if sum.Recv {
				base = 1
				if sel != nil {
					applyLockParam(sum.Param(0), lockKeyOf(p.Info, sel.X), held)
				}
			}
			for i, a := range call.Args {
				applyLockParam(sum.Param(base+i), lockKeyOf(p.Info, a), held)
			}
		}
		return true
	})
}

func applyLockParam(ps cfg.ParamSummary, key string, held lockset) {
	if key == "" {
		return
	}
	// A callee that may unlock kills the must-fact; one that always locks
	// without unlocking establishes it. LocksParam is a may-fact, so it
	// only establishes the lock when the callee never releases it.
	if ps.UnlocksParam {
		delete(held, key)
	} else if ps.LocksParam {
		held[key] = true
	}
}

// lockWalk solves the must-lockset dataflow over body and replays it in
// reverse-postorder, calling visit once per CFG node with the set of locks
// definitely held on entry to that node. visit must not retain held.
func lockWalk(p *Pass, body *ast.BlockStmt, visit func(n ast.Node, held lockset)) {
	g := cfg.New(body)
	facts := cfg.Solve(g, cfg.Problem[lockset]{
		Entry: lockset{},
		Transfer: func(b *cfg.Block, in lockset) lockset {
			held := in.clone()
			if held == nil {
				held = lockset{}
			}
			for _, nd := range b.Nodes {
				lockTransfer(p, nd, held)
			}
			return held
		},
		Join:  locksIntersect,
		Equal: locksEqual,
	})
	for _, b := range g.RPO() {
		held := facts[b.Index].clone()
		if held == nil {
			held = lockset{}
		}
		for _, nd := range b.Nodes {
			visit(nd, held)
			lockTransfer(p, nd, held)
		}
	}
}

// isBarrier reports whether executing n synchronizes the current goroutine
// with goroutines it spawned: a WaitGroup.Wait, a channel receive, or a
// call to a function that waits or receives. Conservatively, any
// channel-typed expression counts (a bare channel operand in a range
// head is a receive) — the conservative direction here is fewer findings,
// never false positives.
func isBarrier(p *Pass, n ast.Node) bool {
	found := false
	inspectShallow(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				found = true
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
				if sel.Sel.Name == "Wait" && namedTypeName(p.TypeOf(sel.X)) == "WaitGroup" {
					found = true
				}
			}
			if sum := p.ip.calleeSummary(m); sum != nil && (sum.WGWait || sum.RecvsChan) {
				found = true
			}
		case ast.Expr:
			if t := p.TypeOf(m); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
