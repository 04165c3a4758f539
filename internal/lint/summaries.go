package lint

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/callgraph"
	"repro/internal/lint/cfg"
)

// This file computes function-effect summaries (cfg.Summary) bottom-up
// over the package call graph: Tarjan SCCs are processed callee-first, and
// each SCC iterates to a fixed point so (mutual) recursion converges.
// Must-facts start optimistic (true) and can only decay; may-facts start
// false and can only grow; NoReturn starts true and can only decay — one
// global monotone direction, so the iteration terminates.
//
// The same machinery doubles as the analyzers' call-site resolver: given a
// call expression, ipResolver finds the callee's summary, and given a
// function literal bound to a local variable it computes the literal's
// effect on a captured object (capEffect), which is how "the cleanup
// closure stops the journal" stops being an escape.

// hardNoReturn are well-known functions that never return normally.
var hardNoReturn = map[string]bool{
	"builtin.panic":  true,
	"os.Exit":        true,
	"runtime.Goexit": true,
	"log.Fatal":      true,
	"log.Fatalf":     true,
	"log.Fatalln":    true,
}

// summarizePackage builds cp's call graph, computes a summary for every
// function body (closures included), and publishes them in store. The
// graph is retained on cp for the analyzers' resolver.
func summarizePackage(cp *checkedPackage, store *cfg.Store) {
	g := callgraph.Build(cp.path, cp.files, cp.info)
	cp.graph = g

	hot := map[*ast.FuncDecl]bool{}
	for _, f := range cp.files {
		for fn := range hotFuncs(cp.fset, f) {
			hot[fn] = true
		}
	}
	inHotPkg := pathHasSuffix(cp.path, hotPackages...)
	pseudo := &Pass{Fset: cp.fset, Info: cp.info}
	checked := func(n *callgraph.Node) bool {
		decl := enclosingDecl(n)
		if decl == nil {
			return false
		}
		if !inHotPkg && !hot[decl] {
			return false
		}
		fn := flowFunc{decl: decl, lit: n.Lit, typ: decl.Type, body: n.Body()}
		if n.Lit != nil {
			fn.typ = n.Lit.Type
		}
		return snapWsInScope(pseudo, fn)
	}

	r := &ipResolver{info: cp.info, graph: g, store: store, active: map[*ast.FuncLit]bool{}}
	for _, scc := range g.SCCs() {
		for _, n := range scc {
			store.Put(n.Key, optimisticSummary(n))
		}
		for iter := 0; ; iter++ {
			changed := false
			for _, n := range scc {
				ns := r.summarizeNode(n, checked(n))
				if !ns.Equal(store.Get(n.Key)) {
					store.Put(n.Key, ns)
					changed = true
				}
			}
			if !changed {
				break
			}
			if iter >= 32 {
				// Safety valve: should be unreachable given monotonicity,
				// but a bug here must degrade to "conservative", never
				// spin or over-claim.
				for _, n := range scc {
					store.Put(n.Key, conservativeSummary(n))
				}
				break
			}
		}
	}
}

// enclosingDecl walks a node's parent chain to the declaration hosting it.
func enclosingDecl(n *callgraph.Node) *ast.FuncDecl {
	for n != nil {
		if n.Decl != nil {
			return n.Decl
		}
		n = n.Parent
	}
	return nil
}

// nodeParamObjs returns the receiver (for methods) followed by the
// parameter objects of n, in declaration order; nil entries stand for
// unnamed parameters.
func nodeParamObjs(n *callgraph.Node, info *types.Info) (objs []types.Object, hasRecv bool) {
	addField := func(f *ast.Field) {
		if len(f.Names) == 0 {
			objs = append(objs, nil)
			return
		}
		for _, name := range f.Names {
			var obj types.Object
			if info != nil {
				obj = info.Defs[name]
			}
			objs = append(objs, obj)
		}
	}
	var typ *ast.FuncType
	if n.Decl != nil {
		typ = n.Decl.Type
		if n.Decl.Recv != nil && len(n.Decl.Recv.List) > 0 {
			hasRecv = true
			addField(n.Decl.Recv.List[0])
		}
	} else {
		typ = n.Lit.Type
	}
	if typ.Params != nil {
		for _, f := range typ.Params.List {
			addField(f)
		}
	}
	return objs, hasRecv
}

// optimisticSummary is the SCC iteration's starting point: must-facts
// true, may-facts false.
func optimisticSummary(n *callgraph.Node) *cfg.Summary {
	objs, hasRecv := nodeParamObjs(n, nil)
	sum := &cfg.Summary{Recv: hasRecv, StampsAlways: true, NoReturn: true}
	for range objs {
		sum.Params = append(sum.Params, cfg.ParamSummary{StopsJournalAlways: true})
	}
	return sum
}

// conservativeSummary claims nothing and escapes everything — the safe
// bailout value.
func conservativeSummary(n *callgraph.Node) *cfg.Summary {
	objs, hasRecv := nodeParamObjs(n, nil)
	sum := &cfg.Summary{Recv: hasRecv, ReadsUnstamped: true}
	for range objs {
		sum.Params = append(sum.Params, cfg.ParamSummary{Escapes: true})
	}
	return sum
}

// summarizeNode computes one node's summary from its body against the
// store's current view of every callee.
func (r *ipResolver) summarizeNode(n *callgraph.Node, checked bool) *cfg.Summary {
	objs, hasRecv := nodeParamObjs(n, r.info)
	res := r.bodyEffects(n.Body(), objs)
	sum := &cfg.Summary{Recv: hasRecv, Params: make([]cfg.ParamSummary, len(objs))}
	for i, eff := range res.effs {
		sum.Params[i] = cfg.ParamSummary{
			Escapes:            eff.escapes,
			StopsJournalAlways: eff.stopAlways,
			StopsJournalMay:    eff.stopMay,
			OpensJournal:       eff.opens,
		}
	}
	sum.StampsAlways = res.stampsAlways
	sum.ReadsUnstamped = res.readsUnstamped && !isObsMapMethod(n)
	sum.Checked = checked
	sum.NoReturn = res.noReturn
	return sum
}

// isObsMapMethod reports whether n is a method of the obstacle map itself:
// ObsMap's internals read their own bits by design, and those reads are
// the protocol's implementation, not violations to propagate to callers.
func isObsMapMethod(n *callgraph.Node) bool {
	if n.Decl == nil || n.Decl.Recv == nil || len(n.Decl.Recv.List) == 0 {
		return false
	}
	return recvAstTypeName(n.Decl.Recv.List[0].Type) == "ObsMap"
}

func recvAstTypeName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return recvAstTypeName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// ipResolver resolves call sites against the summary store and computes
// body/capture effects. One resolver serves both the summary fixpoint and
// the analyzers of a package.
type ipResolver struct {
	info  *types.Info
	graph *callgraph.Graph
	store *cfg.Store
	// active guards capEffect against cycles through self-referential
	// closure bindings.
	active map[*ast.FuncLit]bool
}

// calleeSummary returns the summary of call's resolved synchronous
// callee, or nil (unknown edge, go/defer statement, or no summary yet).
func (r *ipResolver) calleeSummary(call *ast.CallExpr) *cfg.Summary {
	if r == nil || r.graph == nil {
		return nil
	}
	e, ok := r.graph.Sites[call]
	if !ok || e.Kind != callgraph.KindCall || e.Callee == "" {
		return nil
	}
	return r.store.Get(e.Callee)
}

// calleeKey returns the callgraph key of call's resolved synchronous
// callee, or "".
func (r *ipResolver) calleeKey(call *ast.CallExpr) string {
	if r == nil || r.graph == nil {
		return ""
	}
	e, ok := r.graph.Sites[call]
	if !ok || e.Kind != callgraph.KindCall {
		return ""
	}
	return e.Callee
}

// boundLit returns the literal bound to obj when every call through obj is
// a visible call site.
func (r *ipResolver) boundLit(obj types.Object) *ast.FuncLit {
	if r == nil || r.graph == nil || !r.graph.CallOnly[obj] {
		return nil
	}
	return r.graph.Bindings[obj]
}

// objEffect is a function body's effect on one object (a parameter, or a
// variable captured by a closure).
type objEffect struct {
	escapes             bool
	stopAlways, stopMay bool
	opens               bool
}

// capEffect computes lit's effect on captured object obj. A cycle (a
// closure reachable from itself through bindings) degrades to escape.
func (r *ipResolver) capEffect(lit *ast.FuncLit, obj types.Object) objEffect {
	if r.active[lit] {
		return objEffect{escapes: true}
	}
	r.active[lit] = true
	defer delete(r.active, lit)
	res := r.bodyEffects(lit.Body, []types.Object{obj})
	return res.effs[0]
}

type bodyResult struct {
	effs           []objEffect
	stampsAlways   bool
	readsUnstamped bool
	noReturn       bool
}

// ipFact is the dataflow fact: per-target bitmasks (bit i = targets[i])
// plus the must-stamped bit. stop is a must-fact (intersection at joins),
// the rest are may-facts (union).
type ipFact struct {
	stop, stopMay uint64
	open, esc     uint64
	stamped       bool
}

// bodyEffects runs the effect dataflow over body for the given target
// objects (at most 64; extras get a conservative escape).
func (r *ipResolver) bodyEffects(body *ast.BlockStmt, targets []types.Object) bodyResult {
	res := bodyResult{effs: make([]objEffect, len(targets))}
	bit := map[types.Object]uint64{}
	for i, obj := range targets {
		if obj == nil {
			continue
		}
		if i >= 64 {
			res.effs[i] = objEffect{escapes: true}
			continue
		}
		bit[obj] = 1 << uint(i)
	}

	s := &ipScan{r: r, bit: bit}
	g := cfg.New(body)
	r.pruneNoReturn(g)

	// Deferred statements execute at exit on every path; classify them
	// once, fold their effects into the exit fact, and skip them during
	// the per-block walk.
	var deferStop, deferEsc uint64
	inspectShallow(body, func(n ast.Node) bool {
		d, ok := n.(*ast.DeferStmt)
		if !ok {
			return true
		}
		stop, esc := s.deferEffects(d.Call)
		deferStop |= stop
		deferEsc |= esc
		return true
	})

	facts := cfg.Solve(g, cfg.Problem[ipFact]{
		Entry: ipFact{},
		Transfer: func(b *cfg.Block, in ipFact) ipFact {
			out := in
			for _, n := range b.Nodes {
				s.node(n, &out)
			}
			return out
		},
		Join: func(a, b ipFact) ipFact {
			return ipFact{
				stop: a.stop & b.stop, stopMay: a.stopMay | b.stopMay,
				open: a.open | b.open, esc: a.esc | b.esc,
				stamped: a.stamped && b.stamped,
			}
		},
		Equal: func(a, b ipFact) bool { return a == b },
	})

	exitReached := false
	for _, b := range g.RPO() {
		if b == g.Exit {
			exitReached = true
		}
	}
	res.noReturn = !exitReached

	// Replay with the collector on to find un-stamped obstacle reads.
	s.collect = &res
	for _, b := range g.RPO() {
		fact := facts[b.Index]
		for _, n := range b.Nodes {
			s.node(n, &fact)
		}
	}
	s.collect = nil

	exit := facts[g.Exit.Index]
	exit.stop |= deferStop
	exit.stopMay |= deferStop
	exit.open &^= deferStop
	exit.esc |= deferEsc
	res.stampsAlways = exit.stamped && exitReached
	for i := range targets {
		if i >= 64 {
			break
		}
		m := uint64(1) << uint(i)
		if targets[i] == nil {
			continue
		}
		res.effs[i] = objEffect{
			escapes:    exit.esc&m != 0,
			stopAlways: exit.stop&m != 0 && exitReached,
			stopMay:    exit.stopMay&m != 0,
			opens:      exit.open&m != 0,
		}
	}
	return res
}

// pruneNoReturn detaches the successors of blocks that call a function
// known not to return, so paths through panics and exits stop feeding the
// exit join.
func (r *ipResolver) pruneNoReturn(g *cfg.Graph) {
	for _, b := range g.Blocks {
		cut := false
		for _, nd := range b.Nodes {
			if r.nodeNoReturn(nd) {
				cut = true
				break
			}
		}
		if !cut {
			continue
		}
		for _, s := range b.Succs {
			s.Preds = removeBlock(s.Preds, b)
		}
		b.Succs = nil
	}
}

func removeBlock(list []*cfg.Block, b *cfg.Block) []*cfg.Block {
	out := list[:0]
	for _, x := range list {
		if x != b {
			out = append(out, x)
		}
	}
	return out
}

// nodeNoReturn reports whether executing n always reaches a non-returning
// call.
func (r *ipResolver) nodeNoReturn(n ast.Node) bool {
	if r.graph == nil {
		return false
	}
	found := false
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		e, ok := r.graph.Sites[call]
		if !ok || e.Kind != callgraph.KindCall || e.Callee == "" {
			return true
		}
		if hardNoReturn[e.Callee] {
			found = true
			return false
		}
		if sum := r.store.Get(e.Callee); sum != nil && sum.NoReturn {
			found = true
			return false
		}
		return true
	})
	return found
}

// ipScan interprets AST nodes against an ipFact. collect is non-nil only
// during the reporting replay.
type ipScan struct {
	r       *ipResolver
	bit     map[types.Object]uint64
	collect *bodyResult
}

func (s *ipScan) objBit(e ast.Expr) uint64 {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || s.r.info == nil {
		return 0
	}
	obj := s.r.info.ObjectOf(id)
	if obj == nil {
		return 0
	}
	return s.bit[obj]
}

// node interprets one CFG node.
func (s *ipScan) node(n ast.Node, fact *ipFact) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			s.expr(rhs, fact, true)
		}
		for _, lhs := range n.Lhs {
			if _, ok := lhs.(*ast.Ident); ok {
				continue
			}
			s.expr(lhs, fact, false)
		}
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			if vs, ok := spec.(*ast.ValueSpec); ok {
				for _, v := range vs.Values {
					s.expr(v, fact, true)
				}
			}
		}
	case *ast.ExprStmt:
		s.expr(n.X, fact, false)
	case *ast.DeferStmt:
		// Folded into the exit fact by bodyEffects.
	case *ast.GoStmt:
		// Asynchronous: no synchronous effect can be credited, and the
		// spawned goroutine may retain everything it mentions.
		fact.esc |= s.referencedMask(n.Call)
	case *ast.ReturnStmt:
		for _, res := range n.Results {
			s.expr(res, fact, true)
		}
	case *ast.SendStmt:
		s.expr(n.Chan, fact, false)
		s.expr(n.Value, fact, true)
	case *ast.IncDecStmt:
		s.expr(n.X, fact, false)
	case ast.Expr:
		s.expr(n, fact, false)
	}
}

// referencedMask returns the bits of every target mentioned anywhere under
// n, closure bodies included.
func (s *ipScan) referencedMask(n ast.Node) uint64 {
	var m uint64
	ast.Inspect(n, func(x ast.Node) bool {
		if id, ok := x.(*ast.Ident); ok {
			if s.r.info != nil {
				if obj := s.r.info.ObjectOf(id); obj != nil {
					m |= s.bit[obj]
				}
			}
		}
		return true
	})
	return m
}

// expr walks an expression, applying call effects and recording escapes.
func (s *ipScan) expr(e ast.Expr, fact *ipFact, escaping bool) {
	switch e := e.(type) {
	case nil:
	case *ast.Ident:
		if escaping {
			fact.esc |= s.objBit(e)
		}
	case *ast.ParenExpr:
		s.expr(e.X, fact, escaping)
	case *ast.StarExpr:
		s.expr(e.X, fact, escaping)
	case *ast.UnaryExpr:
		s.expr(e.X, fact, escaping || e.Op.String() == "&")
	case *ast.SelectorExpr:
		s.expr(e.X, fact, false)
	case *ast.CallExpr:
		s.call(e, fact)
	case *ast.FuncLit:
		s.funcLit(e, fact)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			s.expr(el, fact, true)
		}
	case *ast.KeyValueExpr:
		s.expr(e.Key, fact, false)
		s.expr(e.Value, fact, escaping)
	case *ast.BinaryExpr:
		s.expr(e.X, fact, false)
		s.expr(e.Y, fact, false)
	case *ast.IndexExpr:
		s.expr(e.X, fact, escaping)
		s.expr(e.Index, fact, false)
	case *ast.SliceExpr:
		s.expr(e.X, fact, escaping)
	case *ast.TypeAssertExpr:
		s.expr(e.X, fact, escaping)
	default:
		fact.esc |= s.referencedMask(e)
	}
}

// funcLit handles a literal in value position: a call-only bound literal
// defers its capture effects to the visible call sites; anything else may
// run anywhere, so captures escape.
func (s *ipScan) funcLit(lit *ast.FuncLit, fact *ipFact) {
	if s.r.graph != nil {
		for obj, l := range s.r.graph.Bindings {
			if l == lit && s.r.graph.CallOnly[obj] {
				return
			}
		}
	}
	fact.esc |= s.referencedMask(lit.Body)
}

// typeNameOf names the (pointer-unwrapped) named type of e.
func (s *ipScan) typeNameOf(e ast.Expr) string {
	if s.r.info == nil {
		return ""
	}
	return namedTypeName(s.r.info.TypeOf(e))
}

// call interprets one synchronous call site.
func (s *ipScan) call(call *ast.CallExpr, fact *ipFact) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		recvType := s.typeNameOf(sel.X)
		// Journal protocol on a target ObsMap.
		if recvType == "ObsMap" {
			if m := s.objBit(sel.X); m != 0 {
				switch sel.Sel.Name {
				case "StartJournal":
					fact.open |= m
					for _, a := range call.Args {
						s.expr(a, fact, true)
					}
					return
				case "StopJournal":
					fact.stop |= m
					fact.stopMay |= m
					fact.open &^= m
					return
				case "RewindJournal", "JournalLen", "Journaling":
					for _, a := range call.Args {
						s.expr(a, fact, false)
					}
					return
				}
			}
			if sel.Sel.Name == "Blocked" && !fact.stamped && s.collect != nil {
				s.collect.readsUnstamped = true
			}
		}
		// Visit stamps raise the must-stamped bit.
		if recvType == "Workspace" && snapStampMethods[sel.Sel.Name] {
			fact.stamped = true
			s.expr(sel.X, fact, false)
			for _, a := range call.Args {
				s.expr(a, fact, false)
			}
			return
		}
	}

	// Immediately-invoked literal: capture effects apply here.
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		s.applyLitCall(lit, call, fact)
		return
	}

	var edge callgraph.Edge
	resolved := false
	if s.r.graph != nil {
		edge, resolved = s.r.graph.Sites[call]
	}
	if resolved && edge.Callee != "" && edge.Kind != callgraph.KindUnknown {
		if node := s.r.graph.ByKey[edge.Callee]; node != nil && node.Lit != nil {
			// Call through a closure binding.
			s.applyLitCall(node.Lit, call, fact)
			return
		}
		if sum := s.r.store.Get(edge.Callee); sum != nil {
			s.applySummary(sum, call, fact)
			return
		}
	}

	// Unknown callee (or no summary): receiver is a use, arguments escape.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		s.expr(sel.X, fact, false)
	} else if _, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok {
		s.expr(call.Fun, fact, false)
	}
	for _, a := range call.Args {
		s.expr(a, fact, true)
	}
}

// applyLitCall applies a literal's capture effects plus its parameter
// summary to one call of it.
func (s *ipScan) applyLitCall(lit *ast.FuncLit, call *ast.CallExpr, fact *ipFact) {
	for obj, m := range s.bit {
		if !objReferencedIn(s.r.info, lit.Body, obj) {
			continue
		}
		eff := s.r.capEffect(lit, obj)
		s.applyEffect(eff, m, fact)
	}
	var litSum *cfg.Summary
	if s.r.graph != nil {
		if key := s.r.graph.LitKey[lit]; key != "" {
			litSum = s.r.store.Get(key)
		}
	}
	s.applyArgs(litSum, call.Args, 0, fact)
	if litSum != nil {
		s.applyCalleeGlobal(litSum, fact)
	}
}

// applySummary applies a declared callee's summary at one call site.
func (s *ipScan) applySummary(sum *cfg.Summary, call *ast.CallExpr, fact *ipFact) {
	argBase := 0
	if sum.Recv {
		argBase = 1
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if m := s.objBit(sel.X); m != 0 {
				s.applyEffect(paramToEffect(sum.Param(0)), m, fact)
			} else {
				s.expr(sel.X, fact, false)
			}
		}
	}
	s.applyArgs(sum, call.Args, argBase, fact)
	s.applyCalleeGlobal(sum, fact)
}

// applyArgs maps arguments onto callee parameter summaries; arguments
// beyond the summarized parameters (variadic tails) escape.
func (s *ipScan) applyArgs(sum *cfg.Summary, args []ast.Expr, base int, fact *ipFact) {
	for i, a := range args {
		m := s.objBit(a)
		if m == 0 {
			s.expr(a, fact, true)
			continue
		}
		if sum == nil || base+i >= len(sum.Params) {
			fact.esc |= m
			continue
		}
		s.applyEffect(paramToEffect(sum.Param(base+i)), m, fact)
	}
}

// applyCalleeGlobal applies a callee's global (non-parameter) effects.
func (s *ipScan) applyCalleeGlobal(sum *cfg.Summary, fact *ipFact) {
	if sum.ReadsUnstamped && !fact.stamped && s.collect != nil {
		s.collect.readsUnstamped = true
	}
	if sum.StampsAlways {
		fact.stamped = true
	}
}

func paramToEffect(p cfg.ParamSummary) objEffect {
	return objEffect{
		escapes:    p.Escapes,
		stopAlways: p.StopsJournalAlways,
		stopMay:    p.StopsJournalMay,
		opens:      p.OpensJournal,
	}
}

// applyEffect folds one callee-side object effect into the caller fact
// for the targets in mask m.
func (s *ipScan) applyEffect(eff objEffect, m uint64, fact *ipFact) {
	if eff.escapes {
		fact.esc |= m
	}
	if eff.stopAlways {
		fact.stop |= m
	}
	if eff.stopAlways || eff.stopMay {
		fact.stopMay |= m
		// Optimistic: a may-stop (the conditional-ownership pattern)
		// clears the open bit rather than leaving a spurious leak.
		fact.open &^= m
	}
	if eff.opens {
		fact.open |= m
	}
}

// deferEffects classifies one deferred call into exit-time masks:
// must-stop-journal and escapes.
func (s *ipScan) deferEffects(call *ast.CallExpr) (stop, esc uint64) {
	// defer t.StopJournal()
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s.typeNameOf(sel.X) == "ObsMap" && sel.Sel.Name == "StopJournal" {
			if m := s.objBit(sel.X); m != 0 {
				return m, 0
			}
		}
	}
	// defer func(){...}() or defer boundClosure()
	lit, _ := ast.Unparen(call.Fun).(*ast.FuncLit)
	if lit == nil && s.r.graph != nil {
		if e, ok := s.r.graph.Sites[call]; ok && e.Callee != "" {
			if node := s.r.graph.ByKey[e.Callee]; node != nil && node.Lit != nil {
				lit = node.Lit
			}
		}
	}
	if lit != nil {
		for obj, m := range s.bit {
			if !objReferencedIn(s.r.info, lit.Body, obj) {
				continue
			}
			eff := s.r.capEffect(lit, obj)
			switch {
			case eff.stopAlways:
				stop |= m
			case eff.escapes || eff.stopMay || eff.opens:
				esc |= m
			}
		}
		// Arguments of the deferred call are evaluated at the defer
		// statement and retained until exit.
		for _, a := range call.Args {
			esc |= s.referencedMask(a)
		}
		return stop, esc
	}
	// defer knownCallee(..., t, ...)
	var sum *cfg.Summary
	if s.r.graph != nil {
		if e, ok := s.r.graph.Sites[call]; ok && e.Callee != "" && e.Kind == callgraph.KindDefer {
			sum = s.r.store.Get(e.Callee)
		}
	}
	if sum != nil {
		base := 0
		if sum.Recv {
			base = 1
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if m := s.objBit(sel.X); m != 0 {
					stop, esc = foldDeferParam(sum.Param(0), m, stop, esc)
				}
			}
		}
		for i, a := range call.Args {
			m := s.objBit(a)
			if m == 0 {
				esc |= s.referencedMask(a)
				continue
			}
			if base+i >= len(sum.Params) {
				esc |= m
				continue
			}
			stop, esc = foldDeferParam(sum.Param(base+i), m, stop, esc)
		}
		return stop, esc
	}
	return 0, s.referencedMask(call)
}

func foldDeferParam(p cfg.ParamSummary, m, stop, esc uint64) (uint64, uint64) {
	switch {
	case p.StopsJournalAlways:
		stop |= m
	case p.Escapes || p.StopsJournalMay || p.OpensJournal:
		esc |= m
	}
	return stop, esc
}

// objReferencedIn reports whether obj is mentioned under n.
func objReferencedIn(info *types.Info, n ast.Node, obj types.Object) bool {
	if info == nil {
		return false
	}
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && info.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}
