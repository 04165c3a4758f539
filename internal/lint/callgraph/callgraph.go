// Package callgraph builds a static, per-package call graph over
// already-type-checked ASTs, the substrate for pacorvet's interprocedural
// summary engine. Nodes are declared functions, methods, and function
// literals (closures are first-class graph nodes rather than opaque
// values); edges are resolved call sites. Direct calls and concrete method
// calls resolve through go/types; calls through interfaces, function
// values, and method expressions are recorded as conservative unknown
// edges. A local variable assigned exactly one FuncLit and never written
// again binds calls through that variable to the literal's node, so the
// common "done := func(){...}; ...; done()" pattern stays precise.
//
// The graph is intra-package: edges to functions in other packages carry
// the callee's stable key (see FuncKey) but no Node; callers resolve those
// keys against previously computed summaries of the dependency packages.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
)

// EdgeKind classifies how a call site transfers control.
type EdgeKind uint8

const (
	// KindCall is an ordinary synchronous call.
	KindCall EdgeKind = iota
	// KindGo is a `go` statement: the callee runs asynchronously, so
	// synchronous effects (a journal stop before return) cannot be credited to
	// the caller's paths.
	KindGo
	// KindDefer is a deferred call: the callee runs at function exit on
	// every path, panics included.
	KindDefer
	// KindUnknown is an unresolvable call — through an interface, a
	// function value of unknown origin, or a method expression. Analyses
	// must treat arguments as escaping.
	KindUnknown
)

// An Edge is one call site.
type Edge struct {
	// Kind classifies the transfer; Callee is empty iff Kind is
	// KindUnknown.
	Kind EdgeKind
	// Callee is the target's stable key (FuncKey for declared functions,
	// the parent-derived key for literals). It may name a function in
	// another package or the standard library.
	Callee string
	// Site is the call expression.
	Site *ast.CallExpr
}

// A Node is one function body in the package: a declaration or a literal.
type Node struct {
	// Key identifies the node: FuncKey for declarations,
	// "<parentKey>$<n>" for the n-th literal (preorder) inside its parent.
	Key string
	// Decl is the declaration; nil for literals.
	Decl *ast.FuncDecl
	// Lit is the literal; nil for declarations.
	Lit *ast.FuncLit
	// Parent is the enclosing node for literals, nil for declarations.
	Parent *Node
	// Edges are the node's resolved call sites in source order. Calls
	// inside nested literals belong to the literal's own node.
	Edges []Edge
}

// Body returns the node's function body.
func (n *Node) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// A Graph is the call graph of one package.
type Graph struct {
	// Package is the import path the graph was built for.
	Package string
	// Nodes lists every function body in deterministic order: declarations
	// in file order, each followed by its literals in preorder.
	Nodes []*Node
	// ByKey indexes Nodes.
	ByKey map[string]*Node
	// Sites maps every call expression seen in a node body to its edge.
	Sites map[*ast.CallExpr]Edge
	// Bindings maps local variables assigned exactly one FuncLit (and
	// never reassigned or address-taken) to that literal.
	Bindings map[types.Object]*ast.FuncLit
	// CallOnly reports that a bound variable is used exclusively in call
	// position, so every invocation of the literal is a visible call site
	// and its captured-variable effects apply only there.
	CallOnly map[types.Object]bool
	// LitKey maps each function literal to its node key.
	LitKey map[*ast.FuncLit]string
}

// FuncKey returns the stable cross-package key of a declared function or
// method: "path.Name" for package functions, "path.(Recv).Name" for
// methods (pointerness of the receiver is ignored — a type has one method
// of a given name).
func FuncKey(fn *types.Func) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return fn.Pkg().Path() + ".(" + recvTypeName(sig.Recv().Type()) + ")." + fn.Name()
	}
	return fn.Pkg().Path() + "." + fn.Name()
}

// recvTypeName names the receiver's base type.
func recvTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t := t.(type) {
	case *types.Named:
		return t.Obj().Name()
	case *types.Interface:
		return "interface"
	}
	return t.String()
}

// Build constructs the call graph of one package from its parsed files and
// type information. Partially type-checked packages degrade gracefully:
// call sites whose callee object is unknown become unknown edges.
func Build(pkgPath string, files []*ast.File, info *types.Info) *Graph {
	g := &Graph{
		Package:  pkgPath,
		ByKey:    map[string]*Node{},
		Sites:    map[*ast.CallExpr]Edge{},
		Bindings: map[types.Object]*ast.FuncLit{},
		CallOnly: map[types.Object]bool{},
		LitKey:   map[*ast.FuncLit]string{},
	}
	b := &builder{g: g, info: info, pkgPath: pkgPath}

	// Pass 1: nodes. Declarations in file order; literals in preorder
	// inside their nearest enclosing node.
	for _, f := range files {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			root := &Node{Key: b.declKey(fn), Decl: fn}
			b.addNode(root)
			b.liftLits(root)
		}
	}

	// Pass 2: closure bindings (needs every literal's key from pass 1).
	for _, n := range g.Nodes {
		if n.Decl != nil {
			b.bindClosures(n.Decl.Body)
		}
	}

	// Pass 3: edges.
	for _, n := range g.Nodes {
		b.collectEdges(n)
	}
	return g
}

// SCCs returns the strongly connected components of the intra-package
// graph in bottom-up order: every component is emitted after all
// components it calls into, so a caller iterating the result sees callee
// summaries before it needs them. Singleton components are the common
// case; larger ones are (mutual) recursion and need a fixed point.
func (g *Graph) SCCs() [][]*Node {
	t := &tarjan{
		g:     g,
		index: map[*Node]int{},
		low:   map[*Node]int{},
		on:    map[*Node]bool{},
	}
	for _, n := range g.Nodes {
		if _, seen := t.index[n]; !seen {
			t.visit(n)
		}
	}
	return t.sccs
}

// tarjan is the classic linear-time SCC algorithm; components complete in
// reverse topological order of the condensation, exactly the bottom-up
// order the summary engine wants.
type tarjan struct {
	g     *Graph
	next  int
	index map[*Node]int
	low   map[*Node]int
	on    map[*Node]bool
	stack []*Node
	sccs  [][]*Node
}

func (t *tarjan) visit(n *Node) {
	t.index[n] = t.next
	t.low[n] = t.next
	t.next++
	t.stack = append(t.stack, n)
	t.on[n] = true

	for _, e := range n.Edges {
		if e.Callee == "" {
			continue
		}
		m := t.g.ByKey[e.Callee]
		if m == nil {
			continue // cross-package or stdlib: summaries already final
		}
		if _, seen := t.index[m]; !seen {
			t.visit(m)
			if t.low[m] < t.low[n] {
				t.low[n] = t.low[m]
			}
		} else if t.on[m] && t.index[m] < t.low[n] {
			t.low[n] = t.index[m]
		}
	}

	if t.low[n] == t.index[n] {
		var scc []*Node
		for {
			m := t.stack[len(t.stack)-1]
			t.stack = t.stack[:len(t.stack)-1]
			t.on[m] = false
			scc = append(scc, m)
			if m == n {
				break
			}
		}
		t.sccs = append(t.sccs, scc)
	}
}

type builder struct {
	g       *Graph
	info    *types.Info
	pkgPath string
}

func (b *builder) addNode(n *Node) {
	b.g.Nodes = append(b.g.Nodes, n)
	b.g.ByKey[n.Key] = n
	if n.Lit != nil {
		b.g.LitKey[n.Lit] = n.Key
	}
}

// declKey computes the key of a declaration, through go/types when the
// declaration resolved and from syntax otherwise.
func (b *builder) declKey(fn *ast.FuncDecl) string {
	if b.info != nil {
		if obj, ok := b.info.Defs[fn.Name].(*types.Func); ok {
			return FuncKey(obj)
		}
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		return b.pkgPath + ".(" + recvAstName(fn.Recv.List[0].Type) + ")." + fn.Name.Name
	}
	return b.pkgPath + "." + fn.Name.Name
}

func recvAstName(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.StarExpr:
		return recvAstName(e.X)
	case *ast.Ident:
		return e.Name
	case *ast.IndexExpr:
		return recvAstName(e.X)
	case *ast.IndexListExpr:
		return recvAstName(e.X)
	}
	return "?"
}

// liftLits creates a node for every function literal nested under parent's
// body (but not under an intermediate literal — those get the intermediate
// node as parent), preorder, and recurses.
func (b *builder) liftLits(parent *Node) {
	ord := 0
	var lits []*Node
	shallowInspect(parent.Body(), func(m ast.Node) bool {
		if lit, ok := m.(*ast.FuncLit); ok {
			child := &Node{
				Key:    parent.Key + "$" + strconv.Itoa(ord),
				Lit:    lit,
				Parent: parent,
			}
			ord++
			b.addNode(child)
			lits = append(lits, child)
			return false
		}
		return true
	})
	for _, l := range lits {
		b.liftLits(l)
	}
}

// bindClosures finds local variables bound to exactly one function literal
// across the whole declaration body (nested literals included — a binding
// established in the host is callable from a closure and vice versa). A
// variable qualifies when its only assignment is the FuncLit and its
// address is never taken.
func (b *builder) bindClosures(body *ast.BlockStmt) {
	if b.info == nil {
		return
	}
	type cand struct {
		lit     *ast.FuncLit
		writes  int
		addrOf  bool
		nonCall bool // used somewhere other than call position / def site
	}
	cands := map[types.Object]*cand{}
	get := func(id *ast.Ident) *cand {
		obj := b.info.ObjectOf(id)
		if obj == nil {
			return nil
		}
		if _, ok := obj.(*types.Var); !ok {
			return nil
		}
		c := cands[obj]
		if c == nil {
			c = &cand{}
			cands[obj] = c
		}
		return c
	}
	objOf := func(id *ast.Ident) types.Object { return b.info.ObjectOf(id) }

	// First sweep: record writes and the literal (if any) each variable is
	// assigned.
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || id.Name == "_" {
						continue
					}
					c := get(id)
					if c == nil {
						continue
					}
					c.writes++
					if lit, ok := ast.Unparen(n.Rhs[i]).(*ast.FuncLit); ok {
						c.lit = lit
					}
				}
			} else {
				for _, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if c := get(id); c != nil {
							c.writes += 2 // multi-value: never a lone FuncLit
						}
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				c := get(name)
				if c == nil {
					continue
				}
				if i < len(n.Values) && len(n.Names) == len(n.Values) {
					c.writes++
					if lit, ok := ast.Unparen(n.Values[i]).(*ast.FuncLit); ok {
						c.lit = lit
					}
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if id, ok := ast.Unparen(n.X).(*ast.Ident); ok {
					if c := get(id); c != nil {
						c.addrOf = true
					}
				}
			}
		}
		return true
	})

	// Second sweep: any use outside call position or the defining
	// assignment means calls elsewhere may exist (passed as a callback,
	// returned) — the binding still resolves *visible* calls, but CallOnly
	// stays false so capture-effect analyses treat the variable's value as
	// escaping.
	callFun := map[*ast.Ident]bool{}
	defSite := map[*ast.Ident]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok {
				callFun[id] = true
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					defSite[id] = true
				}
			}
		case *ast.ValueSpec:
			for _, name := range n.Names {
				defSite[name] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || callFun[id] || defSite[id] {
			return true
		}
		obj := objOf(id)
		if obj == nil {
			return true
		}
		if c := cands[obj]; c != nil {
			c.nonCall = true
		}
		return true
	})

	for obj, c := range cands {
		if c.lit != nil && c.writes == 1 && !c.addrOf {
			b.g.Bindings[obj] = c.lit
			b.g.CallOnly[obj] = !c.nonCall
		}
	}
}

// collectEdges resolves every call site in n's body (literals excluded —
// they own their calls) into edges.
func (b *builder) collectEdges(n *Node) {
	body := n.Body()
	kinds := map[*ast.CallExpr]EdgeKind{}
	shallowInspect(body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.GoStmt:
			kinds[m.Call] = KindGo
		case *ast.DeferStmt:
			kinds[m.Call] = KindDefer
		}
		return true
	})
	shallowInspect(body, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		kind, isStmt := kinds[call]
		if !isStmt {
			kind = KindCall
		}
		e := b.resolve(call, kind)
		n.Edges = append(n.Edges, e)
		b.g.Sites[call] = e
		return true
	})
}

// resolve classifies one call site.
func (b *builder) resolve(call *ast.CallExpr, kind EdgeKind) Edge {
	if b.info == nil {
		return Edge{Kind: KindUnknown, Site: call}
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := b.info.ObjectOf(fun).(type) {
		case *types.Func:
			return Edge{Kind: kind, Callee: FuncKey(obj), Site: call}
		case *types.Builtin:
			// Only panic matters downstream (may-not-return); the rest of
			// the builtins have no summarizable effects.
			return Edge{Kind: kind, Callee: "builtin." + obj.Name(), Site: call}
		case *types.TypeName:
			return Edge{Kind: kind, Callee: "", Site: call} // conversion, not a call
		case *types.Var:
			if lit := b.g.Bindings[obj]; lit != nil {
				return Edge{Kind: kind, Callee: b.g.LitKey[lit], Site: call}
			}
		}
		return Edge{Kind: KindUnknown, Site: call}
	case *ast.SelectorExpr:
		if sel, ok := b.info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if types.IsInterface(baseType(sel.Recv())) {
					return Edge{Kind: KindUnknown, Site: call} // dynamic dispatch
				}
				if m, ok := sel.Obj().(*types.Func); ok {
					return Edge{Kind: kind, Callee: FuncKey(m), Site: call}
				}
			}
			// Method expression used as a value, or a func-typed field.
			return Edge{Kind: KindUnknown, Site: call}
		}
		// No selection entry: package-qualified reference or a conversion.
		switch obj := b.info.ObjectOf(fun.Sel).(type) {
		case *types.Func:
			return Edge{Kind: kind, Callee: FuncKey(obj), Site: call}
		case *types.TypeName:
			return Edge{Kind: kind, Callee: "", Site: call} // qualified conversion
		}
		return Edge{Kind: KindUnknown, Site: call}
	case *ast.FuncLit:
		return Edge{Kind: kind, Callee: b.g.LitKey[fun], Site: call}
	case *ast.ArrayType, *ast.MapType, *ast.ChanType, *ast.InterfaceType, *ast.StructType, *ast.StarExpr:
		return Edge{Kind: kind, Callee: "", Site: call} // type conversion
	case *ast.IndexExpr, *ast.IndexListExpr:
		// Generic instantiation: resolve the underlying identifier.
		if x, ok := unwrapIndex(fun); ok {
			if obj, ok := b.info.ObjectOf(x).(*types.Func); ok {
				return Edge{Kind: kind, Callee: FuncKey(obj), Site: call}
			}
		}
		return Edge{Kind: KindUnknown, Site: call}
	}
	return Edge{Kind: KindUnknown, Site: call}
}

func unwrapIndex(e ast.Expr) (*ast.Ident, bool) {
	switch e := e.(type) {
	case *ast.IndexExpr:
		id, ok := ast.Unparen(e.X).(*ast.Ident)
		return id, ok
	case *ast.IndexListExpr:
		id, ok := ast.Unparen(e.X).(*ast.Ident)
		return id, ok
	}
	return nil, false
}

func baseType(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// shallowInspect walks n in preorder without descending into function
// literals (mirroring internal/lint's inspectShallow; duplicated to keep
// the dependency arrow pointing from lint to callgraph).
func shallowInspect(n ast.Node, f func(ast.Node) bool) {
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
