package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"repro/internal/lint/cfg"
)

// AnalyzerMcfPair enforces the min-cost-flow arena contract (see
// internal/mcf): SetCost may only re-price a flow-free graph — fresh,
// Reset, or Committed — because it rewrites the residual arc pair
// wholesale; and DecomposeUnitPaths reads unit flow, so calling it on a
// graph with no flow since the last Commit/Reset reads nothing. The
// analysis tracks, per access path of a Graph-named value (an identifier
// or a single-root field chain like h.graph), two facts over the CFG:
// "may carry flow from a solve in this body" (union join) and "definitely
// flow-free" (intersection join). A call the analyzer does not recognize
// that mentions the graph resets both to unknown, so helpers that solve
// or commit behind a function boundary cause silence, never false
// positives.
var AnalyzerMcfPair = &Analyzer{
	Name: "mcfpair",
	Doc:  "mcf.Graph arena pairing: SetCost only on a flow-free graph, DecomposeUnitPaths only after a solve",
	Run:  runMcfPair,
}

func runMcfPair(p *Pass) {
	for _, file := range p.Files {
		for _, fn := range flowFuncs(file) {
			if fn.body != nil {
				checkMcfBody(p, fn.body)
			}
		}
	}
}

// mcfFact tracks up to 64 graph access paths: solved bits are may-facts
// ("a MinCostFlow in this body may have left flow here"), free bits are
// must-facts ("flow-free on every path").
type mcfFact struct{ solved, free uint64 }

func checkMcfBody(p *Pass, body *ast.BlockStmt) {
	// Collect the tracked access paths: receivers of Graph-named method
	// calls and first arguments of Solver.MinCostFlow, keyed canonically.
	bits := map[string]uint64{}
	nextBit := uint64(1)
	keyOf := func(e ast.Expr) uint64 {
		if namedTypeName(p.TypeOf(e)) != "Graph" {
			return 0
		}
		k := pathKeyOf(p.Info, e)
		if k == "" {
			return 0
		}
		if b, ok := bits[k]; ok {
			return b
		}
		if nextBit == 0 {
			return 0 // more than 64 graphs in one body; untracked
		}
		b := nextBit
		bits[k] = b
		nextBit <<= 1
		return b
	}
	interesting := false
	inspectShallow(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			switch sel.Sel.Name {
			case "MinCostFlow", "Commit", "Reset", "SetCost", "DecomposeUnitPaths":
				if keyOf(sel.X) != 0 {
					interesting = true
				}
				if sel.Sel.Name == "MinCostFlow" && len(call.Args) >= 1 && keyOf(call.Args[0]) != 0 {
					interesting = true // Solver.MinCostFlow(g, ...)
				}
			}
		}
		return true
	})
	if !interesting {
		return
	}

	step := func(n ast.Node, fact *mcfFact, report bool) {
		inspectShallow(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.AssignStmt:
				for i, lhs := range m.Lhs {
					b := uint64(0)
					if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
						if k := pathKeyOf(p.Info, id); k != "" {
							b = bits[k]
						}
					} else if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						if k := pathKeyOf(p.Info, sel); k != "" {
							b = bits[k]
						}
					}
					if b == 0 {
						continue
					}
					fact.solved &^= b
					fact.free &^= b
					if i < len(m.Rhs) && isFreshGraph(p, m.Rhs[i]) {
						fact.free |= b
					}
				}
			case *ast.CallExpr:
				mcfCall(p, m, fact, bits, report)
				return true
			}
			return true
		})
	}

	g := cfg.New(body)
	facts := cfg.Solve(g, cfg.Problem[mcfFact]{
		// Entry: nothing known — a parameter or field may arrive in any
		// state, so neither a SetCost nor a Decompose at the top is
		// reportable.
		Entry: mcfFact{},
		Transfer: func(b *cfg.Block, in mcfFact) mcfFact {
			f := in
			for _, nd := range b.Nodes {
				step(nd, &f, false)
			}
			return f
		},
		Join: func(a, b mcfFact) mcfFact {
			return mcfFact{solved: a.solved | b.solved, free: a.free & b.free}
		},
		Equal: func(a, b mcfFact) bool { return a == b },
	})
	for _, b := range g.RPO() {
		f := facts[b.Index]
		for _, nd := range b.Nodes {
			step(nd, &f, true)
		}
	}
}

// mcfCall applies one call's effect on the arena state and, in the
// reporting replay, checks the pairing rules.
func mcfCall(p *Pass, call *ast.CallExpr, fact *mcfFact, bits map[string]uint64, report bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		// An unknown call mentioning a tracked graph could solve, commit,
		// or reset it: drop to unknown.
		clearMentioned(p, call, fact, bits)
		return
	}
	bitOf := func(e ast.Expr) uint64 {
		if namedTypeName(p.TypeOf(e)) != "Graph" {
			return 0
		}
		if k := pathKeyOf(p.Info, e); k != "" {
			return bits[k]
		}
		return 0
	}
	recv := bitOf(sel.X)
	switch sel.Sel.Name {
	case "MinCostFlow":
		b := recv
		if b == 0 && len(call.Args) >= 1 {
			b = bitOf(call.Args[0]) // Solver.MinCostFlow(g, src, dst, maxFlow)
		}
		if b != 0 {
			fact.solved |= b
			fact.free &^= b
			return
		}
	case "Commit", "Reset":
		if recv != 0 {
			fact.solved &^= recv
			fact.free |= recv
			return
		}
	case "SetCost":
		if recv != 0 {
			if report && fact.solved&recv != 0 {
				p.Reportf(call.Pos(), "SetCost re-prices a graph that may still carry flow from a MinCostFlow on this path; Commit or Reset first (mcf arena contract)")
			}
			return
		}
	case "DecomposeUnitPaths":
		if recv != 0 {
			if report && fact.free&recv != 0 {
				p.Reportf(call.Pos(), "DecomposeUnitPaths on a flow-free graph (no MinCostFlow since the last Commit/Reset on every path here) decomposes nothing")
			}
			return
		}
	}
	clearMentioned(p, call, fact, bits)
}

// clearMentioned resets every tracked graph mentioned in call to unknown.
func clearMentioned(p *Pass, call *ast.CallExpr, fact *mcfFact, bits map[string]uint64) {
	ast.Inspect(call, func(n ast.Node) bool {
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if namedTypeName(p.TypeOf(e)) != "Graph" {
			return true
		}
		if k := pathKeyOf(p.Info, e); k != "" {
			if b := bits[k]; b != 0 {
				fact.solved &^= b
				fact.free &^= b
			}
		}
		return true
	})
}

// isFreshGraph reports whether e constructs a flow-free graph: NewGraph(...)
// or a Graph composite literal (possibly addressed).
func isFreshGraph(p *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if id := calleeIdent(e); id != nil && id.Name == "NewGraph" {
			return namedTypeName(p.TypeOf(e)) == "Graph"
		}
	case *ast.UnaryExpr:
		return isFreshGraph(p, e.X)
	case *ast.CompositeLit:
		return namedTypeName(p.TypeOf(e)) == "Graph"
	}
	return false
}

// pathKeyOf canonicalizes a Graph access path to a stable key: the root
// object's declaration position followed by the field path ("o123.graph").
// Non-canonical operands (index expressions, call results) yield "" and
// are not tracked.
func pathKeyOf(info *types.Info, e ast.Expr) string {
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
		base := pathKeyOf(info, e.X)
		if base == "" {
			return ""
		}
		return base + "." + e.Sel.Name
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return pathKeyOf(info, e.X)
		}
	}
	return ""
}
