package lint

import (
	"go/ast"

	"repro/internal/lint/cfg"
)

// AnalyzerSnapshotRead guards the capture-cone protocol of cross-run
// seeding (route/seed.go): a captured search cone is the workspace's visit
// set, and a seeded run replays a recorded outcome only when no changed
// cell lies in that cone. The replay is sound only if every obstacle-state
// read is preceded by a visit stamp on the workspace — Workspace.touch /
// touchBounded / visit / StartVisitTracking — so that the cone covers
// every cell the search observed. An ObsMap.Blocked read reachable before
// any stamp is missing from the cone and silently breaks the byte-identical
// replay guarantee.
//
// Scope: functions in the hot routing packages (internal/route,
// internal/grid) and //pacor:hot functions elsewhere, and only those with
// a Workspace in scope (receiver, parameter, or created locally) —
// helpers that legitimately read obstacle state outside any search are
// not the target. The check is a must-analysis over the
// control-flow graph: the fact "some stamp has happened" must hold on
// every path into a Blocked read.
var AnalyzerSnapshotRead = &Analyzer{
	Name: "snapshotread",
	Doc:  "in hot routing code, ObsMap reads must be preceded by a workspace visit stamp on every path",
	Run:  runSnapshotRead,
}

// snapStampMethods are the Workspace methods that stamp cells into the
// visit set (or switch tracking on).
var snapStampMethods = map[string]bool{
	"StartVisitTracking": true,
	"touch":              true,
	"touchBounded":       true,
	"visit":              true,
}

func runSnapshotRead(p *Pass) {
	inHotPkg := pathHasSuffix(p.PkgPath, hotPackages...)
	for _, file := range p.Files {
		for _, fn := range flowFuncs(file) {
			if !inHotPkg && !p.HotFunc(fn.decl) {
				continue
			}
			if !snapWsInScope(p, fn) {
				continue
			}
			checkSnapshotFunc(p, fn)
		}
	}
}

// snapWsInScope reports whether fn has a *Workspace available: as the
// method receiver, as a parameter (its own or, for a closure, the host
// function's), or created in the body by a NewWorkspace call.
func snapWsInScope(p *Pass, fn flowFunc) bool {
	isWs := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			if namedTypeName(p.TypeOf(f.Type)) == "Workspace" {
				return true
			}
		}
		return false
	}
	if isWs(fn.decl.Recv) || isWs(fn.decl.Type.Params) {
		return true
	}
	if fn.lit != nil && isWs(fn.lit.Type.Params) {
		return true
	}
	found := false
	ast.Inspect(fn.body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if id := calleeIdent(call); id != nil && id.Name == "NewWorkspace" {
				found = true
			}
		}
		return !found
	})
	return found
}

// checkSnapshotFunc runs the must-stamped analysis over one body.
func checkSnapshotFunc(p *Pass, fn flowFunc) {
	g := cfg.New(fn.body)
	facts := cfg.Solve(g, cfg.Problem[bool]{
		Entry: false,
		Transfer: func(b *cfg.Block, in bool) bool {
			stamped := in
			for _, n := range b.Nodes {
				snapScanNode(p, n, &stamped, nil)
			}
			return stamped
		},
		Join:  func(a, b bool) bool { return a && b }, // must hold on every path
		Equal: func(a, b bool) bool { return a == b },
	})
	for _, b := range g.RPO() {
		stamped := facts[b.Index]
		for _, n := range b.Nodes {
			snapScanNode(p, n, &stamped, fn.decl)
		}
	}
}

// snapScanNode scans one CFG node in preorder (approximating evaluation
// order), raising *stamped at stamp calls and, when reporting (decl
// non-nil), flagging Blocked reads seen while *stamped is false. Calls to
// known functions consult their summaries: a callee that stamps on every
// path raises the fact like a direct stamp, and a callee that reads
// Blocked before stamping is itself a violation at this call site —
// unless it is Checked (reported in its own body already).
func snapScanNode(p *Pass, n ast.Node, stamped *bool, decl *ast.FuncDecl) {
	inspectShallow(n, func(m ast.Node) bool {
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			recv := namedTypeName(p.TypeOf(sel.X))
			if snapStampMethods[sel.Sel.Name] && recv == "Workspace" {
				*stamped = true
				return true
			}
			if sel.Sel.Name == "Blocked" && recv == "ObsMap" && !*stamped && decl != nil {
				p.Reportf(call.Pos(), "ObsMap.Blocked read is reachable before any workspace visit stamp; stamp the cell first (Workspace.touch/StartVisitTracking) or a captured search cone misses the read")
				return true
			}
		}
		if sum := p.ip.calleeSummary(call); sum != nil {
			if sum.ReadsUnstamped && !sum.Checked && !*stamped && decl != nil {
				p.Reportf(call.Pos(), "call to %s reads ObsMap.Blocked before any workspace visit stamp on this path; stamp first, or stamp inside the callee", snapCalleeName(p, call))
			}
			if sum.StampsAlways {
				*stamped = true
			}
		}
		return true
	})
}

// snapCalleeName renders the resolved callee of call for a finding
// message, without the package-path prefix.
func snapCalleeName(p *Pass, call *ast.CallExpr) string {
	key := p.ip.calleeKey(call)
	if i := lastSlash(key); i >= 0 {
		key = key[i+1:]
	}
	return key
}

func lastSlash(s string) int {
	for i := len(s) - 1; i >= 0; i-- {
		if s[i] == '/' {
			return i
		}
	}
	return -1
}
