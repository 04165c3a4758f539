package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the shared machinery the dataflow-aware analyzers
// (snapshotread, journalpair, nondeterm) build on top of internal/lint/cfg:
// enumerating analyzable function bodies and walking nodes without
// crossing into closures, whose control flow belongs to their own graph.

// A flowFunc is one analyzable function body: a declared function, or a
// closure nested inside one (analyzed separately — the cfg builder treats
// FuncLits as opaque values).
type flowFunc struct {
	// decl is the enclosing function declaration (the closure's host when
	// lit is non-nil); directive lookups (//pacor:hot) key off it.
	decl *ast.FuncDecl
	// lit is the closure, nil for the declaration itself.
	lit *ast.FuncLit
	// typ and body belong to lit when non-nil, else to decl.
	typ  *ast.FuncType
	body *ast.BlockStmt
	// name labels the function in messages.
	name string
}

// flowFuncs enumerates every function body in file, closures included,
// outermost first.
func flowFuncs(file *ast.File) []flowFunc {
	var out []flowFunc
	for _, d := range file.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || fn.Body == nil {
			continue
		}
		out = append(out, flowFunc{decl: fn, typ: fn.Type, body: fn.Body, name: fn.Name.Name})
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if l, ok := n.(*ast.FuncLit); ok {
				out = append(out, flowFunc{decl: fn, lit: l, typ: l.Type, body: l.Body, name: fn.Name.Name + " closure"})
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

// namedTypeName unwraps pointers from t and returns the name of the
// resulting named type ("" when t is unnamed or nil). The dataflow
// analyzers match the repo's own types (Workspace, ObsMap) by name so the
// fixture corpus can declare self-contained stand-ins.
func namedTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	return named.Obj().Name()
}

// calleeIdent returns the rightmost identifier of call's callee: f for
// f(...), m for x.m(...), nil for anything else.
func calleeIdent(call *ast.CallExpr) *ast.Ident {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun
	case *ast.SelectorExpr:
		return fun.Sel
	}
	return nil
}
