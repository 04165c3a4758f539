package lint

import (
	"go/ast"
	"go/types"
)

// This file holds the shared machinery the dataflow-aware analyzers
// (journalpair, nondeterm) build on top of internal/lint/cfg: enumerating
// analyzable function bodies and walking nodes without crossing into
// closures, whose control flow belongs to their own graph.

// funcBodies enumerates every function body in file, outermost first: each
// declared function, then the closures nested inside it (analyzed
// separately — the cfg builder treats FuncLits as opaque values).
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

// namedTypeName unwraps pointers from t and returns the name of the
// resulting named type ("" when t is unnamed or nil). journalpair matches
// the repo's ObsMap by name so the fixture corpus can declare
// self-contained stand-ins.
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
