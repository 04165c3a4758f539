package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AnalyzerMapOrder guards the determinism invariant: Go map iteration
// order is random, so a `for k := range m` body must not let that order
// leak into anything ordered — appending to a slice that is never sorted
// afterwards, or writing output. Every such leak is a run-to-run diff in
// reports, golden files, or the parallel sweep.
var AnalyzerMapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "map-range bodies must not leak iteration order into slices (without a later sort) or writers",
	Run:  runMapOrder,
}

// Output-shaped call names: reaching one of these from a map-range body
// emits in iteration order.
var writeFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"WriteTo": true, "Encode": true,
}

// Sort-shaped call names: passing the collected slice to one of these
// after the loop restores determinism.
var sortFuncs = map[string]bool{
	"Sort": true, "SortFunc": true, "SortStableFunc": true, "Stable": true,
	"Slice": true, "SliceStable": true, "Strings": true, "Ints": true, "Float64s": true,
}

func runMapOrder(p *Pass) {
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(p, fn.Body)
		}
	}
}

// checkMapRanges walks one function body looking for ranges over maps.
func checkMapRanges(p *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		inspectMapRangeBody(p, body, rng)
		return true
	})
}

// inspectMapRangeBody reports order leaks out of one map-range statement.
// fnBody is the enclosing function body, used to look for a sort that
// re-establishes order after the loop.
func inspectMapRangeBody(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt) {
	// Idents appended to inside the loop but declared outside it.
	appended := map[types.Object]*ast.Ident{}

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if name, isOutput := outputCall(p, n); isOutput {
				p.Reportf(n.Pos(), "%s inside map range emits in iteration order; collect and sort first", name)
			}
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || !isBuiltin(p, call.Fun, "append") || i >= len(n.Lhs) {
					continue
				}
				id, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				obj := p.ObjectOf(id)
				if obj == nil || obj.Pos() == token.NoPos {
					continue
				}
				// Only slices declared outside the loop can leak.
				if obj.Pos() < rng.Pos() || obj.Pos() > rng.End() {
					appended[obj] = id
				}
			}
		}
		return true
	})

	for obj, id := range appended {
		if !sortedAfter(p, fnBody, rng, obj) {
			p.Reportf(id.Pos(), "append to %q inside map range without a later sort leaks iteration order", id.Name)
		}
	}
}

// outputCall reports whether call is an output-shaped call (fmt.Printf,
// w.Write, enc.Encode, ...) and returns a printable name for it.
func outputCall(p *Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if !writeFuncs[sel.Sel.Name] {
		return "", false
	}
	if base, ok := sel.X.(*ast.Ident); ok {
		return base.Name + "." + sel.Sel.Name, true
	}
	return sel.Sel.Name, true
}

// sortedAfter reports whether obj is passed to a sort call after the
// range statement ends, anywhere in the enclosing function body.
func sortedAfter(p *Pass, fnBody *ast.BlockStmt, rng *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fnBody, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rng.End() {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !sortFuncs[sel.Sel.Name] {
			return true
		}
		for _, arg := range call.Args {
			used := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && p.ObjectOf(id) == obj {
					used = true
				}
				return !used
			})
			if used {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

// isBuiltin reports whether fun denotes the named predeclared function.
func isBuiltin(p *Pass, fun ast.Expr, name string) bool {
	id, ok := fun.(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := p.ObjectOf(id)
	if obj == nil {
		// Untyped fallback: trust the spelling.
		return true
	}
	_, isB := obj.(*types.Builtin)
	return isB
}
