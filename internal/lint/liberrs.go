package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// AnalyzerLibErrs guards error hygiene in library code (internal/... and
// the root package): an error silently dropped on the floor in a routing
// or solver stage surfaces later as a wrong chip, not a failed run. It
// flags expression-statement calls whose error result is discarded, and
// bare `_ = x` discards of side-effect-free values (dead code wearing an
// assignment costume). Deliberate discards get a justified
// //pacor:allow liberrs.
var AnalyzerLibErrs = &Analyzer{
	Name: "liberrs",
	Doc:  "library packages must not silently discard error returns or dead values",
	Run:  runLibErrs,
}

func runLibErrs(p *Pass) {
	if !libPackage(p.PkgPath) {
		return
	}
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				call, ok := n.X.(*ast.CallExpr)
				if !ok {
					return true
				}
				if neverFails(p, call) {
					return true
				}
				if pos, ok := returnsError(p, call); ok {
					p.Reportf(n.Pos(), "call discards its error result (%s); handle or //pacor:allow with a reason", pos)
				}
			case *ast.AssignStmt:
				checkBlankAssign(p, n)
			}
			return true
		})
	}
}

// libPackage reports whether pkgPath is library code: the module root
// package or anything under internal/. cmd/ and examples/ own their
// process and may print and exit as they please.
func libPackage(pkgPath string) bool {
	if strings.Contains(pkgPath, "/internal/") || strings.HasPrefix(pkgPath, "internal/") {
		return true
	}
	// The bare module path (no slash beyond the module name) is the public
	// library package.
	return !strings.Contains(pkgPath, "/cmd/") && !strings.Contains(pkgPath, "/examples/") &&
		!strings.Contains(pkgPath, "/") && pkgPath != ""
}

// neverFails reports whether call's error result is a documented constant
// nil: methods on strings.Builder / bytes.Buffer, and fmt.Fprint* aimed at
// one of those. Discarding such an "error" is the normal idiom, not a bug.
//
// The receiver is resolved through the type checker, not the spelling, so
// field receivers (s.buf.WriteString), parenthesized receivers, and method
// expressions ((*strings.Builder).WriteString(&b, ...)) all qualify. The
// same method reached through an interface (io.StringWriter) or a method
// value stored in a variable stays flagged: the static type no longer
// guarantees the nil error.
func neverFails(p *Pass, call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	if p.Info != nil {
		if s := p.Info.Selections[sel]; s != nil && infallibleWriter(s.Recv()) {
			return true
		}
	}
	if infallibleWriter(p.TypeOf(sel.X)) {
		return true
	}
	// fmt.Fprintf(&b, ...) with a Builder/Buffer destination.
	if id, ok := sel.X.(*ast.Ident); ok && isPkgIdent(p, id, "fmt") &&
		strings.HasPrefix(sel.Sel.Name, "Fprint") && len(call.Args) > 0 {
		if infallibleWriter(p.TypeOf(call.Args[0])) {
			return true
		}
	}
	return false
}

// infallibleWriter reports whether t is strings.Builder or bytes.Buffer
// (possibly behind a pointer), whose Write methods always return nil
// errors by contract.
func infallibleWriter(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, name := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && name == "Builder") || (pkg == "bytes" && name == "Buffer")
}

// returnsError reports whether call has an error among its results, and
// names the callee for the message.
func returnsError(p *Pass, call *ast.CallExpr) (string, bool) {
	t := p.TypeOf(call)
	if t == nil {
		return "", false
	}
	name := calleeName(call)
	switch t := t.(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if isErrorType(t.At(i).Type()) {
				return name, true
			}
		}
	default:
		if isErrorType(t) {
			return name, true
		}
	}
	return "", false
}

// checkBlankAssign flags all-blank assignments: `_ = x` of a side-effect-
// free value is dead code, and `_ = f()` / `_, _ = f()` of an
// error-returning call is a silent discard.
func checkBlankAssign(p *Pass, as *ast.AssignStmt) {
	for _, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name != "_" {
			return // some result is kept; this is the v, _ := f() idiom
		}
	}
	for _, rhs := range as.Rhs {
		switch rhs := rhs.(type) {
		case *ast.CallExpr:
			if name, ok := returnsError(p, rhs); ok {
				p.Reportf(as.Pos(), "blank assignment discards error from %s; handle or //pacor:allow with a reason", name)
			}
		case *ast.Ident, *ast.SelectorExpr:
			p.Reportf(as.Pos(), "dead discard `_ = %s`: the value has no side effects; use it or delete it", exprString(rhs))
		}
	}
}

// calleeName renders the called function for a finding message.
func calleeName(call *ast.CallExpr) string {
	return exprString(call.Fun)
}

// exprString renders simple expressions (idents, selectors) for messages.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	}
	return "expression"
}
