// Package lint is a stdlib-only static-analysis framework enforcing the
// repository's cross-cutting invariants: deterministic output (no raw
// map-iteration order reaching reports), allocation discipline on hot
// routing paths, tolerance-based float comparison in the numeric kernels,
// no silently discarded errors in library code, and no stray writes to
// process stdout from library packages.
//
// The driver (see driver.go) loads every package in the module with
// `go list -json` plus go/parser and go/types — no third-party analysis
// framework — runs a registry of analyzers, and reports findings as
// "file:line:col: [analyzer] message". Findings can be suppressed line by
// line with a justified //pacor:allow directive (see directives.go).
package lint

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// An Analyzer checks one invariant. Run inspects the package held by the
// Pass and reports findings through it.
type Analyzer struct {
	// Name identifies the analyzer in findings and in //pacor:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run performs the check on one package.
	Run func(*Pass)
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	// Analyzer is the analyzer this pass belongs to.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments preserved).
	Files []*ast.File
	// PkgPath is the package import path ("repro/internal/route"). Fixture
	// packages may override it with a //pacor:pkgpath directive.
	PkgPath string
	// PkgName is the package name ("route", "main", ...).
	PkgName string
	// Pkg is the type-checked package; may be partially complete if the
	// type checker reported errors.
	Pkg *types.Package
	// Info holds type information for expressions in Files. Entries may be
	// missing when type checking was incomplete; analyzers must tolerate
	// nil types.
	Info *types.Info
	// Hot reports whether a function declaration was marked //pacor:hot.
	hot map[*ast.FuncDecl]bool

	report func(Finding)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if p.Info == nil {
		return nil
	}
	return p.Info.TypeOf(e)
}

// ObjectOf returns the object denoted by id, or nil when unknown.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if p.Info == nil {
		return nil
	}
	return p.Info.ObjectOf(id)
}

// HotFunc reports whether fn carries a //pacor:hot directive.
func (p *Pass) HotFunc(fn *ast.FuncDecl) bool { return p.hot[fn] }

// A Finding is one rule violation.
type Finding struct {
	// Pos locates the violation; Filename is relative to the module root
	// when produced by Run.
	Pos token.Position
	// Analyzer is the name of the analyzer that produced the finding.
	Analyzer string
	// Message describes the violation and, where possible, the fix.
	Message string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
}

// WriteJSON renders findings as a plain JSON array of Finding values (an
// empty array, not null, for a clean run).
func WriteJSON(w io.Writer, findings []Finding) error {
	if findings == nil {
		findings = []Finding{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(findings)
}

// sortFindings orders findings by file, line, column, analyzer, message so
// output is deterministic regardless of analyzer scheduling.
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
}

// pathHasSuffix reports whether pkgPath ends with one of the given
// slash-separated suffixes on a path-segment boundary.
func pathHasSuffix(pkgPath string, suffixes ...string) bool {
	for _, s := range suffixes {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Identical(t, types.Universe.Lookup("error").Type())
}

// isPkgIdent reports whether id names the package imported from path.
// Falls back to spelling when type information is missing.
func isPkgIdent(p *Pass, id *ast.Ident, path string) bool {
	obj := p.ObjectOf(id)
	if obj == nil {
		base := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			base = path[i+1:]
		}
		return id.Name == base
	}
	pn, ok := obj.(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
