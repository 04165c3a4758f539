package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// Directives understood by the driver, all written as line comments with no
// space after "//":
//
//	//pacor:allow <analyzer>[,<analyzer>...] <justification>
//	    Suppresses findings of the named analyzers on the directive's own
//	    line, or — when the comment stands alone on its line — on the next
//	    source line. Placed in a function's doc comment, it covers the
//	    whole function body (for functions that are exempt by design, like
//	    one-time buffer growth). The justification is mandatory; an allow
//	    directive without one is itself reported.
//
//	//pacor:hot
//	    In a function's doc comment or trailing the func line: subjects the
//	    function to the hotalloc analyzer even outside the hot packages.
//
//	//pacor:pkgpath <import/path>
//	    Fixture-only: overrides the package path seen by analyzers when a
//	    directory of loose files is linted (testdata has no go.mod entry).
const (
	allowPrefix   = "//pacor:allow"
	hotPrefix     = "//pacor:hot"
	pkgpathPrefix = "//pacor:pkgpath"
)

// allowDirective is one parsed //pacor:allow comment (kept only for
// directives that are themselves findings, i.e. missing a justification).
type allowDirective struct {
	analyzers []string
	pos       token.Pos
}

// allowRange is a function-scope suppression from a doc-comment directive.
type allowRange struct {
	from, to  int // line span, inclusive
	analyzers map[string]bool
}

// fileDirectives holds everything pacor:-flavored found in one file.
type fileDirectives struct {
	// allow maps source line -> analyzer names suppressed on that line.
	allow map[int]map[string]bool
	// ranges are function-scope suppressions (doc-comment directives).
	ranges []allowRange
	// unjustified are allow directives missing a justification.
	unjustified []allowDirective
	// pkgpath is the //pacor:pkgpath override, or "".
	pkgpath string
}

// suppressed reports whether a finding by analyzer on line is covered by
// a line or function-scope allow.
func (d fileDirectives) suppressed(analyzer string, line int) bool {
	if d.allow[line][analyzer] {
		return true
	}
	for _, r := range d.ranges {
		if line >= r.from && line <= r.to && r.analyzers[analyzer] {
			return true
		}
	}
	return false
}

// parseDirectives extracts pacor directives from one parsed file.
// Suppression targets the comment's own line; a comment that is the only
// thing on its line targets the line below instead, so both styles work:
//
//	x := m[k] //pacor:allow floateq exact sentinel comparison
//
//	//pacor:allow hotalloc one-time construction
//	buf := make([]byte, n)
func parseDirectives(fset *token.FileSet, file *ast.File) fileDirectives {
	d := fileDirectives{allow: map[int]map[string]bool{}}

	// Doc-comment directives suppress across the whole declaration. Record
	// which comments those are so the line pass below skips them.
	docComment := map[*ast.Comment]*ast.FuncDecl{}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok || fn.Doc == nil {
			continue
		}
		for _, c := range fn.Doc.List {
			docComment[c] = fn
		}
	}

	// Lines that hold any non-comment token: a comment on such a line is a
	// trailing comment and applies to its own line.
	codeLines := map[int]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.Comment); ok {
			return false
		}
		if _, ok := n.(*ast.CommentGroup); ok {
			return false
		}
		codeLines[fset.Position(n.Pos()).Line] = true
		codeLines[fset.Position(n.End()).Line] = true
		return true
	})

	for _, cg := range file.Comments {
		for _, c := range cg.List {
			text := c.Text
			switch {
			case strings.HasPrefix(text, allowPrefix):
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					d.unjustified = append(d.unjustified, allowDirective{pos: c.Pos()})
					continue
				}
				names := strings.Split(fields[0], ",")
				if len(fields) < 2 {
					d.unjustified = append(d.unjustified, allowDirective{analyzers: names, pos: c.Pos()})
					continue
				}
				set := map[string]bool{}
				for _, n := range names {
					set[strings.TrimSpace(n)] = true
				}
				if fn, ok := docComment[c]; ok {
					d.ranges = append(d.ranges, allowRange{
						from:      fset.Position(fn.Pos()).Line,
						to:        fset.Position(fn.End()).Line,
						analyzers: set,
					})
					continue
				}
				line := fset.Position(c.Pos()).Line
				if !codeLines[line] {
					line++ // standalone comment: covers the next line
				}
				if cur := d.allow[line]; cur != nil {
					for n := range set {
						cur[n] = true
					}
				} else {
					d.allow[line] = set
				}
			case strings.HasPrefix(text, pkgpathPrefix):
				rest := strings.TrimSpace(strings.TrimPrefix(text, pkgpathPrefix))
				if rest != "" {
					d.pkgpath = rest
				}
			}
		}
	}
	return d
}

// hotFuncs returns the function declarations in file marked //pacor:hot,
// either in the doc comment or as a trailing comment on the func line.
func hotFuncs(fset *token.FileSet, file *ast.File) map[*ast.FuncDecl]bool {
	return markedFuncs(fset, file, hotPrefix)
}

// markedFuncs returns the function declarations carrying the given bare
// directive, either in the doc comment or trailing the func line.
func markedFuncs(fset *token.FileSet, file *ast.File, prefix string) map[*ast.FuncDecl]bool {
	marked := map[*ast.FuncDecl]bool{}

	// Comment lines carrying the bare directive.
	markLines := map[int]bool{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
				markLines[fset.Position(c.Pos()).Line] = true
			}
		}
	}
	for _, decl := range file.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if !ok {
			continue
		}
		if fn.Doc != nil {
			for _, c := range fn.Doc.List {
				if c.Text == prefix || strings.HasPrefix(c.Text, prefix+" ") {
					marked[fn] = true
				}
			}
		}
		if markLines[fset.Position(fn.Pos()).Line] {
			marked[fn] = true
		}
	}
	return marked
}
