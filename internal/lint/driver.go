package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/scanner"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Options configures one lint run.
type Options struct {
	// Dir is the module root (where go.mod lives). Defaults to ".".
	Dir string
	// Patterns are `go list` package patterns ("./...", "./internal/route"),
	// or directories of loose .go files that `go list` cannot list:
	// fixtures under a testdata/ directory, or directories outside Dir.
	// The two kinds can be mixed.
	Patterns []string
	// Analyzers is the registry to run; Analyzers() when empty.
	Analyzers []*Analyzer
}

// Run loads every package matched by opts.Patterns, type-checks it, runs
// the analyzer registry, and returns the surviving (unsuppressed) findings
// sorted by position. Type-check errors are tolerated — analyzers run with
// partial information — but unreadable patterns are reported as errors.
func Run(opts Options) ([]Finding, error) {
	if opts.Dir == "" {
		opts.Dir = "."
	}
	if len(opts.Patterns) == 0 {
		opts.Patterns = []string{"./..."}
	}
	if len(opts.Analyzers) == 0 {
		opts.Analyzers = Analyzers()
	}
	listPatterns, dirPatterns, err := splitPatterns(opts.Dir, opts.Patterns)
	if err != nil {
		return nil, err
	}

	ld := newLoader(opts.Dir)
	var findings []Finding
	if len(listPatterns) > 0 {
		mod, err := ld.runModule(listPatterns, opts.Analyzers)
		if err != nil {
			return nil, err
		}
		findings = append(findings, mod...)
	}
	pkgs, err := ld.loadDirs(dirPatterns)
	if err != nil {
		return nil, err
	}
	for _, cp := range pkgs {
		ld.check(cp)
		findings = append(findings, lintPackage(cp, opts.Analyzers)...)
	}
	findings = relativize(findings, opts.Dir)
	sortFindings(findings)
	return findings, nil
}

// checkedPackage is one parsed and (best-effort) type-checked package.
type checkedPackage struct {
	fset  *token.FileSet
	path  string
	name  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
	// parseBad holds positioned findings for files that failed to parse;
	// when non-empty the package is reported as broken instead of being
	// analyzed (see analyzer "parse").
	parseBad []Finding
}

// lintPackage runs every analyzer over pkg and filters the findings
// through the package's //pacor:allow directives. A package that failed
// to parse reports its parse findings and nothing else — analyzers over a
// half-parsed package would only add noise.
func lintPackage(pkg *checkedPackage, analyzers []*Analyzer) []Finding {
	if len(pkg.parseBad) > 0 {
		return pkg.parseBad
	}
	// Directive tables per file.
	allow := map[string]fileDirectives{} // filename -> directives
	hot := map[*ast.FuncDecl]bool{}
	var findings []Finding
	for _, f := range pkg.files {
		d := parseDirectives(pkg.fset, f)
		name := pkg.fset.Position(f.Pos()).Filename
		allow[name] = d
		for _, bad := range d.unjustified {
			findings = append(findings, Finding{
				Pos:      pkg.fset.Position(bad.pos),
				Analyzer: "directive",
				Message:  "//pacor:allow needs a justification: //pacor:allow <analyzer> <reason>",
			})
		}
		for fn := range hotFuncs(pkg.fset, f) {
			hot[fn] = true
		}
	}

	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.fset,
			Files:    pkg.files,
			PkgPath:  pkg.path,
			PkgName:  pkg.name,
			Pkg:      pkg.pkg,
			Info:     pkg.info,
			hot:      hot,
			report: func(f Finding) {
				if allow[f.Pos.Filename].suppressed(f.Analyzer, f.Pos.Line) {
					return
				}
				findings = append(findings, f)
			},
		}
		a.Run(pass)
	}
	return findings
}

// relativize rewrites absolute finding paths relative to dir for stable,
// readable output.
func relativize(fs []Finding, dir string) []Finding {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return fs
	}
	for i := range fs {
		if rel, err := filepath.Rel(abs, fs[i].Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
			fs[i].Pos.Filename = rel
		}
	}
	return fs
}

// splitPatterns separates `go list` patterns from directories of loose .go
// files. A directory is loaded as loose files only when `go list` cannot
// list it: it has a testdata path element below dir, or it lies outside
// dir. Any other directory is a package directory and goes to `go list`
// ("internal/route" as "./internal/route"), so it is linted under its real
// import path and without its _test.go files.
func splitPatterns(dir string, patterns []string) (list, dirs []string, err error) {
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, p := range patterns {
		abs := p
		if !filepath.IsAbs(abs) {
			abs = filepath.Join(absDir, p)
		}
		if st, err := os.Stat(abs); err != nil || !st.IsDir() {
			list = append(list, p)
			continue
		}
		rel, err := filepath.Rel(absDir, abs)
		outside := err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator))
		goFiles, _ := filepath.Glob(filepath.Join(abs, "*.go"))
		switch {
		case len(goFiles) > 0 && (outside || hasTestdata(rel)):
			dirs = append(dirs, p)
		case !outside && !filepath.IsAbs(p) && !strings.HasPrefix(p, "."):
			list = append(list, "./"+filepath.ToSlash(p))
		default:
			list = append(list, p)
		}
	}
	return list, dirs, nil
}

// hasTestdata reports whether the relative path rel has a testdata
// element, which `go list` never descends into.
func hasTestdata(rel string) bool {
	for _, e := range strings.Split(filepath.ToSlash(rel), "/") {
		if e == "testdata" {
			return true
		}
	}
	return false
}

// loader parses and type-checks packages, serving module-internal imports
// from the packages it has already checked (`go list -deps` order puts
// them before their importers) and everything else, the standard library
// above all, from compiler export data that `go list -export` names.
type loader struct {
	fset    *token.FileSet
	dir     string
	stdlib  types.Importer    // gc importer over exports
	exports map[string]string // import path -> export data file
	checked map[string]*types.Package
}

// newLoader returns a loader for the module rooted at dir. The root is
// made absolute, so fixture files load under absolute paths that relativize
// can map back to dir.
func newLoader(dir string) *loader {
	if abs, err := filepath.Abs(dir); err == nil {
		dir = abs
	}
	fset := token.NewFileSet()
	ld := &loader{
		fset:    fset,
		dir:     dir,
		exports: map[string]string{},
		checked: map[string]*types.Package{},
	}
	ld.stdlib = importer.ForCompiler(fset, "gc", ld.lookup)
	return ld
}

// Import implements types.Importer.
func (ld *loader) Import(path string) (*types.Package, error) {
	if p := ld.checked[path]; p != nil {
		return p, nil
	}
	return ld.stdlib.Import(path)
}

// lookup opens the export data of path for the gc importer.
func (ld *loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := ld.exports[path]
	if !ok {
		return nil, fmt.Errorf("no export data for %q", path)
	}
	return os.Open(file)
}

// listedPackage is the subset of `go list -json` output the driver needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	Export     string
	GoFiles    []string
	Standard   bool
	// DepOnly marks a package listed only as a dependency of a pattern
	// match: it is type-checked for its importers but not linted.
	DepOnly bool
	// Error is set by `go list -e` on broken patterns and packages instead
	// of a nonzero exit.
	Error *listError
}

// listError is the Error object in `go list -e -json` output.
type listError struct {
	Err string
}

// runModule lints the packages matched by patterns in one pass over
// `go list -deps` order, which lists every dependency before its
// importers: each module package is parsed and type-checked, so its types
// are in place before any importer is checked, and linted if a pattern
// matched it. Export data is requested only for the standard-library
// dependencies: module packages are checked from source, and compiling
// their export data would cost a build per edit.
func (ld *loader) runModule(patterns []string, analyzers []*Analyzer) ([]Finding, error) {
	all, err := goList(ld.dir, append([]string{"-e", "-deps"}, patterns...))
	if err != nil {
		return nil, err
	}
	var std []string
	for _, lp := range all {
		if lp.Standard {
			std = append(std, lp.ImportPath)
		}
	}
	if len(std) > 0 {
		if err := ld.listExports(std...); err != nil {
			return nil, err
		}
	}
	targets := 0
	for _, lp := range all {
		if lp.DepOnly {
			continue
		}
		// With -e a broken pattern comes back as a pseudo-package carrying
		// only an Error; report it instead of linting around it.
		if lp.Error != nil && len(lp.GoFiles) == 0 && lp.Dir == "" {
			return nil, fmt.Errorf("lint: %s", lp.Error.Err)
		}
		targets++
	}
	if targets == 0 {
		// `go list` exits 0 with only a stderr warning when a valid pattern
		// matches no packages; silently linting nothing would report a clean
		// tree that was never inspected.
		return nil, fmt.Errorf("lint: patterns %s matched no packages", strings.Join(patterns, " "))
	}

	var out []Finding
	for _, lp := range all {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		paths := make([]string, len(lp.GoFiles))
		for i, f := range lp.GoFiles {
			paths[i] = filepath.Join(lp.Dir, f)
		}
		cp, err := ld.parse(paths)
		if err != nil {
			return nil, fmt.Errorf("lint: %s: %v", lp.ImportPath, err)
		}
		cp.path, cp.name = lp.ImportPath, lp.Name
		ld.check(cp)
		if !lp.DepOnly {
			out = append(out, lintPackage(cp, analyzers)...)
		}
	}
	return out, nil
}

// loadDirs parses the loose .go files of each directory (testdata
// fixtures, scratch copies) as one package, and lists export data for the
// union of their imports with one `go list -export` call.
func (ld *loader) loadDirs(dirs []string) ([]*checkedPackage, error) {
	var pkgs []*checkedPackage
	imports := map[string]bool{}
	for _, d := range dirs {
		cp, err := ld.loadDir(d)
		if err != nil {
			return nil, err
		}
		for _, f := range cp.files {
			for _, spec := range f.Imports {
				if path, err := strconv.Unquote(spec.Path.Value); err == nil {
					imports[path] = true
				}
			}
		}
		pkgs = append(pkgs, cp)
	}
	if len(imports) > 0 {
		paths := make([]string, 0, len(imports))
		for p := range imports {
			paths = append(paths, p)
		}
		sort.Strings(paths)
		if err := ld.listExports(append([]string{"-deps"}, paths...)...); err != nil {
			return nil, err
		}
	}
	return pkgs, nil
}

// listExports runs `go list -e -export` with args and records the export
// data file of every listed package for the gc importer. -e tolerates
// broken packages, so parse failures surface as findings rather than
// aborting the whole run.
func (ld *loader) listExports(args ...string) error {
	all, err := goList(ld.dir, append([]string{"-e", "-export"}, args...))
	if err != nil {
		return err
	}
	for _, lp := range all {
		if lp.Export != "" {
			ld.exports[lp.ImportPath] = lp.Export
		}
	}
	return nil
}

// loadDir parses the loose .go files in one directory. The package path
// defaults to "fixture/<base>" and can be overridden with
// //pacor:pkgpath.
func (ld *loader) loadDir(dir string) (*checkedPackage, error) {
	abs := dir
	if !filepath.IsAbs(abs) {
		abs = filepath.Join(ld.dir, dir)
	}
	matches, err := filepath.Glob(filepath.Join(abs, "*.go"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	cp, err := ld.parse(matches)
	if err != nil {
		return nil, err
	}
	cp.path = "fixture/" + filepath.Base(abs)
	for _, f := range cp.files {
		if d := parseDirectives(ld.fset, f); d.pkgpath != "" {
			cp.path = d.pkgpath
		}
	}
	return cp, nil
}

// parse reads and parses paths as one package. Parse errors become
// positioned "parse" findings on the returned package (parseBad), which
// then carries no files: a half-parsed package cannot be analyzed
// meaningfully. Only I/O failures are fatal.
func (ld *loader) parse(paths []string) (*checkedPackage, error) {
	cp := &checkedPackage{fset: ld.fset}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		f, err := parser.ParseFile(ld.fset, p, data, parser.ParseComments)
		if err != nil {
			cp.parseBad = append(cp.parseBad, parseFindings(ld.fset, p, err)...)
			continue
		}
		cp.files = append(cp.files, f)
	}
	if len(cp.parseBad) > 0 {
		cp.files = nil
		return cp, nil
	}
	if len(cp.files) == 0 {
		return nil, fmt.Errorf("no Go files in %v", paths)
	}
	return cp, nil
}

// check type-checks a parsed package under cp.path and publishes it to
// importers. Type errors are tolerated: the package keeps whatever
// information the checker produced.
func (ld *loader) check(cp *checkedPackage) {
	if len(cp.parseBad) > 0 {
		return
	}
	if cp.name == "" {
		cp.name = cp.files[0].Name.Name
	}
	cp.info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{Importer: ld, Error: func(error) {}}
	cp.pkg, _ = conf.Check(cp.path, ld.fset, cp.files, cp.info) // errors tolerated, see above
	ld.checked[cp.path] = cp.pkg
}

// parseFindings converts a parse error for file p into positioned findings
// under the "parse" analyzer. A scanner.ErrorList yields one finding per
// error (capped — a mangled file can produce hundreds); anything else
// yields a single finding at the top of the file.
func parseFindings(fset *token.FileSet, p string, err error) []Finding {
	const maxPerFile = 10
	var out []Finding
	if list, ok := err.(scanner.ErrorList); ok {
		for i, e := range list {
			if i == maxPerFile {
				out = append(out, Finding{
					Pos:      e.Pos,
					Analyzer: "parse",
					Message:  fmt.Sprintf("%d more syntax errors in this file omitted", len(list)-maxPerFile),
				})
				break
			}
			out = append(out, Finding{
				Pos:      e.Pos,
				Analyzer: "parse",
				Message:  "syntax error: " + e.Msg,
			})
		}
		return out
	}
	return []Finding{{
		Pos:      token.Position{Filename: p, Line: 1, Column: 1},
		Analyzer: "parse",
		Message:  "syntax error: " + err.Error(),
	}}
}

// goList shells out to `go list -json` and decodes the JSON stream.
func goList(dir string, args []string) ([]listedPackage, error) {
	cmd := exec.Command("go", append([]string{"list", "-json"}, args...)...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}
