package lint

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// wantRe extracts the expectation patterns from a // want comment. Both
// quoting styles are accepted: // want "..." and // want `...`.
var wantRe = regexp.MustCompile("// want (.+)$")
var wantArgRe = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// expectation is one // want annotation: a regexp that must match a
// finding's message on the same file and line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// collectWants scans the fixture files under dir (relative to the lint
// package) for // want annotations.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, path := range matches {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRe.FindAllStringSubmatch(m[1], -1)
			if len(args) == 0 {
				t.Fatalf("%s:%d: malformed want comment: %s", path, i+1, line)
			}
			for _, a := range args {
				pat := a[1]
				if pat == "" {
					pat = a[2]
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, err)
				}
				wants = append(wants, &expectation{file: path, line: i + 1, re: re})
			}
		}
	}
	return wants
}

// runFixture lints one testdata directory with one analyzer and checks the
// findings against the // want annotations, both ways: every finding must
// be wanted, every want must be found.
func runFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	findings, err := Run(Options{
		Patterns:  []string{dir},
		Analyzers: []*Analyzer{a},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	wants := collectWants(t, dir)

	for _, f := range findings {
		if f.Analyzer == "directive" {
			t.Errorf("fixture has a directive problem: %s", f)
			continue
		}
		matched := false
		for _, w := range wants {
			if w.hit || w.file != f.Pos.Filename || w.line != f.Pos.Line {
				continue
			}
			if w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func TestMapOrderFixture(t *testing.T) { runFixture(t, AnalyzerMapOrder, "testdata/src/maporder") }
func TestHotAllocFixture(t *testing.T) { runFixture(t, AnalyzerHotAlloc, "testdata/src/hotalloc") }
func TestHotMarkFixture(t *testing.T)  { runFixture(t, AnalyzerHotAlloc, "testdata/src/hotmark") }
func TestFloatEqFixture(t *testing.T)  { runFixture(t, AnalyzerFloatEq, "testdata/src/floateq") }
func TestLibErrsFixture(t *testing.T)  { runFixture(t, AnalyzerLibErrs, "testdata/src/liberrs") }
func TestNoStdoutFixture(t *testing.T) { runFixture(t, AnalyzerNoStdout, "testdata/src/nostdout") }
func TestNonDetermFixture(t *testing.T) {
	runFixture(t, AnalyzerNonDeterm, "testdata/src/nondeterm")
}

// TestDirectiveValidation checks that an unjustified //pacor:allow is
// itself reported and suppresses nothing.
func TestDirectiveValidation(t *testing.T) {
	findings, err := Run(Options{
		Patterns:  []string{"testdata/src/directive"},
		Analyzers: []*Analyzer{AnalyzerLibErrs},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	var gotDirective, gotLibErrs bool
	for _, f := range findings {
		switch f.Analyzer {
		case "directive":
			gotDirective = true
		case "liberrs":
			gotLibErrs = true
		}
	}
	if !gotDirective {
		t.Error("unjustified //pacor:allow was not reported")
	}
	if !gotLibErrs {
		t.Error("unjustified //pacor:allow still suppressed the finding")
	}
	if len(findings) != 2 {
		t.Errorf("want exactly 2 findings, got %d: %v", len(findings), findings)
	}
}

// TestFindingString pins the report format the CI gate greps.
func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "maporder", Message: "boom"}
	f.Pos.Filename = "a/b.go"
	f.Pos.Line = 3
	f.Pos.Column = 7
	if got, want := f.String(), "a/b.go:3:7: [maporder] boom"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

// TestAnalyzersRegistry pins the registered analyzer set.
func TestAnalyzersRegistry(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incompletely registered", a)
		}
		names = append(names, a.Name)
	}
	want := "maporder hotalloc floateq liberrs nostdout nondeterm"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("registry = %q, want %q", got, want)
	}
}

// TestFixtureSuiteFails mirrors the CI sanity check: the whole fixture
// corpus must produce findings under the full registry (a tool that
// passes everything is indistinguishable from one that checks nothing).
func TestFixtureSuiteFails(t *testing.T) {
	dirs, err := filepath.Glob("testdata/src/*")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no fixtures found: %v", err)
	}
	findings, err := Run(Options{Patterns: dirs})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("fixture corpus produced zero findings under the full registry")
	}
}

// TestParseErrorFixture pins the parse-failure contract: a broken file
// yields positioned findings under the "parse" analyzer, suppresses every
// other analyzer for the package, and does not abort the run.
func TestParseErrorFixture(t *testing.T) {
	findings, err := Run(Options{
		Patterns: []string{"testdata/src/parseerror"},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("broken fixture produced no findings")
	}
	for _, f := range findings {
		if f.Analyzer != "parse" {
			t.Errorf("want only parse findings on a broken package, got %s", f)
		}
		if f.Pos.Line == 0 || !strings.HasSuffix(f.Pos.Filename, "parseerror.go") {
			t.Errorf("parse finding lacks a usable position: %s", f)
		}
		if !strings.Contains(f.Message, "syntax error") {
			t.Errorf("parse finding message = %q, want a syntax error", f.Message)
		}
	}
}

// TestRoutingDirectivesKnown pins that the routing packages' sources carry
// no pacor directive beyond allow, hot and pkgpath, so no lock-holding
// contract exists to check. (That they start no goroutines is part of the
// module-wide inventory in TestGoStatementInventory.) Test files are exempt.
func TestRoutingDirectivesKnown(t *testing.T) {
	known := []string{allowPrefix, hotPrefix, pkgpathPrefix}
	for _, dir := range []string{"../route", "../grid", "../pacor", "../escape"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("%s: no sources found: %v", dir, err)
		}
		for _, name := range files {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", name, err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if !strings.HasPrefix(c.Text, "//pacor:") {
						continue
					}
					ok := false
					for _, k := range known {
						if c.Text == k || strings.HasPrefix(c.Text, k+" ") {
							ok = true
						}
					}
					if !ok {
						t.Errorf("%s: unknown directive %q", fset.Position(c.Pos()), c.Text)
					}
				}
			}
		}
	}
}

// goroutineSites lists the only files in the module that may contain a
// `go` statement: the two sweep worker pools. Each runs under the race
// detector in CI (TestParallelDeterminism, TestSweepOnce). The flow and
// the lint driver run on the caller's goroutine, which is why pacorvet
// carries no concurrency analyzers.
var goroutineSites = map[string]bool{
	"cmd/table2/main.go":    true,
	"cmd/benchjson/main.go": true,
}

// forEachModuleSource parses, in mode, every non-test .go file of the
// module outside testdata and dot-dirs, and calls fn with the file's
// slash-separated path relative to the module root.
func forEachModuleSource(t *testing.T, mode parser.Mode, fn func(rel string, fset *token.FileSet, f *ast.File)) {
	t.Helper()
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if file != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, ".go") || strings.HasSuffix(file, "_test.go") {
			return nil
		}
		files++
		rel, err := filepath.Rel(root, file)
		if err != nil {
			return err
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, mode)
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(rel), fset, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no module sources found")
	}
}

// TestGoStatementInventory is the module-wide goroutine inventory: a `go`
// statement in any non-test file not listed in goroutineSites fails with
// its position.
func TestGoStatementInventory(t *testing.T) {
	forEachModuleSource(t, parser.SkipObjectResolution, func(rel string, fset *token.FileSet, f *ast.File) {
		if goroutineSites[rel] {
			return
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				t.Errorf("%s:%d: go statement outside the inventoried worker pools", rel, fset.Position(g.Pos()).Line)
			}
			return true
		})
	})
}

// mcfImporters lists the only directories whose non-test files may import
// repro/internal/mcf: the solver itself and the escape router, its one
// consumer. Negotiation searches the flat grid and builds no flow network.
var mcfImporters = map[string]bool{
	"internal/mcf":    true,
	"internal/escape": true,
}

// TestMcfImportInventory is the module-wide inventory of min-cost-flow
// users: an import of repro/internal/mcf from a non-test file outside
// mcfImporters fails with its position.
func TestMcfImportInventory(t *testing.T) {
	forEachModuleSource(t, parser.ImportsOnly, func(rel string, fset *token.FileSet, f *ast.File) {
		if mcfImporters[path.Dir(rel)] {
			return
		}
		for _, spec := range f.Imports {
			if spec.Path.Value == `"repro/internal/mcf"` {
				t.Errorf("%s:%d: imports repro/internal/mcf outside internal/mcf and internal/escape",
					rel, fset.Position(spec.Pos()).Line)
			}
		}
	})
}

// poolNames matches the acquire/release pair of a workspace pool.
var poolNames = regexp.MustCompile(`^(Acquire|Release)Workspace$`)

// TestNoWorkspacePool is the module-wide inventory behind "one search
// workspace per run": every router takes the caller's workspace, so no
// non-test file may use a sync.Pool or name a workspace pool's
// acquire/release pair. A hit fails with its position.
func TestNoWorkspacePool(t *testing.T) {
	forEachModuleSource(t, parser.SkipObjectResolution, func(rel string, fset *token.FileSet, f *ast.File) {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && x.Name == "sync" && n.Sel.Name == "Pool" {
					t.Errorf("%s:%d: sync.Pool outside tests; hold a caller-owned value instead", rel, fset.Position(n.Pos()).Line)
				}
			case *ast.Ident:
				if poolNames.MatchString(n.Name) {
					t.Errorf("%s:%d: %s; routers take the caller's route.Workspace", rel, fset.Position(n.Pos()).Line, n.Name)
				}
			}
			return true
		})
	})
}

// TestDeadDiscardFindings pins the liberrs dead-discard findings: each sits
// on the discard's own line, and its message names the repair.
func TestDeadDiscardFindings(t *testing.T) {
	findings, err := Run(Options{
		Patterns:  []string{"testdata/src/liberrs"},
		Analyzers: []*Analyzer{AnalyzerLibErrs},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	var got []string
	for _, f := range findings {
		if strings.HasPrefix(f.Message, "dead discard") {
			got = append(got, f.String())
		}
	}
	want := []string{
		"testdata/src/liberrs/liberrs.go:27:2: [liberrs] dead discard `_ = up`: the value has no side effects; use it or delete it",
		"testdata/src/liberrs/liberrs.go:28:2: [liberrs] dead discard `_ = state`: the value has no side effects; use it or delete it",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("dead-discard findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestFindingJSONShape pins the JSON shape of a finding: Pos, Analyzer
// and Message, with no repair edits attached to the liberrs findings.
func TestFindingJSONShape(t *testing.T) {
	findings, err := Run(Options{
		Patterns:  []string{"testdata/src/liberrs"},
		Analyzers: []*Analyzer{AnalyzerLibErrs},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	if len(findings) == 0 {
		t.Fatal("liberrs fixture produced no findings")
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, findings); err != nil {
		t.Fatal(err)
	}
	var decoded []map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	for _, f := range decoded {
		var keys []string
		for k := range f {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		if got := strings.Join(keys, " "); got != "Analyzer Message Pos" {
			t.Errorf("finding keys = %q, want \"Analyzer Message Pos\"", got)
		}
	}
}
