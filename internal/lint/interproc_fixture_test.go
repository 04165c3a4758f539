package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// TestInterprocFixture covers journalpair at function boundaries: a call
// to a stopping helper (plain, deferred or recursive) discharges nothing,
// and a closure that captures the map, called or deferred, takes the
// obligation with it.
func TestInterprocFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/interproc")
}

// TestJournalPairFixture covers the journal pairing analyzer.
func TestJournalPairFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/journalpair")
}

// TestSeedJournalFixture covers the journal obligation across the
// seed/restore boundary: rewinding to the pre-seed mark never closes the
// journal, a restore helper's stop is not credited to its caller, and a
// capture that stores the map takes the obligation with it.
func TestSeedJournalFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/seedjournal")
}

// TestSeedWorkspaceFixture covers the cache-seeding shapes of the seed
// fixture one function at a time: the restore and replay helpers start
// nothing and report nothing, a caller that replays and stops itself is
// clean, a caller that leaves its stop to restore still owes it, and a
// capture that stores the map takes the obligation with it.
func TestSeedWorkspaceFixture(t *testing.T) {
	const dir = "testdata/src/seedjournal"
	findings, err := Run(Options{
		Patterns:  []string{dir},
		Analyzers: []*Analyzer{AnalyzerJournalPair},
	})
	if err != nil {
		t.Fatalf("lint run: %v", err)
	}
	got := findingsByFunc(t, dir, findings)
	for fn, want := range map[string]int{
		"restore":          0,
		"replay":           0,
		"seededPaired":     0,
		"restoredByHelper": 1,
		"capturedIntoSeed": 0,
	} {
		if got[fn] != want {
			t.Errorf("%s: %d journalpair findings, want %d", fn, got[fn], want)
		}
	}
}

// findingsByFunc counts the findings that fall inside each top-level
// function of the fixture files under dir.
func findingsByFunc(t *testing.T, dir string, findings []Finding) map[string]int {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("%s: no fixture sources: %v", dir, err)
	}
	counts := map[string]int{}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			from, to := fset.Position(fd.Pos()).Line, fset.Position(fd.End()).Line
			for _, fi := range findings {
				if fi.Pos.Filename == path && fi.Pos.Line >= from && fi.Pos.Line <= to {
					counts[fd.Name.Name]++
				}
			}
		}
	}
	return counts
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
