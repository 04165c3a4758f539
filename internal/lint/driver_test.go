package lint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// writeModule lays out a module from a file map under a fresh temp
// directory and returns its root.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		p := filepath.Join(root, name)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// writeTestModule lays out a tiny two-package module: leaf (no deps) and
// top (imports leaf), each holding one deliberate journalpair violation so
// every run has findings to compare. Returns the module root.
func writeTestModule(t *testing.T) string {
	t.Helper()
	return writeModule(t, map[string]string{
		"go.mod": "module cachemod\n\ngo 1.22\n",
		"leaf/leaf.go": `// Package leaf is the dependency.
package leaf

// ObsMap stands in for the journaled obstacle map.
type ObsMap struct{ journal []int }

// StartJournal stands in for the recording switch.
func (o *ObsMap) StartJournal() { o.journal = o.journal[:0] }

// StopJournal stands in for the recording stop.
func (o *ObsMap) StopJournal() { o.journal = nil }

// Open starts a journal and never stops it: one stable finding.
func Open(o *ObsMap) int {
	o.StartJournal()
	return len(o.journal)
}
`,
		"top/top.go": `// Package top depends on leaf.
package top

import "cachemod/leaf"

// Clean stops its journal on every path.
func Clean(o *leaf.ObsMap) int {
	o.StartJournal()
	defer o.StopJournal()
	return leaf.Open(o)
}

// Leaky never stops: one stable finding.
func Leaky(o *leaf.ObsMap) {
	o.StartJournal()
}
`,
	})
}

// lintJSON lints root with the full registry and returns the findings
// serialized to JSON.
func lintJSON(t *testing.T, root string, patterns ...string) string {
	t.Helper()
	findings, err := Run(Options{Dir: root, Patterns: patterns})
	if err != nil {
		t.Fatalf("lint run %v: %v", patterns, err)
	}
	out, err := json.Marshal(findings)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// editFile rewrites one file of the module through edit.
func editFile(t *testing.T, path string, edit func(string) string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(edit(string(data))), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRunDeterministic pins run-to-run determinism: two runs over the same
// tree give byte-identical findings.
func TestRunDeterministic(t *testing.T) {
	root := writeTestModule(t)
	first := lintJSON(t, root, "./...")
	if first == "null" || first == "[]" {
		t.Fatal("test module produced no findings; the comparison checks nothing")
	}
	if second := lintJSON(t, root, "./..."); second != first {
		t.Errorf("second run differs from the first:\nfirst:  %s\nsecond: %s", first, second)
	}
}

// TestCommentEditKeepsFindings pins that an edit with no semantic change, a
// comment in the leaf, changes no finding anywhere.
func TestCommentEditKeepsFindings(t *testing.T) {
	root := writeTestModule(t)
	before := lintJSON(t, root, "./...")
	editFile(t, filepath.Join(root, "leaf", "leaf.go"), func(s string) string {
		return s + "\n// trailing comment, no semantic change\n"
	})
	if after := lintJSON(t, root, "./..."); after != before {
		t.Errorf("a leaf comment edit changed the findings:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestRunReadsEditedSource pins that every run reads the tree
// afresh: once leaf.Open defers its stop, the next run drops the leaf's
// finding and keeps top's.
func TestRunReadsEditedSource(t *testing.T) {
	root := writeTestModule(t)
	before, err := Run(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	editFile(t, filepath.Join(root, "leaf", "leaf.go"), func(s string) string {
		patched := strings.Replace(s, "\to.StartJournal()\n", "\to.StartJournal()\n\tdefer o.StopJournal()\n", 1)
		if patched == s {
			t.Fatal("StartJournal line not found in test module source")
		}
		return patched
	})
	after, err := Run(Options{Dir: root})
	if err != nil {
		t.Fatal(err)
	}
	in := func(fs []Finding, pkg string) int {
		n := 0
		for _, f := range fs {
			if f.Pos.Filename == filepath.Join(pkg, pkg+".go") {
				n++
			}
		}
		return n
	}
	if in(before, "leaf") != 1 || in(after, "leaf") != 0 || in(before, "top") != 1 || in(after, "top") != 1 {
		t.Errorf("findings before %v, after %v; want the leaf's one finding gone and top's kept", before, after)
	}
}

// TestPatternLintsOnlyTarget pins that linting only the importer
// type-checks its dependency without linting it: leaf's open journal is not
// reported, top's is.
func TestPatternLintsOnlyTarget(t *testing.T) {
	root := writeTestModule(t)
	findings, err := Run(Options{Dir: root, Patterns: []string{"cachemod/top"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) != 1 || findings[0].Pos.Filename != filepath.Join("top", "top.go") || findings[0].Pos.Line != 15 {
		t.Errorf("linting cachemod/top gave %v, want the one open journal in Leaky (top/top.go:15)", findings)
	}
}

// TestPackageDirPatterns pins that a package directory is linted as
// the package `go list` names, not as a loose fixture: same import path,
// no _test.go files. Only testdata/ directories and directories outside
// the module are loaded as loose files.
func TestPackageDirPatterns(t *testing.T) {
	root := writeTestModule(t)
	if err := os.WriteFile(filepath.Join(root, "top", "top_test.go"), []byte(`package top

import "cachemod/leaf"

func leakInTest(o *leaf.ObsMap) {
	o.StartJournal()
}
`), 0o644); err != nil {
		t.Fatal(err)
	}
	want := lintJSON(t, root, "cachemod/top")
	for _, pattern := range []string{"./top", "top", filepath.Join(root, "top")} {
		if got := lintJSON(t, root, pattern); got != want {
			t.Errorf("pattern %q: got %s, want the findings of cachemod/top %s", pattern, got, want)
		}
	}
}

// writeParallelModule lays out a diamond-shaped seven-package module —
// four leaves, two mids that each import two leaves, and a top importing
// both mids. Every package carries one deliberate journalpair violation,
// which makes the processing order observable.
func writeParallelModule(t *testing.T) string {
	t.Helper()
	leaky := func(pkg, imports string) string {
		return fmt.Sprintf(`// Package %[1]s is part of the diamond.
package %[1]s
%[2]s
// ObsMap stands in for the journaled obstacle map.
type ObsMap struct{ journal []int }

// StartJournal stands in for the recording switch.
func (o *ObsMap) StartJournal() { o.journal = o.journal[:0] }

// Leaky never stops its journal: one stable finding per package.
func Leaky(o *ObsMap) {
	o.StartJournal()
}
`, pkg, imports)
	}
	return writeModule(t, map[string]string{
		"go.mod":         "module parmod\n\ngo 1.22\n",
		"leafa/leafa.go": leaky("leafa", ""),
		"leafb/leafb.go": leaky("leafb", ""),
		"leafc/leafc.go": leaky("leafc", ""),
		"leafd/leafd.go": leaky("leafd", ""),
		"midab/midab.go": leaky("midab", "\nimport (\n\t_ \"parmod/leafa\"\n\t_ \"parmod/leafb\"\n)\n"),
		"midcd/midcd.go": leaky("midcd", "\nimport (\n\t_ \"parmod/leafc\"\n\t_ \"parmod/leafd\"\n)\n"),
		"top/top.go":     leaky("top", "\nimport (\n\t_ \"parmod/midab\"\n\t_ \"parmod/midcd\"\n)\n"),
	})
}

// TestFindingsInDepsOrder pins the driver's one loop: packages are
// analyzed in `go list -deps` order, so every dependency is type-checked
// before its importers, and findings come out in that order before Run
// sorts them.
func TestFindingsInDepsOrder(t *testing.T) {
	root := writeParallelModule(t)
	listed, err := goList(root, []string{"-deps", "./..."})
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, lp := range listed {
		if !lp.Standard {
			want = append(want, filepath.Base(lp.Dir))
		}
	}

	findings, err := newLoader(root).runModule([]string{"./..."}, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		got = append(got, filepath.Base(filepath.Dir(f.Pos.Filename)))
	}
	if len(want) != 7 || !reflect.DeepEqual(got, want) {
		t.Errorf("findings by package = %v, want one per package in go list -deps order %v", got, want)
	}
}

// TestLintSuiteClean pins that a pattern below the module root lints
// on its own: the analyzer suite, linted alone, is clean under its own
// rules.
func TestLintSuiteClean(t *testing.T) {
	findings, err := Run(Options{Dir: "../..", Patterns: []string{"./internal/lint/..."}})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
}
