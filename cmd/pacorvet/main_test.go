package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// moduleRoot lets the tests lint from the repository root while the test
// binary runs inside cmd/pacorvet.
const moduleRoot = "../.."

// TestFixturesFail pins the tool's reason to exist: the fixture corpus is
// full of violations, so linting it must exit 1 and name each analyzer.
func TestFixturesFail(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-dir", moduleRoot,
		"internal/lint/testdata/src/maporder",
		"internal/lint/testdata/src/hotalloc",
		"internal/lint/testdata/src/floateq",
		"internal/lint/testdata/src/liberrs",
		"internal/lint/testdata/src/nostdout",
		"internal/lint/testdata/src/nondeterm",
		"internal/lint/testdata/src/parseerror",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, an := range []string{
		"[maporder]", "[hotalloc]", "[floateq]", "[liberrs]", "[nostdout]",
		"[nondeterm]", "[parse]",
	} {
		if !strings.Contains(out, an) {
			t.Errorf("output missing findings from %s:\n%s", an, out)
		}
	}
}

// TestModuleClean mirrors the CI gate from the command side: the real
// module lints clean.
func TestModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped with -short")
	}
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", moduleRoot, "./..."}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", stdout.String())
	}
}

// TestListFlag checks the analyzer listing used in docs and debugging:
// one line per registered analyzer, in registry order.
func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exit code = %d", code)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(stdout.String()), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := "maporder hotalloc floateq liberrs nostdout nondeterm"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("-list names = %q, want %q\n%s", got, want, stdout.String())
	}
}

// TestBadPattern checks the usage exit code.
func TestBadPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", moduleRoot, "./does/not/exist/..."}, &stdout, &stderr); code != 2 {
		t.Errorf("bad pattern exit code = %d, want 2 (stderr: %s)", code, stderr.String())
	}
}

// TestNoMatchPattern pins the no-silent-clean rule: a syntactically valid
// pattern that matches zero packages must exit 2 with a diagnostic, because
// `go list` itself exits 0 and linting nothing would look like a pass.
func TestNoMatchPattern(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", moduleRoot, "./docs/..."}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("no-match pattern exit code = %d, want 2\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if !strings.Contains(stderr.String(), "matched no packages") {
		t.Errorf("stderr missing no-match diagnostic:\n%s", stderr.String())
	}
}

// TestBadFormat checks that an unknown -format is a usage error.
func TestBadFormat(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-format", "xml"}, &stdout, &stderr); code != 2 {
		t.Errorf("bad format exit code = %d, want 2", code)
	}
	if !strings.Contains(stderr.String(), "unknown -format") {
		t.Errorf("stderr missing format diagnostic:\n%s", stderr.String())
	}
}

// TestFormatSARIF pins that SARIF output is gone: -format=sarif is a
// usage error like any other unknown format, and -format=json is the one
// machine-readable output.
func TestFormatSARIF(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-dir", moduleRoot, "-format", "sarif",
		"internal/lint/testdata/src/floateq",
	}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("exit code = %d, want 2\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown -format") || stdout.Len() != 0 {
		t.Errorf("want a usage error and no output; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// TestFormatJSON checks the machine-readable finding list.
func TestFormatJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{
		"-dir", moduleRoot, "-format", "json",
		"internal/lint/testdata/src/nondeterm",
	}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var findings []struct {
		Analyzer string
		Message  string
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 || findings[0].Analyzer != "nondeterm" {
		t.Errorf("unexpected findings: %+v", findings)
	}
}

// TestFixFlag pins that pacorvet only reports: -fix, like any unknown
// flag, is a usage error, and nothing is linted or rewritten.
func TestFixFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-dir", moduleRoot, "-fix", "internal/lint/testdata/src/liberrs"}, &stdout, &stderr)
	if code != 2 {
		t.Fatalf("-fix exit code = %d, want 2 (usage error)\nstderr:\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "flag provided but not defined: -fix") || stdout.Len() != 0 {
		t.Errorf("want a usage error and no output; stdout:\n%s\nstderr:\n%s", stdout.String(), stderr.String())
	}
}

// TestRelativeDirFindings lints a scratch copy of a fixture under a relative
// -dir, as `pacorvet -dir ../.. <dir>` run from a subdirectory does: the
// copy sits at testdata/liberrs below a scratch root, and the tool runs
// from root/work with -dir "..". The findings must name files relative to
// -dir.
func TestRelativeDirFindings(t *testing.T) {
	root := t.TempDir()
	fixDir := filepath.Join(root, "testdata", "liberrs")
	workDir := filepath.Join(root, "work")
	for _, d := range []string{fixDir, workDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	matches, err := filepath.Glob(filepath.Join(moduleRoot, "internal", "lint", "testdata", "src", "liberrs", "*.go"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no liberrs fixture: %v", err)
	}
	for _, p := range matches {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(fixDir, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(workDir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Error(err)
		}
	})

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-dir", "..", "-format", "json", "testdata/liberrs"}, &stdout, &stderr); code != 1 {
		t.Fatalf("lint exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	var findings []struct {
		Pos struct{ Filename string }
	}
	if err := json.Unmarshal(stdout.Bytes(), &findings); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(findings) == 0 {
		t.Fatal("the fixture copy produced no findings")
	}
	for _, f := range findings {
		if !strings.HasPrefix(filepath.ToSlash(f.Pos.Filename), "testdata/liberrs/") {
			t.Errorf("file %q is not relative to -dir (want prefix testdata/liberrs/)", f.Pos.Filename)
		}
	}
}
