// Command pacorvet is the repository's custom static-analysis gate. It
// runs the internal/lint analyzer suite — determinism (maporder,
// nondeterm), allocation discipline (hotalloc), numeric tolerance
// (floateq), error hygiene (liberrs), stdout hygiene (nostdout), pooled
// workspace ownership (wsaliasing), the capture-cone stamping protocol
// (snapshotread), obstacle-journal pairing (journalpair), and the mcf
// arena contract (mcfpair) — over the packages matched by its arguments
// and exits nonzero on any finding.
//
// Usage:
//
//	pacorvet [-list] [-fix] [-format text|json|sarif] [-cache dir] [-diff ref] [-j n] [patterns...]
//
// Patterns are `go list` package patterns (default ./...); a pattern that
// names a directory of loose .go files (e.g. internal/lint/testdata/src/maporder)
// is linted directly, which is how the fixture corpus is exercised. A
// pattern that matches no packages is an error (exit 2), not a silent
// clean run.
//
// -fix applies each finding's first suggested repair in place, then
// re-lints and reports what remains. -format=sarif emits SARIF 2.1.0 for
// CI annotation; -format=json emits the raw finding list.
//
// -cache dir enables the incremental fact cache: packages whose sources
// and transitive dependency summaries are unchanged since the last run
// are served from dir instead of re-analyzed, with byte-identical output.
// -diff ref replaces the patterns with the packages affected by the git
// diff against ref (changed packages plus their reverse dependencies); a
// diff touching nothing exits 0 immediately. -j n analyzes up to n
// independent packages concurrently (default: GOMAXPROCS); findings,
// stats, and cache contents are byte-identical for every n.
//
// Suppress a finding in place with a justified directive:
//
//	//pacor:allow <analyzer> <reason>
//
// See docs/LINTING.md for the full rule catalogue.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool; split from main for testing. Exit codes: 0 clean,
// 1 findings, 2 usage or load failure.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("pacorvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list registered analyzers and exit")
	dir := fs.String("dir", ".", "module root to lint from")
	fix := fs.Bool("fix", false, "apply suggested fixes in place, then re-lint")
	format := fs.String("format", "text", "output format: text, json, or sarif")
	cacheDir := fs.String("cache", "", "fact-cache directory; unchanged packages are served from it")
	diffRef := fs.String("diff", "", "lint only packages affected by the git diff against this ref")
	jobs := fs.Int("j", runtime.NumCPU(), "packages analyzed concurrently; output is identical for every value")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pacorvet [-list] [-fix] [-format text|json|sarif] [-cache dir] [-diff ref] [-j n] [-dir root] [patterns...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch *format {
	case "text", "json", "sarif":
	default:
		fmt.Fprintf(stderr, "pacorvet: unknown -format %q (want text, json, or sarif)\n", *format)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if *diffRef != "" {
		if len(patterns) > 0 {
			fmt.Fprintf(stderr, "pacorvet: -diff and explicit patterns are mutually exclusive\n")
			return 2
		}
		affected, err := lint.DiffPatterns(*dir, *diffRef)
		if err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
		if len(affected) == 0 {
			fmt.Fprintf(stderr, "pacorvet: no Go packages affected since %s\n", *diffRef)
			return 0
		}
		fmt.Fprintf(stderr, "pacorvet: %d package(s) affected since %s\n", len(affected), *diffRef)
		patterns = affected
	}

	stats := &lint.RunStats{}
	opts := lint.Options{Dir: *dir, Patterns: patterns, CacheDir: *cacheDir, Stats: stats, Jobs: *jobs}
	findings, err := lint.Run(opts)
	if err != nil {
		fmt.Fprintf(stderr, "pacorvet: %v\n", err)
		return 2
	}

	if *fix {
		res, err := lint.ApplyFixes(findings, *dir)
		if err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
		fmt.Fprintf(stderr, "pacorvet: applied %d fix(es) in %d file(s), %d skipped\n",
			res.Applied, len(res.Files), res.Skipped)
		// Report what the fixes did not repair.
		*stats = lint.RunStats{}
		findings, err = lint.Run(opts)
		if err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
	}

	if *cacheDir != "" {
		fmt.Fprintf(stderr, "pacorvet: %d module package(s): %d re-analyzed, %d from cache\n",
			stats.Packages, stats.Reanalyzed, stats.CacheHits)
	}

	switch *format {
	case "json":
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
	case "sarif":
		if err := lint.WriteSARIF(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
	default:
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "pacorvet: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}
