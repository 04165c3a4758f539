// Command pacorvet is the repository's custom static-analysis gate. It
// runs the internal/lint analyzer suite — determinism (maporder,
// nondeterm), allocation discipline (hotalloc), numeric tolerance
// (floateq), error hygiene (liberrs) and stdout hygiene (nostdout) — over
// the packages matched by its arguments and exits nonzero on any finding.
//
// Usage:
//
//	pacorvet [-list] [-dir root] [-format text|json] [patterns...]
//
// Patterns are `go list` package patterns (default ./...) or package
// directories (./internal/route). A directory of loose .go files that
// `go list` cannot list, under testdata/ (e.g. internal/lint/testdata/src/maporder)
// or outside the module root, is linted directly, which is how the fixture
// corpus is exercised. A pattern that matches no packages is an error
// (exit 2), not a silent clean run.
//
// -format=json emits the raw finding list.
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
	format := fs.String("format", "text", "output format: text or json")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: pacorvet [-list] [-dir root] [-format text|json] [patterns...]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *format != "text" && *format != "json" {
		fmt.Fprintf(stderr, "pacorvet: unknown -format %q (want text or json)\n", *format)
		return 2
	}

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	findings, err := lint.Run(lint.Options{Dir: *dir, Patterns: fs.Args()})
	if err != nil {
		fmt.Fprintf(stderr, "pacorvet: %v\n", err)
		return 2
	}

	if *format == "json" {
		if err := lint.WriteJSON(stdout, findings); err != nil {
			fmt.Fprintf(stderr, "pacorvet: %v\n", err)
			return 2
		}
	} else {
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
