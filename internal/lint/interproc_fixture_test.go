package lint

import (
	"strings"
	"testing"

	"repro/internal/lint/cfg"
)

// TestInterprocFixture covers the interprocedural journalpair cases:
// obligations discharged through helper summaries (must- and may-stop),
// kept alive through call-only closures and deferred closures, and
// (mutually) recursive stop helpers converging at the SCC fixed point.
func TestInterprocFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/interproc")
}

// TestSnapInterprocFixture covers the interprocedural snapshotread cases:
// un-stamped Blocked reads hiding inside helpers and stamps supplied by
// callee summaries.
func TestSnapInterprocFixture(t *testing.T) {
	runFixture(t, AnalyzerSnapshotRead, "testdata/src/snapinterproc")
}

// TestJournalPairFixture covers the journal pairing analyzer.
func TestJournalPairFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/journalpair")
}

// TestSeedWorkspaceFixture covers the cache-seeding shapes of the seed
// fixture through the summaries they rely on: the restore helper stops the
// journal on every path without keeping the map, the replay helper only
// reads (its callers keep the obligation), and a capture that stores the
// map takes the obligation with it.
func TestSeedWorkspaceFixture(t *testing.T) {
	const dir = "testdata/src/seedjournal"
	runFixture(t, AnalyzerJournalPair, dir)

	store := fixtureSummaries(t, dir)
	const pkg = "fixture/internal/route."
	if ps := paramSummary(t, store, pkg+"restore", 0); !ps.StopsJournalAlways || ps.Escapes {
		t.Errorf("restore param = %+v, want a must-stop that does not escape", ps)
	}
	if ps := paramSummary(t, store, pkg+"replay", 0); ps != (cfg.ParamSummary{}) {
		t.Errorf("replay param = %+v, want a plain read", ps)
	}
	if ps := paramSummary(t, store, pkg+"capturedIntoSeed", 0); !ps.Escapes || !ps.OpensJournal {
		t.Errorf("capturedIntoSeed param = %+v, want an opened journal that escapes", ps)
	}
}

// TestSeedJournalFixture covers the journal obligation across the
// seed/restore boundary: rewinding to the pre-seed mark never closes the
// journal, and a restore helper's summary can.
func TestSeedJournalFixture(t *testing.T) {
	runFixture(t, AnalyzerJournalPair, "testdata/src/seedjournal")
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
