package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSmallDesigns(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-designs", "S1,S2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"S1", "S2", "Avg (normalized):", "100%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunCSV(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t2.csv")
	var out bytes.Buffer
	if err := run([]string{"-designs", "S1", "-csv", path}, &out); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 { // header + 3 modes
		t.Fatalf("csv rows = %d, want 4", len(recs))
	}
	if recs[0][0] != "design" || recs[1][0] != "S1" {
		t.Errorf("csv content wrong: %v", recs[:2])
	}
}

func TestRunUnknownDesign(t *testing.T) {
	if err := run([]string{"-designs", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown design must error")
	}
}

// TestParallelDeterminism asserts that the parallel sweep produces
// byte-identical output to the sequential path: routing is fully
// deterministic per job and the report preserves sequential ordering, so
// only the (suppressed via -stable) runtimes could ever differ.
func TestParallelDeterminism(t *testing.T) {
	outputs := make([]string, 2)
	for i, j := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-designs", "S1,S2,S3", "-stable", "-j", j}, &out); err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("parallel output differs from sequential:\n--- -j 1 ---\n%s\n--- -j 4 ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestRepeatedSweepDeterminism runs the identical sweep twice and diffs
// the bytes: Go randomizes map iteration order per range statement, so any
// map order leaking into routing or reporting (the maporder invariant
// pacorvet enforces statically) shows up here as a run-to-run diff.
func TestRepeatedSweepDeterminism(t *testing.T) {
	outputs := make([]string, 2)
	for i := range outputs {
		var out bytes.Buffer
		if err := run([]string{"-designs", "S1,S2,S3", "-stable", "-j", "4"}, &out); err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Errorf("identical sweeps diverged:\n--- run 1 ---\n%s\n--- run 2 ---\n%s",
			outputs[0], outputs[1])
	}
}

// TestStableGolden pins the full -stable sweep to the committed golden, so
// a pass certifies that the output is frozen across PRs. CI runs the same
// diff at several worker counts and hierarchy settings.
func TestStableGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep; skipped in -short")
	}
	want, err := os.ReadFile(filepath.Join("testdata", "stable.golden"))
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run([]string{"-stable", "-j", "2"}, &out); err != nil {
		t.Fatal(err)
	}
	if out.String() != string(want) {
		t.Errorf("-stable output diverged from testdata/stable.golden:\n--- golden ---\n%s\n--- got ---\n%s",
			want, out.String())
	}
}

// TestParallelDeterminismCSV covers the CSV path the same way (runtime_ms is
// zeroed by -stable).
func TestParallelDeterminismCSV(t *testing.T) {
	dir := t.TempDir()
	files := make([]string, 2)
	for i, j := range []string{"1", "3"} {
		path := filepath.Join(dir, "t2_"+j+".csv")
		if err := run([]string{"-designs", "S1,S2", "-stable", "-j", j, "-csv", path}, &bytes.Buffer{}); err != nil {
			t.Fatalf("-j %s: %v", j, err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = string(b)
	}
	if files[0] != files[1] {
		t.Errorf("parallel CSV differs from sequential:\n%s\nvs\n%s", files[0], files[1])
	}
}
