package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunBenchmark(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-bench", "S2"}, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{"design S2", "verified: OK", "100.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("output missing %q:\n%s", want, s)
		}
	}
}

func TestRunWithOutputs(t *testing.T) {
	dir := t.TempDir()
	svg := filepath.Join(dir, "out.svg")
	js := filepath.Join(dir, "out.json")
	var out bytes.Buffer
	if err := run([]string{"-bench", "S1", "-render", "-clusters", "-skew",
		"-svg", svg, "-json", js}, &out); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(svg); err != nil || !bytes.HasPrefix(data, []byte("<svg")) {
		t.Errorf("svg output wrong: %v", err)
	}
	if data, err := os.ReadFile(js); err != nil || !bytes.Contains(data, []byte("total_length")) {
		t.Errorf("json output wrong: %v", err)
	}
	if !strings.Contains(out.String(), "actuation skew") {
		t.Error("skew report missing")
	}
	if !strings.Contains(out.String(), "FullLens") {
		t.Error("cluster report missing")
	}
}

func TestRunModes(t *testing.T) {
	for _, mode := range []string{"pacor", "wosel", "detourfirst"} {
		var out bytes.Buffer
		if err := run([]string{"-bench", "S1", "-mode", mode}, &out); err != nil {
			t.Errorf("mode %s: %v", mode, err)
		}
	}
	if err := run([]string{"-bench", "S1", "-mode", "bogus"}, &bytes.Buffer{}); err == nil {
		t.Error("bogus mode must error")
	}
}

func TestRunDesignFile(t *testing.T) {
	// Generate a design file via the bench generator and route it.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.json")
	var out bytes.Buffer
	if err := run([]string{"-bench", "S1", "-json", filepath.Join(dir, "ignore.json")}, &out); err != nil {
		t.Fatal(err)
	}
	// Write an actual design file.
	src := `{"name":"file","width":10,"height":10,"delta":1,
	  "valves":[{"pos":[3,3],"seq":"01"},{"pos":[6,6],"seq":"10"}],
	  "pins":[[0,5],[9,5]]}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := run([]string{path}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "design file") {
		// Name is "file".
		if !strings.Contains(out.String(), "design file (10x10") {
			t.Logf("output: %s", out.String())
		}
	}
}

func TestRunErrors(t *testing.T) {
	if err := run([]string{}, &bytes.Buffer{}); err == nil {
		t.Error("no input must error")
	}
	if err := run([]string{"-bench", "nope"}, &bytes.Buffer{}); err == nil {
		t.Error("unknown benchmark must error")
	}
	if err := run([]string{"/nonexistent/file.json"}, &bytes.Buffer{}); err == nil {
		t.Error("missing file must error")
	}
}

// TestRunOversizedDesign: a design file whose W·H overflows int is an error
// (exit status 1), not a panic in the obstacle map.
func TestRunOversizedDesign(t *testing.T) {
	path := filepath.Join(t.TempDir(), "huge.json")
	src := `{"name":"huge","width":4294967296,"height":4294967296,"delta":1,
	  "valves":[{"pos":[3,3],"seq":"01"},{"pos":[6,6],"seq":"10"}],
	  "pins":[[0,5],[9,0]]}`
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var err error
	func() {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("run panicked: %v", p)
			}
		}()
		err = run([]string{path}, &bytes.Buffer{})
	}()
	if err == nil || !strings.Contains(err.Error(), "cell budget") {
		t.Errorf("run = %v, want a cell-budget error", err)
	}
}
