package pacor

import (
	"io"
	"os"
	"testing"

	"repro/internal/detour"
	"repro/internal/geom"
	"repro/internal/grid"
)

func pairNet() *detour.Net {
	// valve0 (2,5) .. tap (8,5) .. valve1 (12,5)
	var arm0, arm1 grid.Path
	for x := 2; x <= 8; x++ {
		arm0 = append(arm0, geom.Pt{X: x, Y: 5})
	}
	for x := 12; x >= 8; x-- {
		arm1 = append(arm1, geom.Pt{X: x, Y: 5})
	}
	return &detour.Net{Segments: []grid.Path{arm0, arm1}, FullPaths: [][]int{{0}, {1}}}
}

func TestRerootPairNetMovesTap(t *testing.T) {
	net := pairNet()
	// Re-root at (10,5): arms become 8 and 2.
	re := rerootPairNet(net, geom.Pt{X: 10, Y: 5})
	if re == nil {
		t.Fatal("reroot failed")
	}
	l0, l1 := re.FullLen(0), re.FullLen(1)
	if l0+l1 != 10 {
		t.Errorf("arm lengths %d+%d, want total 10", l0, l1)
	}
	if !(l0 == 8 && l1 == 2) && !(l0 == 2 && l1 == 8) {
		t.Errorf("arms %d,%d, want 8 and 2", l0, l1)
	}
	// Endpoints: each arm runs valve .. new tap.
	for i, seg := range re.Segments {
		if seg[len(seg)-1] != (geom.Pt{X: 10, Y: 5}) {
			t.Errorf("segment %d does not end at the new tap: %v", i, seg[len(seg)-1])
		}
	}
}

func TestRerootPairNetAtValve(t *testing.T) {
	net := pairNet()
	re := rerootPairNet(net, geom.Pt{X: 2, Y: 5})
	if re == nil {
		t.Fatal("reroot at valve failed")
	}
	mn, mx := re.Spread()
	if mn != 0 || mx != 10 {
		t.Errorf("spread [%d,%d], want [0,10]", mn, mx)
	}
}

func TestRerootPairNetOffNet(t *testing.T) {
	if rerootPairNet(pairNet(), geom.Pt{X: 0, Y: 0}) != nil {
		t.Error("off-net takeoff must return nil")
	}
	if rerootPairNet(&detour.Net{Segments: []grid.Path{{{X: 0, Y: 0}}}}, geom.Pt{X: 0, Y: 0}) != nil {
		t.Error("malformed net must return nil")
	}
}

func TestModeString(t *testing.T) {
	cases := map[Mode]string{
		ModePACOR:            "PACOR",
		ModeWithoutSelection: "w/o Sel",
		ModeDetourFirst:      "Detour First",
		Mode(99):             "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestResultHelpers(t *testing.T) {
	d := testDesign(t)
	res, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	paths := res.AllPaths()
	if len(paths) == 0 {
		t.Fatal("AllPaths empty")
	}
	total := 0
	for _, p := range paths {
		total += p.Len()
	}
	if total != res.TotalLen {
		t.Errorf("AllPaths length %d != TotalLen %d", total, res.TotalLen)
	}
	empty := &Result{}
	if empty.CompletionRate() != 1 {
		t.Error("zero-valve completion should be 1")
	}
}

// TestTraceOption checks that the flow writes nothing to the process's
// stdout or stderr: library code reports through its Result, never by
// printing.
func TestTraceOption(t *testing.T) {
	d := testDesign(t)
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	drained := make(chan []byte)
	go func() { // drain concurrently so a chatty flow cannot fill the pipe
		b, _ := io.ReadAll(r)
		drained <- b
	}()
	stdout, stderr := os.Stdout, os.Stderr
	os.Stdout, os.Stderr = w, w
	_, routeErr := Route(d, DefaultParams())
	os.Stdout, os.Stderr = stdout, stderr
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	leaked := <-drained
	if routeErr != nil {
		t.Fatal(routeErr)
	}
	if len(leaked) != 0 {
		t.Errorf("default params wrote %q to stdout/stderr", leaked)
	}
}
