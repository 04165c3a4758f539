package valve_test

import (
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/valve"
)

// TestValidateCellBudget pins the size guard: a design whose W·H overflows
// int (4294967296² wraps to 0) or would need gigabytes of per-cell state
// (100000²) is rejected before anything allocates per cell, and the
// largest shipped design still validates.
func TestValidateCellBudget(t *testing.T) {
	for _, side := range []int{4294967296, 100000} {
		d := &valve.Design{
			Name:   "huge",
			W:      side,
			H:      side,
			Valves: []valve.Valve{{ID: 0, Pos: geom.Pt{X: 3, Y: 3}, Seq: valve.Seq{valve.Open}}},
			Pins:   []geom.Pt{{X: 0, Y: 5}},
		}
		err := d.Validate()
		if err == nil || !strings.Contains(err.Error(), "cell budget") {
			t.Errorf("%dx%d: Validate = %v, want a cell-budget error", side, side, err)
		}
	}
	xl, err := bench.Generate("ChipXL")
	if err != nil {
		t.Fatal(err)
	}
	if xl.W != 1000 || xl.H != 1000 {
		t.Fatalf("ChipXL is %dx%d, want the full 1000x1000", xl.W, xl.H)
	}
	if err := xl.Validate(); err != nil {
		t.Errorf("full ChipXL rejected: %v", err)
	}
}
