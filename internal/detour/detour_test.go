package detour

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// hPath builds a horizontal path from (x0,y) to (x1,y).
func hPath(x0, x1, y int) grid.Path {
	var p grid.Path
	step := 1
	if x1 < x0 {
		step = -1
	}
	for x := x0; ; x += step {
		p = append(p, geom.Pt{X: x, Y: y})
		if x == x1 {
			break
		}
	}
	return p
}

// markNet blocks every segment cell.
func markNet(obs *grid.ObsMap, net *Net) {
	for _, s := range net.Segments {
		obs.SetPath(s, true)
	}
}

func TestMatchAlreadyMatched(t *testing.T) {
	g := grid.New(20, 20)
	obs := grid.NewObsMap(g)
	net := &Net{
		Segments:  []grid.Path{hPath(2, 8, 5), hPath(14, 8, 5)},
		FullPaths: [][]int{{0}, {1}},
	}
	markNet(obs, net)
	if !Match(route.NewWorkspace(obs.Grid()), obs, net, 0) {
		t.Fatal("equal-length net should match immediately")
	}
}

func TestMatchTwoArmTap(t *testing.T) {
	// Two arms to a tap at (10,5): left arm 8, right arm 4. Detour the right
	// arm by 4 to reach [7,8].
	g := grid.New(24, 12)
	obs := grid.NewObsMap(g)
	net := &Net{
		Segments:  []grid.Path{hPath(2, 10, 5), hPath(14, 10, 5)},
		FullPaths: [][]int{{0}, {1}},
	}
	markNet(obs, net)
	if !Match(route.NewWorkspace(obs.Grid()), obs, net, 1) {
		t.Fatal("match failed in open space")
	}
	mn, mx := net.Spread()
	if mx-mn > 1 {
		t.Errorf("spread [%d,%d] exceeds delta", mn, mx)
	}
	// Endpoints preserved.
	if net.Segments[1][0] != (geom.Pt{X: 14, Y: 5}) {
		t.Errorf("valve end moved: %v", net.Segments[1][0])
	}
	if net.Segments[1][len(net.Segments[1])-1] != (geom.Pt{X: 10, Y: 5}) {
		t.Errorf("tap end moved")
	}
	// obs must reflect the new geometry.
	for _, s := range net.Segments {
		for _, c := range s {
			if !obs.Blocked(c) {
				t.Errorf("cell %v of updated net not blocked", c)
			}
		}
	}
}

func TestMatchTreeSharedSegment(t *testing.T) {
	// Y-tree: valves A(2,2) and B(2,8) join at (6,5) [segments 0,1], trunk
	// (6,5)->(12,5) [segment 2]. A's arm is length 7, B's arm 7 via
	// construction below; make A shorter to force a sink-side detour.
	g := grid.New(20, 14)
	obs := grid.NewObsMap(g)
	segA := grid.Path{{X: 4, Y: 5}, {X: 5, Y: 5}, {X: 6, Y: 5}}                                                                       // short arm: len 2
	segB := grid.Path{{X: 2, Y: 8}, {X: 3, Y: 8}, {X: 4, Y: 8}, {X: 5, Y: 8}, {X: 6, Y: 8}, {X: 6, Y: 7}, {X: 6, Y: 6}, {X: 6, Y: 5}} // len 7
	trunk := grid.Path{{X: 6, Y: 5}, {X: 7, Y: 5}, {X: 8, Y: 5}}                                                                      // len 2, shared
	net := &Net{
		Segments:  []grid.Path{segA, segB, trunk},
		FullPaths: [][]int{{0, 2}, {1, 2}},
	}
	markNet(obs, net)
	if !Match(route.NewWorkspace(obs.Grid()), obs, net, 1) {
		t.Fatal("tree match failed")
	}
	mn, mx := net.Spread()
	if mx-mn > 1 {
		t.Errorf("spread [%d,%d]", mn, mx)
	}
	// The shared trunk must not have been the one lengthened (sink-side
	// first would already fix arm A alone); either way lengths match.
	if net.FullLen(0) < 7-1 {
		t.Errorf("full len A = %d", net.FullLen(0))
	}
}

func TestMatchFailsWhenSealed(t *testing.T) {
	// The short arm is in a 1-wide corridor: no room to detour.
	g := grid.New(24, 12)
	obs := grid.NewObsMap(g)
	for x := 1; x <= 11; x++ {
		obs.Set(geom.Pt{X: x, Y: 4}, true)
		obs.Set(geom.Pt{X: x, Y: 6}, true)
	}
	for x := 12; x <= 22; x++ {
		obs.Set(geom.Pt{X: x, Y: 4}, true)
		obs.Set(geom.Pt{X: x, Y: 6}, true)
	}
	net := &Net{
		Segments:  []grid.Path{hPath(2, 10, 5), hPath(14, 10, 5)},
		FullPaths: [][]int{{0}, {1}},
	}
	markNet(obs, net)
	before := net.Clone()
	obsBefore := obs.Clone()
	if Match(route.NewWorkspace(obs.Grid()), obs, net, 1) {
		t.Fatal("sealed corridor should fail to match")
	}
	// Restoration: net and obs unchanged.
	for i := range net.Segments {
		if net.Segments[i].Len() != before.Segments[i].Len() {
			t.Error("net not restored after failure")
		}
	}
	for y := 0; y < 12; y++ {
		for x := 0; x < 24; x++ {
			p := geom.Pt{X: x, Y: y}
			if obs.Blocked(p) != obsBefore.Blocked(p) {
				t.Fatalf("obs not restored at %v", p)
			}
		}
	}
}

func TestMatchRespectsForeignChannels(t *testing.T) {
	// A foreign channel hems in the short arm on one side; the detour must
	// go the other way and never touch foreign cells.
	g := grid.New(24, 12)
	obs := grid.NewObsMap(g)
	foreign := hPath(12, 22, 4)
	obs.SetPath(foreign, true)
	net := &Net{
		Segments:  []grid.Path{hPath(2, 10, 5), hPath(14, 10, 5)},
		FullPaths: [][]int{{0}, {1}},
	}
	markNet(obs, net)
	if !Match(route.NewWorkspace(obs.Grid()), obs, net, 1) {
		t.Fatal("match failed")
	}
	cells := map[geom.Pt]bool{}
	for _, s := range net.Segments {
		for _, c := range s {
			cells[c] = true
		}
	}
	for _, c := range foreign {
		if cells[c] {
			t.Errorf("detour overlaps foreign channel at %v", c)
		}
	}
}

func TestSpreadAndFullLen(t *testing.T) {
	net := &Net{
		Segments:  []grid.Path{hPath(0, 3, 0), hPath(0, 5, 1), hPath(0, 2, 2)},
		FullPaths: [][]int{{0, 2}, {1, 2}},
	}
	if net.FullLen(0) != 5 || net.FullLen(1) != 7 {
		t.Errorf("FullLen = %d,%d", net.FullLen(0), net.FullLen(1))
	}
	mn, mx := net.Spread()
	if mn != 5 || mx != 7 {
		t.Errorf("Spread = %d,%d", mn, mx)
	}
	if net.Matched(1) {
		t.Error("spread 2 should not match delta 1")
	}
	if !net.Matched(2) {
		t.Error("spread 2 should match delta 2")
	}
	empty := &Net{}
	if mn, mx := empty.Spread(); mn != 0 || mx != 0 {
		t.Error("empty net spread should be 0,0")
	}
}

func TestCloneIndependence(t *testing.T) {
	net := &Net{
		Segments:  []grid.Path{hPath(0, 3, 0)},
		FullPaths: [][]int{{0}},
	}
	c := net.Clone()
	c.Segments[0][0] = geom.Pt{X: 99, Y: 99}
	c.FullPaths[0][0] = 42
	if net.Segments[0][0] == (geom.Pt{X: 99, Y: 99}) || net.FullPaths[0][0] == 42 {
		t.Error("Clone aliases the original")
	}
}
