package route

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func mustPath(t *testing.T, p grid.Path, ok bool) grid.Path {
	t.Helper()
	if !ok {
		t.Fatal("routing failed")
	}
	if !p.Valid() {
		t.Fatalf("invalid path %v", p)
	}
	return p
}

func TestAStarStraightLine(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 1, Y: 1}},
		Targets: []geom.Pt{{X: 7, Y: 1}},
		Obs:     obs,
	})
	p = mustPath(t, p, ok)
	if p.Len() != 6 {
		t.Errorf("len = %d, want 6", p.Len())
	}
	if p[0] != (geom.Pt{X: 1, Y: 1}) || p[len(p)-1] != (geom.Pt{X: 7, Y: 1}) {
		t.Errorf("endpoints wrong: %v", p)
	}
}

func TestAStarAroundWall(t *testing.T) {
	g := grid.New(9, 9)
	obs := grid.NewObsMap(g)
	// Vertical wall at x=4 with no gaps except y=8.
	for y := 0; y < 8; y++ {
		obs.Set(geom.Pt{X: 4, Y: y}, true)
	}
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 8, Y: 0}},
		Obs:     obs,
	})
	p = mustPath(t, p, ok)
	// Must detour via y=8: 8 up + 8 across + 8 down = 24.
	if p.Len() != 24 {
		t.Errorf("len = %d, want 24", p.Len())
	}
	for _, c := range p {
		if obs.Blocked(c) {
			t.Errorf("path crosses obstacle at %v", c)
		}
	}
}

func TestAStarNoPath(t *testing.T) {
	g := grid.New(5, 5)
	obs := grid.NewObsMap(g)
	for y := 0; y < 5; y++ {
		obs.Set(geom.Pt{X: 2, Y: y}, true)
	}
	if _, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 4, Y: 4}},
		Obs:     obs,
	}); ok {
		t.Error("expected failure across full wall")
	}
}

func TestAStarMultiSourceMultiTarget(t *testing.T) {
	g := grid.New(20, 20)
	obs := grid.NewObsMap(g)
	// Path-to-path: nearest pair is (5,5)..(7,5) -> length 2.
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}, {X: 5, Y: 5}},
		Targets: []geom.Pt{{X: 19, Y: 19}, {X: 7, Y: 5}},
		Obs:     obs,
	})
	p = mustPath(t, p, ok)
	if p.Len() != 2 {
		t.Errorf("len = %d, want 2 (nearest source-target pair)", p.Len())
	}
}

func TestAStarTargetOnObstacleAllowed(t *testing.T) {
	// Routing onto an already-routed path: target cells are obstacle-exempt.
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	target := geom.Pt{X: 5, Y: 5}
	obs.Set(target, true)
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 5}},
		Targets: []geom.Pt{target},
		Obs:     obs,
	})
	p = mustPath(t, p, ok)
	if p[len(p)-1] != target {
		t.Error("did not land on target")
	}
}

func TestAStarHistoryAvoidance(t *testing.T) {
	g := grid.New(7, 3)
	obs := grid.NewObsMap(g)
	hist := make([]float64, g.Cells())
	// Penalize the straight row y=1 heavily.
	for x := 1; x < 6; x++ {
		hist[g.Index(geom.Pt{X: x, Y: 1})] = 10
	}
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 1}},
		Targets: []geom.Pt{{X: 6, Y: 1}},
		Obs:     obs,
		Hist:    hist,
	})
	p = mustPath(t, p, ok)
	// Detour around the hot row: length 8 instead of 6.
	if p.Len() != 8 {
		t.Errorf("len = %d, want 8 (history detour)", p.Len())
	}
}

func TestAStarEmptyRequests(t *testing.T) {
	g := grid.New(4, 4)
	if _, ok := NewWorkspace(g).AStar(g, Request{}); ok {
		t.Error("empty request should fail")
	}
	if _, ok := NewWorkspace(g).AStar(g, Request{Sources: []geom.Pt{{X: 0, Y: 0}}}); ok {
		t.Error("no targets should fail")
	}
	if _, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 9, Y: 9}}, // off-grid
	}); ok {
		t.Error("off-grid target should fail")
	}
}

func TestAStarSourceEqualsTarget(t *testing.T) {
	g := grid.New(4, 4)
	p, ok := NewWorkspace(g).AStar(g, Request{
		Sources: []geom.Pt{{X: 2, Y: 2}},
		Targets: []geom.Pt{{X: 2, Y: 2}},
	})
	p = mustPath(t, p, ok)
	if p.Len() != 0 || len(p) != 1 {
		t.Errorf("trivial path = %v", p)
	}
}

func TestAStarOptimalityVsBFS(t *testing.T) {
	// Cross-check A* lengths against plain BFS on a maze.
	g := grid.New(15, 15)
	obs := grid.NewObsMap(g)
	for i := 0; i < 15; i += 2 {
		for y := 0; y < 12; y++ {
			obs.Set(geom.Pt{X: i, Y: (y + i) % 15}, true)
		}
	}
	src := geom.Pt{X: 1, Y: 14}
	dst := geom.Pt{X: 13, Y: 0}
	if obs.Blocked(src) || obs.Blocked(dst) {
		t.Fatal("bad test setup")
	}
	req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
	want := reachable(g, req)
	p, ok := NewWorkspace(g).AStar(g, req)
	if want == -1 {
		if ok {
			t.Fatal("A* found path where BFS did not")
		}
		return
	}
	p = mustPath(t, p, ok)
	if p.Len() != want {
		t.Errorf("A* len %d, BFS len %d", p.Len(), want)
	}
}

// reachable is the A* oracle: a plain BFS from the request's sources over
// the cells a search may enter (a target, or a cell in the request's window
// that Obs leaves free). It returns the fewest steps to a target, or -1.
func reachable(g grid.Grid, req Request) int {
	target := map[geom.Pt]bool{}
	for _, c := range req.Targets {
		target[c] = true
	}
	dist := make([]int, g.Cells())
	for i := range dist {
		dist[i] = -1
	}
	var queue []geom.Pt
	for _, c := range req.Sources {
		if g.In(c) && dist[g.Index(c)] < 0 {
			dist[g.Index(c)] = 0
			queue = append(queue, c)
		}
	}
	var nbuf []geom.Pt
	for k := 0; k < len(queue); k++ {
		p := queue[k]
		if target[p] {
			return dist[g.Index(p)]
		}
		nbuf = g.Neighbors(p, nbuf)
		for _, q := range nbuf {
			j := g.Index(q)
			if dist[j] >= 0 || !target[q] && (!req.inBounds(q) || req.Obs.Blocked(q)) {
				continue
			}
			dist[j] = dist[g.Index(p)] + 1
			queue = append(queue, q)
		}
	}
	return -1
}
