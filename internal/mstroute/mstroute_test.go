package mstroute

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

func TestMSTLine(t *testing.T) {
	pts := []geom.Pt{{X: 0, Y: 0}, {X: 5, Y: 0}, {X: 2, Y: 0}}
	edges := MST(pts)
	if len(edges) != 2 {
		t.Fatalf("edges = %d, want 2", len(edges))
	}
	total := 0
	for _, e := range edges {
		total += geom.Dist(pts[e[0]], pts[e[1]])
	}
	if total != 5 {
		t.Errorf("MST weight = %d, want 5 (0-2-5 chain)", total)
	}
}

func TestMSTTrivial(t *testing.T) {
	if MST(nil) != nil {
		t.Error("empty MST should be nil")
	}
	if MST([]geom.Pt{{X: 1, Y: 1}}) != nil {
		t.Error("singleton MST should be nil")
	}
}

func TestMSTWeightVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(6)
		pts := make([]geom.Pt, n)
		seen := map[geom.Pt]bool{}
		for i := range pts {
			for {
				p := geom.Pt{X: rng.Intn(15), Y: rng.Intn(15)}
				if !seen[p] {
					pts[i] = p
					seen[p] = true
					break
				}
			}
		}
		edges := MST(pts)
		got := 0
		for _, e := range edges {
			got += geom.Dist(pts[e[0]], pts[e[1]])
		}
		want := bruteMST(pts)
		if got != want {
			t.Errorf("trial %d: Prim %d, brute force %d", trial, got, want)
		}
	}
}

// bruteMST: Kruskal with full edge enumeration as an independent reference.
func bruteMST(pts []geom.Pt) int {
	n := len(pts)
	type edge struct{ w, a, b int }
	var es []edge
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			es = append(es, edge{geom.Dist(pts[a], pts[b]), a, b})
		}
	}
	for i := range es {
		for j := i + 1; j < len(es); j++ {
			if es[j].w < es[i].w {
				es[i], es[j] = es[j], es[i]
			}
		}
	}
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	total, cnt := 0, 0
	for _, e := range es {
		ra, rb := find(e.a), find(e.b)
		if ra != rb {
			parent[ra] = rb
			total += e.w
			cnt++
		}
	}
	if cnt != n-1 {
		panic("disconnected")
	}
	return total
}

func TestRouteClusterOpenGrid(t *testing.T) {
	g := grid.New(20, 20)
	obs := grid.NewObsMap(g)
	terms := []geom.Pt{{X: 2, Y: 2}, {X: 15, Y: 2}, {X: 2, Y: 15}, {X: 15, Y: 15}}
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, terms)
	if !ok {
		t.Fatalf("routing failed: %+v", res.Failed)
	}
	if len(res.Paths) != 3 {
		t.Errorf("paths = %d, want 3", len(res.Paths))
	}
	if !Connected(terms, res.Paths) {
		t.Error("routed tree not connected")
	}
	for _, p := range res.Paths {
		if !p.ValidOn(g) {
			t.Errorf("invalid path %v", p)
		}
	}
}

func TestRouteClusterPointToPathShortens(t *testing.T) {
	// Three collinear terminals: point-to-path attaches the middle one with
	// zero-length or the side one directly onto the trunk, so total length
	// equals the MST weight (no double routing).
	g := grid.New(20, 5)
	obs := grid.NewObsMap(g)
	terms := []geom.Pt{{X: 1, Y: 2}, {X: 18, Y: 2}, {X: 9, Y: 2}}
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, terms)
	if !ok {
		t.Fatal("routing failed")
	}
	if res.TotalLen() != 17 {
		t.Errorf("total length = %d, want 17 (collinear chain)", res.TotalLen())
	}
	if !Connected(terms, res.Paths) {
		t.Error("not connected")
	}
}

func TestRouteClusterWithObstacles(t *testing.T) {
	g := grid.New(15, 15)
	obs := grid.NewObsMap(g)
	for y := 2; y < 13; y++ {
		obs.Set(geom.Pt{X: 7, Y: y}, true)
	}
	terms := []geom.Pt{{X: 2, Y: 7}, {X: 12, Y: 7}}
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, terms)
	if !ok {
		t.Fatal("routing failed")
	}
	if !Connected(terms, res.Paths) {
		t.Error("not connected")
	}
	for _, p := range res.Paths {
		for _, c := range p {
			if c.X == 7 && c.Y >= 2 && c.Y < 13 {
				t.Errorf("path crosses wall at %v", c)
			}
		}
	}
}

func TestRouteClusterFailure(t *testing.T) {
	g := grid.New(9, 9)
	obs := grid.NewObsMap(g)
	// Seal the second terminal in a box.
	target := geom.Pt{X: 6, Y: 6}
	for _, d := range []geom.Pt{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}} {
		obs.Set(target.Add(d), true)
	}
	terms := []geom.Pt{{X: 1, Y: 1}, target}
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, terms)
	if ok {
		t.Fatal("sealed terminal should fail")
	}
	if len(res.Failed) != 1 || res.Failed[0] != 1 {
		t.Errorf("Failed = %v, want [1]", res.Failed)
	}
}

func TestRouteClusterSingleton(t *testing.T) {
	g := grid.New(5, 5)
	obs := grid.NewObsMap(g)
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, []geom.Pt{{X: 2, Y: 2}})
	if !ok || len(res.Paths) != 0 {
		t.Error("singleton cluster should trivially succeed with no paths")
	}
}

func TestRouteClusterMarksObstacles(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	terms := []geom.Pt{{X: 1, Y: 1}, {X: 8, Y: 1}}
	res, ok := RouteCluster(route.NewWorkspace(obs.Grid()), obs, terms)
	if !ok {
		t.Fatal("routing failed")
	}
	for _, p := range res.Paths {
		for _, c := range p {
			if !obs.Blocked(c) {
				t.Errorf("path cell %v not marked as obstacle", c)
			}
		}
	}
}

func TestConnectedDetectsDisconnection(t *testing.T) {
	terms := []geom.Pt{{X: 0, Y: 0}, {X: 5, Y: 5}}
	if Connected(terms, nil) {
		t.Error("two terminals with no paths cannot be connected")
	}
	paths := []grid.Path{{{X: 0, Y: 0}, {X: 1, Y: 0}}}
	if Connected(terms, paths) {
		t.Error("partial path should not connect")
	}
	full := []grid.Path{{
		{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 2, Y: 0}, {X: 3, Y: 0}, {X: 4, Y: 0}, {X: 5, Y: 0},
		{X: 5, Y: 1}, {X: 5, Y: 2}, {X: 5, Y: 3}, {X: 5, Y: 4}, {X: 5, Y: 5},
	}}
	if !Connected(terms, full) {
		t.Error("full path should connect")
	}
}
