package dme

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestBalancedBipartitionShape(t *testing.T) {
	sinks := []geom.Pt{{X: 0, Y: 0}, {X: 10, Y: 0}, {X: 0, Y: 10}, {X: 10, Y: 10}}
	topo := BalancedBipartition(sinks)
	if topo.Leaves() != 4 {
		t.Fatalf("leaves = %d, want 4", topo.Leaves())
	}
	if len(topo.Nodes) != 7 {
		t.Fatalf("nodes = %d, want 7 (balanced binary over 4)", len(topo.Nodes))
	}
	// Every sink appears exactly once.
	seen := map[int]int{}
	for _, nd := range topo.Nodes {
		if nd.Sink >= 0 {
			seen[nd.Sink]++
		}
	}
	for i := 0; i < 4; i++ {
		if seen[i] != 1 {
			t.Errorf("sink %d appears %d times", i, seen[i])
		}
	}
}

func TestBalancedBipartitionMinimizesDiameters(t *testing.T) {
	// Two tight pairs far apart: BB must pair the close ones.
	sinks := []geom.Pt{{X: 0, Y: 0}, {X: 1, Y: 0}, {X: 20, Y: 20}, {X: 21, Y: 20}}
	topo := BalancedBipartition(sinks)
	root := topo.Nodes[topo.Root]
	groupOf := func(n int) map[int]bool {
		g := map[int]bool{}
		var rec func(int)
		rec = func(i int) {
			nd := topo.Nodes[i]
			if nd.Sink >= 0 {
				g[nd.Sink] = true
				return
			}
			rec(nd.Left)
			rec(nd.Right)
		}
		rec(n)
		return g
	}
	l := groupOf(root.Left)
	if !(l[0] && l[1]) && !(l[2] && l[3]) {
		t.Errorf("BB split %v does not pair the close sinks", l)
	}
}

func TestBalancedBipartitionLargeHeuristic(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sinks := make([]geom.Pt, 20) // above exactBBLimit
	seen := map[geom.Pt]bool{}
	for i := range sinks {
		for {
			p := geom.Pt{X: rng.Intn(60), Y: rng.Intn(60)}
			if !seen[p] {
				sinks[i], seen[p] = p, true
				break
			}
		}
	}
	topo := BalancedBipartition(sinks)
	if topo.Leaves() != 20 {
		t.Fatalf("leaves = %d", topo.Leaves())
	}
	if len(topo.Nodes) != 39 {
		t.Fatalf("nodes = %d, want 39", len(topo.Nodes))
	}
}

func TestBalancedBipartitionEmpty(t *testing.T) {
	topo := BalancedBipartition(nil)
	if topo.Root != -1 || topo.Leaves() != 0 {
		t.Error("empty sink set should give empty topology")
	}
}

func TestMergeSegmentsEvenPair(t *testing.T) {
	sinks := []geom.Pt{{X: 0, Y: 0}, {X: 4, Y: 0}}
	topo := BalancedBipartition(sinks)
	info := mergeSegments(sinks, topo)
	root := info[topo.Root]
	if root.ea+root.eb != 4 {
		t.Errorf("ea+eb = %d, want 4", root.ea+root.eb)
	}
	if root.ea != 2 || root.eb != 2 {
		t.Errorf("ea,eb = %d,%d, want 2,2", root.ea, root.eb)
	}
	if root.t != 2 {
		t.Errorf("t = %d, want 2", root.t)
	}
	// Every grid point of the merging segment is equidistant (2) from both.
	for _, p := range root.ms.GridPoints(0) {
		if geom.Dist(p, sinks[0]) != 2 || geom.Dist(p, sinks[1]) != 2 {
			t.Errorf("ms point %v not equidistant", p)
		}
	}
}

func TestMergeSegmentsOddPairLemma1(t *testing.T) {
	// Odd distance: rounding forces a +-1 skew (Lemma 1).
	sinks := []geom.Pt{{X: 0, Y: 0}, {X: 3, Y: 0}}
	topo := BalancedBipartition(sinks)
	info := mergeSegments(sinks, topo)
	root := info[topo.Root]
	if root.ea+root.eb != 3 {
		t.Errorf("ea+eb = %d, want 3", root.ea+root.eb)
	}
	if geom.Abs(root.ea-root.eb) != 1 {
		t.Errorf("|ea-eb| = %d, want 1", geom.Abs(root.ea-root.eb))
	}
	if root.ms.Empty() {
		t.Error("merging region empty")
	}
}

func TestMergeSegmentsDetourCase(t *testing.T) {
	// Three collinear sinks: pairing (0,0)-(2,0) gives t=1; merging with the
	// far sink (20,0) at distance ~19 with diff 1 <= d works normally; build
	// an explicit deep-vs-shallow case instead with 4 sinks.
	sinks := []geom.Pt{{X: 0, Y: 0}, {X: 40, Y: 0}, {X: 100, Y: 0}, {X: 101, Y: 0}}
	topo := BalancedBipartition(sinks)
	info := mergeSegments(sinks, topo)
	root := info[topo.Root]
	// Left pair diameter 40 -> t=20; right pair t=0 or 1; distance between
	// merge regions < 20 means the right edge detours.
	if root.ea != 0 && root.eb != 0 {
		// Detour manifests as one side zero and other side = t-difference.
		la, lb := info[topo.Nodes[topo.Root].Left], info[topo.Nodes[topo.Root].Right]
		d := la.ms.DistTRR(lb.ms)
		if geom.Abs(la.t-lb.t) > d {
			t.Errorf("expected detour split, got ea=%d eb=%d (d=%d, ta=%d tb=%d)",
				root.ea, root.eb, d, la.t, lb.t)
		}
	}
}

func TestEmbedFourSinksZeroMismatch(t *testing.T) {
	// Symmetric 4-sink cluster on an empty chip: DME must embed with ΔL <= 1.
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	sinks := []geom.Pt{{X: 10, Y: 10}, {X: 30, Y: 10}, {X: 10, Y: 30}, {X: 30, Y: 30}}
	trees := Candidates(obs, sinks, 6)
	if len(trees) == 0 {
		t.Fatal("no candidates")
	}
	for _, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		if tr.DeltaL() != 0 {
			t.Errorf("symmetric cluster ΔL = %d, want 0", tr.DeltaL())
		}
	}
}

func TestEmbedAsymmetricBounds(t *testing.T) {
	g := grid.New(60, 60)
	obs := grid.NewObsMap(g)
	sinks := []geom.Pt{{X: 5, Y: 5}, {X: 50, Y: 7}, {X: 12, Y: 44}, {X: 33, Y: 21}, {X: 48, Y: 48}}
	trees := Candidates(obs, sinks, 8)
	if len(trees) == 0 {
		t.Fatal("no candidates")
	}
	for _, tr := range trees {
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		// Rounding can cost at most 1 per internal merge on the path; with 5
		// sinks the tree depth is 3, so ΔL should be small.
		if tr.DeltaL() > 3 {
			t.Errorf("ΔL = %d, want <= 3", tr.DeltaL())
		}
	}
}

func TestCandidatesDistinct(t *testing.T) {
	// Diagonally offset pairs give non-degenerate (segment) merging regions,
	// hence multiple embedding choices (Figure 3).
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	sinks := []geom.Pt{{X: 5, Y: 5}, {X: 17, Y: 11}, {X: 5, Y: 25}, {X: 17, Y: 31}}
	trees := Candidates(obs, sinks, 6)
	if len(trees) < 2 {
		t.Fatalf("want multiple candidates, got %d", len(trees))
	}
	seen := map[string]bool{}
	for _, tr := range trees {
		k := treeKey(tr)
		if seen[k] {
			t.Error("duplicate candidate tree")
		}
		seen[k] = true
	}
}

func TestEmbedAvoidsObstacles(t *testing.T) {
	g := grid.New(30, 30)
	obs := grid.NewObsMap(g)
	// Block the natural center merge area.
	obs.SetRect(geom.Rect{MinX: 12, MinY: 12, MaxX: 18, MaxY: 18}, true)
	sinks := []geom.Pt{{X: 5, Y: 5}, {X: 25, Y: 5}, {X: 5, Y: 25}, {X: 25, Y: 25}}
	trees := Candidates(obs, sinks, 6)
	if len(trees) == 0 {
		t.Fatal("no candidates with blocked center")
	}
	for _, tr := range trees {
		for n, pos := range tr.Pos {
			if tr.Topo.Nodes[n].Sink >= 0 {
				continue
			}
			if obs.Blocked(pos) {
				t.Errorf("internal node %d embedded on obstacle %v", n, pos)
			}
		}
		if err := tr.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestEmbedTwoSinks(t *testing.T) {
	g := grid.New(20, 20)
	obs := grid.NewObsMap(g)
	sinks := []geom.Pt{{X: 2, Y: 2}, {X: 14, Y: 2}}
	trees := Candidates(obs, sinks, 4)
	if len(trees) == 0 {
		t.Fatal("no candidates")
	}
	tr := trees[0]
	lens := tr.LeafFullLens()
	if geom.Abs(lens[0]-lens[1]) > 1 {
		t.Errorf("two-sink mismatch %v", lens)
	}
	if tr.TotalReq() < 12 {
		t.Errorf("total length %d below Manhattan distance 12", tr.TotalReq())
	}
}

func TestEmbedSingleSink(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	trees := Candidates(obs, []geom.Pt{{X: 3, Y: 3}}, 4)
	if len(trees) != 1 {
		t.Fatalf("candidates = %d, want 1", len(trees))
	}
	if trees[0].Root() != (geom.Pt{X: 3, Y: 3}) {
		t.Error("single-sink root must be the sink")
	}
	if trees[0].DeltaL() != 0 || trees[0].TotalReq() != 0 {
		t.Error("single-sink tree must be trivial")
	}
}

func TestEdgesChildFirst(t *testing.T) {
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	sinks := []geom.Pt{{X: 10, Y: 10}, {X: 30, Y: 10}, {X: 10, Y: 30}, {X: 30, Y: 30}}
	trees := Candidates(obs, sinks, 1)
	if len(trees) == 0 {
		t.Fatal("no candidates")
	}
	edges := trees[0].Edges()
	if len(edges) != 6 {
		t.Fatalf("edges = %d, want 6", len(edges))
	}
	// Child-first: by the time an edge references a parent node as Child,
	// its own child edges must already have appeared.
	seenAsChild := map[int]bool{}
	for _, e := range edges {
		seenAsChild[e.Child] = true
	}
	for i, e := range edges {
		nd := trees[0].Topo.Nodes[e.Child]
		if nd.Sink >= 0 {
			continue
		}
		found := 0
		for _, prev := range edges[:i] {
			if prev.Parent == e.Child {
				found++
			}
		}
		if found != 2 {
			t.Errorf("edge %d: internal child %d has %d earlier sub-edges, want 2", i, e.Child, found)
		}
	}
}

func TestFreeNearRing(t *testing.T) {
	g := grid.New(11, 11)
	obs := grid.NewObsMap(g)
	c := geom.Pt{X: 5, Y: 5}
	obs.Set(c, true)
	used := map[geom.Pt]bool{}
	p := freeNear(obs, used, c)
	if geom.Dist(p, c) != 1 {
		t.Errorf("freeNear = %v, want an adjacent cell", p)
	}
	// Block radius-1 ring too.
	for _, d := range []geom.Pt{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}} {
		obs.Set(c.Add(d), true)
	}
	used[geom.Pt{X: 5, Y: 7}] = true // and one used cell at radius 2
	p = freeNear(obs, used, c)
	if geom.Dist(p, c) != 2 || used[p] || obs.Blocked(p) {
		t.Errorf("freeNear = %v, want a free radius-2 cell", p)
	}
}
