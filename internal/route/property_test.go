package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestAStarMatchesBFSRandomMazes: on random obstacle fields, A* path length
// must equal BFS shortest-path length (or both must fail).
func TestAStarMatchesBFSRandomMazes(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		w, h := 8+rng.Intn(20), 8+rng.Intn(20)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		density := 0.1 + rng.Float64()*0.3
		for i := 0; i < g.Cells(); i++ {
			if rng.Float64() < density {
				obs.Set(g.Pt(i), true)
			}
		}
		src := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
		dst := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
		obs.Set(src, false)
		obs.Set(dst, false)
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
		want := reachable(g, req)
		p, ok := NewWorkspace(g).AStar(g, req)
		if (want == -1) != !ok {
			t.Fatalf("trial %d: BFS=%d ok=%v disagree", trial, want, ok)
		}
		if ok {
			if p.Len() != want {
				t.Fatalf("trial %d: A* %d != BFS %d", trial, p.Len(), want)
			}
			if !p.ValidOn(g) {
				t.Fatalf("trial %d: invalid path", trial)
			}
			for _, c := range p {
				if obs.Blocked(c) && c != src && c != dst {
					t.Fatalf("trial %d: path through obstacle %v", trial, c)
				}
			}
		}
	}
}

// walledPocket grows a random connected pocket of size cells from dst
// (fewer if the grid runs out), frees it and blocks every cell bordering it.
// It returns the pocket and its walls.
func walledPocket(rng *rand.Rand, obs *grid.ObsMap, dst geom.Pt, size int) (pocket, walls []geom.Pt) {
	g := obs.Grid()
	in := map[geom.Pt]bool{dst: true}
	pocket = []geom.Pt{dst}
	for tries := 0; len(pocket) < size && tries < 100*size; tries++ {
		q := pocket[rng.Intn(len(pocket))].Add(grid.Dirs[rng.Intn(len(grid.Dirs))])
		if g.In(q) && !in[q] {
			in[q] = true
			pocket = append(pocket, q)
		}
	}
	wall := map[geom.Pt]bool{}
	var nbuf []geom.Pt
	for _, c := range pocket {
		obs.Set(c, false)
		nbuf = g.Neighbors(c, nbuf)
		for _, q := range nbuf {
			if !in[q] && !wall[q] {
				wall[q] = true
				walls = append(walls, q)
				obs.Set(q, true)
			}
		}
	}
	return pocket, walls
}

// TestSealedPocketVerdictsMatchBFS: on random grids whose target is walled
// into a pocket of 1–80 cells (sealed, leaky through one reopened wall cell,
// or larger than pocketCap), every search agrees with a plain BFS from its
// sources on success (and, without history, on length), a search that ends
// on a sealed-pocket verdict has no path by that BFS and a pocket of at most
// pocketCap cells, and the heap and the ring reach the same verdicts. Some
// requests list a target twice or add a second pocket cell, some carry a
// Bounds window, and some add a blocked source on the pocket's wall.
func TestSealedPocketVerdictsMatchBFS(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	verdicts, sealedOverCap, leaky := 0, 0, 0
	for trial := 0; trial < 400; trial++ {
		w, h := 16+rng.Intn(24), 16+rng.Intn(24)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/12; i++ {
			obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		dst := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
		pocket, walls := walledPocket(rng, obs, dst, 1+rng.Intn(80))
		if rng.Intn(3) == 0 {
			obs.Set(walls[rng.Intn(len(walls))], false)
			leaky++
		}
		in := map[geom.Pt]bool{}
		for _, c := range append(pocket, walls...) {
			in[c] = true
		}
		src := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
		for in[src] {
			src = geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
		}
		obs.Set(src, false)
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
		if rng.Intn(4) == 0 {
			req.Targets = append(req.Targets, dst, pocket[rng.Intn(len(pocket))])
		}
		if rng.Intn(3) == 0 {
			// A second source on the pocket's wall, blocked as negotiation
			// blocks its terminals, and costly pocket cells: the search
			// floods the outside before it enters the pocket, so the
			// certificate runs while a source borders the pocket.
			rim := walls[rng.Intn(len(walls))]
			obs.Set(rim, true)
			req.Sources = append(req.Sources, rim)
			hist := make([]float64, g.Cells())
			for _, c := range pocket {
				hist[g.Index(c)] = 8
			}
			req.Hist, req.HistScale, req.HistMax = hist, 1, 9
		}
		if rng.Intn(4) == 0 {
			b := geom.Rect{MinX: rng.Intn(src.X + 1), MinY: rng.Intn(src.Y + 1),
				MaxX: src.X + rng.Intn(w-src.X), MaxY: src.Y + rng.Intn(h-src.Y)}
			req.Bounds = &b
		}
		want := reachable(g, req)
		if want < 0 && req.Bounds == nil && len(pocket) > pocketCap {
			sealedOverCap++
		}
		var verdict [2]bool
		for k, heapOnly := range []bool{false, true} {
			ws := NewWorkspace(g)
			ws.heapOnly = heapOnly
			p, ok := ws.AStar(g, req)
			verdict[k] = ws.sealed > 0
			if ok != (want >= 0) || ok && req.Hist == nil && p.Len() != want {
				t.Fatalf("trial %d heapOnly=%v: A* ok=%v len %d, BFS %d (verdict %v)", trial, heapOnly, ok, p.Len(), want, verdict[k])
			}
			if verdict[k] && req.Bounds == nil && len(pocket) > pocketCap {
				t.Fatalf("trial %d heapOnly=%v: sealed verdict on a %d-cell pocket, above pocketCap %d", trial, heapOnly, len(pocket), pocketCap)
			}
		}
		if verdict[0] != verdict[1] {
			t.Fatalf("trial %d: the ring's verdict %v differs from the heap's %v", trial, verdict[0], verdict[1])
		}
		if verdict[0] {
			verdicts++
		}
	}
	if verdicts == 0 || sealedOverCap == 0 || leaky == 0 {
		t.Fatalf("the trials produced %d verdicts, %d sealed pockets above pocketCap and %d leaky pockets; each must be nonzero",
			verdicts, sealedOverCap, leaky)
	}
}

// TestBoundedAStarWindowInvariant: any returned path has length within the
// requested window and stays simple.
func TestBoundedAStarWindowInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 50; trial++ {
		g := grid.New(16, 16)
		obs := grid.NewObsMap(g)
		for i := 0; i < 25; i++ {
			obs.Set(geom.Pt{X: rng.Intn(16), Y: rng.Intn(16)}, true)
		}
		src := geom.Pt{X: rng.Intn(16), Y: rng.Intn(16)}
		dst := geom.Pt{X: rng.Intn(16), Y: rng.Intn(16)}
		if src == dst {
			continue
		}
		obs.Set(src, false)
		obs.Set(dst, false)
		d := geom.Dist(src, dst)
		minLen := d + rng.Intn(10)
		maxLen := minLen + 1 + rng.Intn(4)
		p, ok := NewWorkspace(g).BoundedAStar(g, Request{
			Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs,
		}, minLen, maxLen)
		if !ok {
			continue // failure is allowed; success must be correct
		}
		if p.Len() < minLen || p.Len() > maxLen {
			t.Fatalf("trial %d: len %d outside [%d,%d]", trial, p.Len(), minLen, maxLen)
		}
		if !p.Valid() {
			t.Fatalf("trial %d: non-simple path", trial)
		}
		if p[0] != src || p[len(p)-1] != dst {
			t.Fatalf("trial %d: endpoints moved", trial)
		}
	}
}

// TestBoundedAStarFindsParityFeasibleWindows: on an empty grid, every
// parity-feasible window must be achievable.
func TestBoundedAStarFindsParityFeasibleWindows(t *testing.T) {
	g := grid.New(30, 30)
	obs := grid.NewObsMap(g)
	src := geom.Pt{X: 5, Y: 15}
	dst := geom.Pt{X: 12, Y: 15} // distance 7, odd
	for minLen := 7; minLen <= 21; minLen++ {
		maxLen := minLen
		feasible := (minLen-7)%2 == 0
		p, ok := NewWorkspace(g).BoundedAStar(g, Request{
			Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs,
		}, minLen, maxLen)
		if feasible && !ok {
			t.Errorf("window [%d,%d]: parity-feasible but failed", minLen, maxLen)
		}
		if !feasible && ok {
			t.Errorf("window [%d,%d]: parity-infeasible but returned %d", minLen, maxLen, p.Len())
		}
	}
}

// TestExtendPathInvariants: extension preserves endpoints, validity, and
// adds even length.
func TestExtendPathInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		g := grid.New(24, 24)
		obs := grid.NewObsMap(g)
		for i := 0; i < 30; i++ {
			obs.Set(geom.Pt{X: rng.Intn(24), Y: rng.Intn(24)}, true)
		}
		// Random L-shaped base path.
		x0, y0 := 2+rng.Intn(10), 2+rng.Intn(20)
		x1 := x0 + 3 + rng.Intn(8)
		var base grid.Path
		for x := x0; x <= x1; x++ {
			p := geom.Pt{X: x, Y: y0}
			obs.Set(p, false)
			base = append(base, p)
		}
		obs.SetPath(base, true)
		work := obs.Clone()
		work.SetPath(base, false)
		target := base.Len() + 2*(1+rng.Intn(5))
		ext, ok := ExtendPath(work, base, target, target+1)
		if !ok {
			continue
		}
		if ext.Len() != target {
			t.Fatalf("trial %d: len %d, want %d (even increments)", trial, ext.Len(), target)
		}
		if ext[0] != base[0] || ext[len(ext)-1] != base[len(base)-1] {
			t.Fatalf("trial %d: endpoints moved", trial)
		}
		if !ext.ValidOn(g) {
			t.Fatalf("trial %d: invalid extension", trial)
		}
		for _, c := range ext[1 : len(ext)-1] {
			if work.Blocked(c) && !base.Contains(c) {
				t.Fatalf("trial %d: extension through obstacle %v", trial, c)
			}
		}
	}
}

// TestNegotiateRandomValidity: on random multi-edge instances, success means
// pairwise-disjoint valid paths avoiding obstacles.
func TestNegotiateRandomValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		g := grid.New(20, 20)
		obs := grid.NewObsMap(g)
		for i := 0; i < 20; i++ {
			obs.Set(geom.Pt{X: rng.Intn(20), Y: rng.Intn(20)}, true)
		}
		var edges []Edge
		used := map[geom.Pt]bool{}
		pick := func() geom.Pt {
			for {
				p := geom.Pt{X: rng.Intn(20), Y: rng.Intn(20)}
				if !used[p] {
					used[p] = true
					obs.Set(p, false)
					return p
				}
			}
		}
		n := 2 + rng.Intn(4)
		for i := 0; i < n; i++ {
			edges = append(edges, Edge{ID: i, Sources: []geom.Pt{pick()}, Targets: []geom.Pt{pick()}})
		}
		paths, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, DefaultNegotiateParams(), nil)
		if !ok {
			continue
		}
		if len(paths) != n {
			t.Fatalf("trial %d: %d paths for %d edges", trial, len(paths), n)
		}
		seen := map[geom.Pt]int{}
		for id, p := range paths {
			if !p.ValidOn(g) {
				t.Fatalf("trial %d: invalid path", trial)
			}
			if p[0] != edges[id].Sources[0] || p[len(p)-1] != edges[id].Targets[0] {
				t.Fatalf("trial %d edge %d: endpoints wrong", trial, id)
			}
			for _, c := range p {
				if other, dup := seen[c]; dup && other != id {
					t.Fatalf("trial %d: cell %v shared by %d and %d", trial, c, other, id)
				}
				seen[c] = id
				if obs.Blocked(c) {
					t.Fatalf("trial %d: path through obstacle %v", trial, c)
				}
			}
		}
	}
}
