package route

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// scatterObs builds a grid with deterministic random obstacles, keeping the
// corners free.
func scatterObs(w, h, blocks int, seed int64) (grid.Grid, *grid.ObsMap) {
	g := grid.New(w, h)
	obs := grid.NewObsMap(g)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < blocks; i++ {
		obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
	}
	obs.Set(geom.Pt{X: 0, Y: 0}, false)
	obs.Set(geom.Pt{X: w - 1, Y: h - 1}, false)
	return g, obs
}

// TestWorkspaceReuseMatchesFresh pins workspace reuse: one workspace reused
// across 200 searches returns, path for path, what a fresh workspace per
// search returns.
func TestWorkspaceReuseMatchesFresh(t *testing.T) {
	g, obs := scatterObs(48, 48, 400, 3)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		src := geom.Pt{X: rng.Intn(48), Y: rng.Intn(48)}
		dst := geom.Pt{X: rng.Intn(48), Y: rng.Intn(48)}
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
		p1, ok1 := NewWorkspace(g).AStar(g, req)
		p2, ok2 := ws.AStar(g, req)
		if ok1 != ok2 || !pathsEqual(p1, p2) {
			t.Fatalf("search %d (%v->%v): reused ok=%v %v, fresh ok=%v %v", i, src, dst, ok2, p2, ok1, p1)
		}
	}
}

// reuseCase is one search of the grid-alternation tests: an A* or bounded
// request on its own grid.
type reuseCase struct {
	g              grid.Grid
	req            Request
	bounded        bool
	minLen, maxLen int
}

// run searches c on ws.
func (c reuseCase) run(ws *Workspace) (grid.Path, bool) {
	if c.bounded {
		return ws.BoundedAStar(c.g, c.req, c.minLen, c.maxLen)
	}
	return ws.AStar(c.g, c.req)
}

// alternatingCases builds corner-to-corner A* and bounded searches on a
// 16×16, a 32×8 (the same cell count, another shape) and a 40×40 grid.
func alternatingCases() []reuseCase {
	var cases []reuseCase
	for i, dim := range [][3]int{{16, 16, 40}, {32, 8, 0}, {40, 40, 300}} {
		g, obs := scatterObs(dim[0], dim[1], dim[2], int64(5+i))
		req := Request{
			Sources: []geom.Pt{{X: 0, Y: 0}},
			Targets: []geom.Pt{{X: dim[0] - 1, Y: dim[1] - 1}},
			Obs:     obs,
		}
		d := dim[0] + dim[1] - 2
		cases = append(cases,
			reuseCase{g: g, req: req},
			reuseCase{g: g, req: req, bounded: true, minLen: d + 4, maxLen: d + 6})
	}
	return cases
}

// checkAlternation runs every case rounds times on ws, in order, and checks
// each result path for path against a fresh NewWorkspace.
func checkAlternation(t *testing.T, ws *Workspace, rounds int) {
	t.Helper()
	cases := alternatingCases()
	for r := 0; r < rounds; r++ {
		for i, c := range cases {
			want, wantOK := c.run(NewWorkspace(c.g))
			got, gotOK := c.run(ws)
			if gotOK != wantOK || !pathsEqual(got, want) {
				t.Fatalf("round %d case %d (%dx%d bounded=%v): reused ok=%v %v, fresh ok=%v %v",
					r, i, c.g.W, c.g.H, c.bounded, gotOK, got, wantOK, want)
			}
		}
	}
}

// TestZeroWorkspaceSearches pins that a zero Workspace needs no constructor:
// it grows on its first search and then answers like a fresh NewWorkspace.
func TestZeroWorkspaceSearches(t *testing.T) {
	var ws Workspace
	checkAlternation(t, &ws, 1)
	if ws.cells == 0 {
		t.Fatal("zero workspace did not grow on first use")
	}
}

// TestZeroWorkspaceNegotiates: a zero Workspace also negotiates on first
// use, with the paths and counters of a fresh NewWorkspace.
func TestZeroWorkspaceNegotiates(t *testing.T) {
	g, obs, edges := laneScenario(6)
	var wantStats, gotStats NegotiateStats
	want, wantOK := NewWorkspace(g).Negotiate(obs, edges, DefaultNegotiateParams(), &wantStats)
	var ws Workspace
	got, gotOK := ws.Negotiate(obs, edges, DefaultNegotiateParams(), &gotStats)
	if gotOK != wantOK || !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("zero workspace ok=%v stats %+v, fresh ok=%v stats %+v", gotOK, gotStats, wantOK, wantStats)
	}
	pathsIdentical(t, "zero workspace", got, want)
}

// TestWorkspaceAlternatesGrids: one workspace alternating between the
// three grids for several rounds matches a fresh workspace on every search.
func TestWorkspaceAlternatesGrids(t *testing.T) {
	checkAlternation(t, NewWorkspace(grid.New(16, 16)), 4)
}

// TestWorkspaceCrossGridReuse: a workspace sized for the largest grid
// shrinks and regrows through the alternation without stale state.
func TestWorkspaceCrossGridReuse(t *testing.T) {
	ws := NewWorkspace(grid.New(40, 40))
	checkAlternation(t, ws, 2)
	if ws.cells != 40*40 {
		t.Fatalf("workspace ended sized for %d cells, want the last grid's %d", ws.cells, 40*40)
	}
}

// TestWorkspaceSameCellCountNoResize: a workspace sized for 16×16 serves
// the 32×8 grid of the same cell count without resizing, and the
// corner-to-corner search on the empty 32×8 grid is the Manhattan distance.
func TestWorkspaceSameCellCountNoResize(t *testing.T) {
	ws := NewWorkspace(grid.New(16, 16))
	stamp := &ws.stamp[0]
	g := grid.New(32, 8)
	p, ok := ws.AStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 31, Y: 7}},
		Obs:     grid.NewObsMap(g),
	})
	if !ok || p.Len() != 38 {
		t.Fatalf("reshaped search: ok=%v len=%d, want the Manhattan distance 38", ok, p.Len())
	}
	if &ws.stamp[0] != stamp {
		t.Fatal("a grid with the same cell count reallocated the workspace")
	}
}

// TestWorkspaceBoundedReuse runs many bounded searches on one workspace and
// checks each result against a fresh workspace.
func TestWorkspaceBoundedReuse(t *testing.T) {
	g, obs := scatterObs(32, 32, 120, 9)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 100; i++ {
		src := geom.Pt{X: rng.Intn(32), Y: rng.Intn(32)}
		dst := geom.Pt{X: rng.Intn(32), Y: rng.Intn(32)}
		d := geom.Dist(src, dst)
		minL, maxL := d+4, d+6
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
		p1, ok1 := NewWorkspace(g).BoundedAStar(g, req, minL, maxL)
		p2, ok2 := ws.BoundedAStar(g, req, minL, maxL)
		if ok1 != ok2 {
			t.Fatalf("search %d (%v->%v): ok %v vs %v", i, src, dst, ok1, ok2)
		}
		if !ok2 {
			continue
		}
		if !p2.Valid() || p2.Len() < minL || p2.Len() > maxL {
			t.Fatalf("search %d: invalid bounded path len %d not in [%d,%d]", i, p2.Len(), minL, maxL)
		}
		if p1.Len() != p2.Len() {
			t.Fatalf("search %d: len %d vs %d", i, p1.Len(), p2.Len())
		}
	}
}

// TestWorkspaceConcurrent runs many goroutines, each owning a workspace,
// over one shared read-only obstacle map, and checks every result against a
// sequentially computed reference. Run under -race this asserts the
// one-workspace-per-goroutine ownership rule makes shared-grid searches
// race-free.
func TestWorkspaceConcurrent(t *testing.T) {
	g, obs := scatterObs(64, 64, 600, 21)
	type query struct {
		src, dst geom.Pt
		bounded  bool
	}
	rng := rand.New(rand.NewSource(31))
	queries := make([]query, 256)
	for i := range queries {
		queries[i] = query{
			src:     geom.Pt{X: rng.Intn(64), Y: rng.Intn(64)},
			dst:     geom.Pt{X: rng.Intn(64), Y: rng.Intn(64)},
			bounded: i%4 == 0,
		}
	}
	search := func(ws *Workspace, q query) (int, bool) {
		req := Request{Sources: []geom.Pt{q.src}, Targets: []geom.Pt{q.dst}, Obs: obs}
		var p grid.Path
		var ok bool
		if q.bounded {
			d := geom.Dist(q.src, q.dst)
			p, ok = ws.BoundedAStar(g, req, d+2, d+4)
		} else {
			p, ok = ws.AStar(g, req)
		}
		return p.Len(), ok
	}
	refWS := NewWorkspace(g)
	type answer struct {
		len int
		ok  bool
	}
	ref := make([]answer, len(queries))
	for i, q := range queries {
		l, ok := search(refWS, q)
		ref[i] = answer{l, ok}
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ws := NewWorkspace(g) // each goroutine owns its workspace
			for i := w; i < len(queries); i += goroutines {
				l, ok := search(ws, queries[i])
				if l != ref[i].len || ok != ref[i].ok {
					t.Errorf("goroutine %d query %d: got (%d,%v), want (%d,%v)",
						w, i, l, ok, ref[i].len, ref[i].ok)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWorkspaceGenerationWrap forces the generation counter across its
// wrap-around and checks searches stay correct (stale stamps must not leak
// into the new epoch).
func TestWorkspaceGenerationWrap(t *testing.T) {
	g, obs := scatterObs(16, 16, 40, 5)
	ws := NewWorkspace(g)
	req := Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 15, Y: 15}},
		Obs:     obs,
	}
	want, wantOK := ws.AStar(g, req)
	ws.gen = math.MaxInt32 - 2
	for i := 0; i < 6; i++ { // crosses MaxInt32 and the reset to 1
		got, ok := ws.AStar(g, req)
		if ok != wantOK || got.Len() != want.Len() {
			t.Fatalf("search %d at gen %d: got (%d,%v), want (%d,%v)",
				i, ws.gen, got.Len(), ok, want.Len(), wantOK)
		}
	}
	if ws.gen >= math.MaxInt32-2 || ws.gen <= 0 {
		t.Fatalf("generation did not wrap cleanly: %d", ws.gen)
	}
}

// TestWorkspaceResize checks that one workspace serves grids of different
// sizes back to back.
func TestWorkspaceResize(t *testing.T) {
	ws := &Workspace{}
	for _, wh := range [][2]int{{8, 8}, {32, 16}, {8, 8}, {64, 64}} {
		g := grid.New(wh[0], wh[1])
		obs := grid.NewObsMap(g)
		p, ok := ws.AStar(g, Request{
			Sources: []geom.Pt{{X: 0, Y: 0}},
			Targets: []geom.Pt{{X: wh[0] - 1, Y: wh[1] - 1}},
			Obs:     obs,
		})
		if !ok || p.Len() != wh[0]-1+wh[1]-1 {
			t.Fatalf("%dx%d: len %d ok %v, want shortest %d", wh[0], wh[1], p.Len(), ok, wh[0]+wh[1]-2)
		}
	}
}

// TestVisitConeCoversReads pins the stamp-before-read property that
// cross-run seeding relies on: a tracked search's visit set covers every
// cell whose obstacle state it read. Flipping every cell
// outside the visit set and off the found path therefore cannot change the
// result of searching again. Six variants run both searches on both open
// lists, and each asserts the open list it ran on: A* with an uncertified
// history (heap), A* with no history and with a certified one (bucket), the
// bounded search (bucket), and A* and the bounded search on a heap-only
// workspace. Ten more trials wall the target into a pocket of at most
// pocketCap cells, so the A* variants end on a sealed-pocket verdict (as
// they do on a few scattered maps): its cone (the cells read up to the
// check, the pocket and its walls) must survive the same flip and also
// freeing every cell outside it, and the search on either map must end on
// the verdict too.
func TestVisitConeCoversReads(t *testing.T) {
	variants := []struct {
		name             string
		bounded          bool // BoundedAStar instead of AStar
		hist, certified  bool // the request carries Hist; with HistScale 1, HistMax 3
		heapOnly, bucket bool // the workspace setting, and the open list the search must use
	}{
		{"AStar uncertified Hist", false, true, false, false, false},
		{"AStar no Hist", false, false, false, false, true},
		{"AStar certified Hist", false, true, true, false, true},
		{"BoundedAStar", true, true, false, false, true},
		{"AStar heapOnly", false, true, true, true, false},
		{"BoundedAStar heapOnly", true, true, false, true, false},
	}
	found := make([]int, len(variants))
	verdicts := make([]int, len(variants))
	flippedAny := false
	rng := rand.New(rand.NewSource(91))
	for trial := 0; trial < 40; trial++ {
		g, obs := scatterObs(20+rng.Intn(20), 20+rng.Intn(20), 150, int64(100+trial))
		src := geom.Pt{X: 0, Y: 0}
		dst := geom.Pt{X: g.W - 1, Y: g.H - 1}
		hist := make([]float64, g.Cells())
		for i := range hist {
			hist[i] = float64(rng.Intn(3))
		}
		pocket := trial >= 30
		if pocket {
			walledPocket(rng, obs, dst, 1+rng.Intn(pocketCap))
		}
		d := geom.Dist(src, dst)
		for vi, v := range variants {
			if pocket && v.bounded {
				continue
			}
			// search runs the variant on a fresh workspace. The bounded
			// window starts at the shortest length: on these corner to
			// corner pairs the bounded search finds no path of length d+4
			// or more on either open list.
			search := func(r Request, track bool) (*Workspace, grid.Path, bool) {
				ws := NewWorkspace(g)
				ws.heapOnly = v.heapOnly
				if track {
					ws.StartVisitTracking()
					defer ws.StopVisitTracking()
				}
				if v.bounded {
					p, ok := ws.BoundedAStar(g, r, d, d+8)
					return ws, p, ok
				}
				p, ok := ws.AStar(g, r)
				return ws, p, ok
			}
			req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}
			if v.hist {
				req.Hist = hist
			}
			if v.certified {
				req.HistScale, req.HistMax = 1, 3
			}
			ws, want, wantOK := search(req, true)
			if ws.lastBucket != v.bucket {
				t.Fatalf("trial %d %s: lastBucket = %v, want %v", trial, v.name, ws.lastBucket, v.bucket)
			}
			if wantOK {
				found[vi]++
			}
			if ws.sealed > 0 {
				verdicts[vi]++
			}
			visits := ws.CopyVisits(nil)

			onPath := map[geom.Pt]bool{}
			for _, c := range want {
				onPath[c] = true
			}
			// outside rewrites every cell outside the cone and off the path:
			// inverted, and after a verdict also freed, which opens any
			// pocket wall the cone missed.
			outside := func(set func(blocked bool) bool) *grid.ObsMap {
				m := obs.Clone()
				for i := 0; i < g.Cells(); i++ {
					c := g.Pt(i)
					if visits[i>>6]&(1<<(uint(i)&63)) != 0 || onPath[c] || c == src || c == dst {
						continue
					}
					m.Set(c, set(m.Blocked(c)))
					flippedAny = true
				}
				return m
			}
			maps := []*grid.ObsMap{outside(func(b bool) bool { return !b })}
			if ws.sealed > 0 {
				maps = append(maps, outside(func(bool) bool { return false }))
			}
			for mi, m := range maps {
				r := req
				r.Obs = m
				ws2, got, gotOK := search(r, false)
				if gotOK != wantOK || !pathsEqual(got, want) {
					t.Fatalf("trial %d %s map %d: rewriting unvisited cells changed the result (ok %v -> %v, len %d -> %d)",
						trial, v.name, mi, wantOK, gotOK, want.Len(), got.Len())
				}
				if ws.sealed > 0 && ws2.sealed == 0 {
					t.Fatalf("trial %d %s map %d: rewriting cells outside a sealed verdict's cone lost the verdict", trial, v.name, mi)
				}
			}
		}
	}
	for vi, v := range variants {
		if found[vi] == 0 {
			t.Errorf("%s found no path in any trial; its flip check compared only failures", v.name)
		}
		if !v.bounded && verdicts[vi] == 0 {
			t.Errorf("%s ended no trial on a sealed verdict; its flip check never covered one", v.name)
		}
	}
	if !flippedAny {
		t.Fatal("no cell was flipped; the test checked nothing")
	}
}
