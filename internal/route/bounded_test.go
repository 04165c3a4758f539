package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestBoundedAStarTrivial(t *testing.T) {
	// Bound below the shortest distance behaves like plain A*.
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	p, ok := NewWorkspace(g).BoundedAStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 5, Y: 0}},
		Obs:     obs,
	}, 0, 100)
	p = mustPath(t, p, ok)
	if p.Len() != 5 {
		t.Errorf("len = %d, want 5", p.Len())
	}
}

func TestBoundedAStarStretch(t *testing.T) {
	// Demand length in [9, 10] for endpoints at distance 5: the search must
	// detour. Parity: any path between them has odd length, so 9 is hit.
	g := grid.New(12, 12)
	obs := grid.NewObsMap(g)
	p, ok := NewWorkspace(g).BoundedAStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 5, Y: 0}},
		Obs:     obs,
	}, 9, 10)
	p = mustPath(t, p, ok)
	if p.Len() < 9 || p.Len() > 10 {
		t.Errorf("len = %d, want in [9,10]", p.Len())
	}
}

func TestBoundedAStarExactWindowWithObstacles(t *testing.T) {
	g := grid.New(10, 6)
	obs := grid.NewObsMap(g)
	for x := 2; x < 8; x++ {
		obs.Set(geom.Pt{X: x, Y: 2}, true) // force detours around a bar
	}
	src := geom.Pt{X: 1, Y: 1}
	dst := geom.Pt{X: 8, Y: 1}
	for want := 7; want <= 15; want += 2 {
		p, ok := NewWorkspace(g).BoundedAStar(g, Request{
			Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs,
		}, want, want+1)
		if !ok {
			t.Fatalf("no path for window [%d,%d]", want, want+1)
		}
		if !p.Valid() {
			t.Fatalf("invalid path for window %d: %v", want, p)
		}
		if p.Len() < want || p.Len() > want+1 {
			t.Errorf("window [%d,%d]: len %d", want, want+1, p.Len())
		}
		for _, c := range p {
			if obs.Blocked(c) {
				t.Errorf("window %d: path hits obstacle %v", want, c)
			}
		}
	}
}

func TestBoundedAStarParityImpossible(t *testing.T) {
	// Window [6,6] for odd-distance endpoints is parity-infeasible.
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	if _, ok := NewWorkspace(g).BoundedAStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}},
		Targets: []geom.Pt{{X: 5, Y: 0}},
		Obs:     obs,
	}, 6, 6); ok {
		t.Error("parity-impossible window must fail")
	}
}

func TestBoundedAStarDegenerateInputs(t *testing.T) {
	g := grid.New(5, 5)
	if _, ok := NewWorkspace(g).BoundedAStar(g, Request{}, 0, 5); ok {
		t.Error("empty request")
	}
	if _, ok := NewWorkspace(g).BoundedAStar(g, Request{
		Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 1, Y: 0}},
	}, 5, 3); ok {
		t.Error("inverted window")
	}
}

func TestExtendPathBasic(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	base := grid.Path{{X: 1, Y: 5}, {X: 2, Y: 5}, {X: 3, Y: 5}, {X: 4, Y: 5}}
	ext, ok := ExtendPath(obs, base, 9, 10)
	if !ok {
		t.Fatal("extension failed in open space")
	}
	if ext.Len() != 9 {
		t.Errorf("len = %d, want 9", ext.Len())
	}
	if !ext.Valid() {
		t.Fatalf("invalid extended path %v", ext)
	}
	if ext[0] != base[0] || ext[len(ext)-1] != base[len(base)-1] {
		t.Error("endpoints moved")
	}
}

func TestExtendPathAlreadyLongEnough(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	base := grid.Path{{X: 1, Y: 5}, {X: 2, Y: 5}, {X: 3, Y: 5}}
	ext, ok := ExtendPath(obs, base, 2, 4)
	if !ok || ext.Len() != 2 {
		t.Error("in-window path should be returned unchanged")
	}
	if _, ok := ExtendPath(obs, base, 0, 1); ok {
		t.Error("over-long path cannot be shrunk")
	}
}

func TestExtendPathBlocked(t *testing.T) {
	// Wrap the path in obstacles so no U-turn fits.
	g := grid.New(10, 3)
	obs := grid.NewObsMap(g)
	for x := 0; x < 10; x++ {
		obs.Set(geom.Pt{X: x, Y: 0}, true)
		obs.Set(geom.Pt{X: x, Y: 2}, true)
	}
	base := grid.Path{{X: 1, Y: 1}, {X: 2, Y: 1}, {X: 3, Y: 1}}
	if _, ok := ExtendPath(obs, base, 6, 7); ok {
		t.Error("extension must fail in a sealed corridor")
	}
}

func TestExtendPathParityGap(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	base := grid.Path{{X: 1, Y: 5}, {X: 2, Y: 5}} // len 1
	// Window [4,4]: parity-infeasible (+2 steps from 1 give odd lengths).
	if _, ok := ExtendPath(obs, base, 4, 4); ok {
		t.Error("parity gap must fail")
	}
	// Window [4,5] is feasible: 5 is odd.
	ext, ok := ExtendPath(obs, base, 4, 5)
	if !ok || ext.Len() != 5 {
		t.Errorf("len = %d ok=%v, want 5", ext.Len(), ok)
	}
}

func TestExtendPathLargeStretchStacksDetours(t *testing.T) {
	g := grid.New(30, 30)
	obs := grid.NewObsMap(g)
	base := grid.Path{{X: 5, Y: 15}, {X: 6, Y: 15}, {X: 7, Y: 15}, {X: 8, Y: 15}, {X: 9, Y: 15}}
	ext, ok := ExtendPath(obs, base, 30, 31)
	if !ok {
		t.Fatal("large extension failed in open space")
	}
	if ext.Len() < 30 || ext.Len() > 31 {
		t.Errorf("len = %d", ext.Len())
	}
	if !ext.ValidOn(g) {
		t.Fatal("extended path invalid")
	}
}

// TestSimpleChainMatchesValid: the bounded search's chain check accepts
// exactly the chains grid.Path.Valid accepts. Random walks on a small grid
// (so many revisit a cell) share one arena, as the states of one search do,
// and the closed marks start as garbage, as an earlier A* leaves them.
func TestSimpleChainMatchesValid(t *testing.T) {
	g := grid.New(6, 6)
	ws := NewWorkspace(g)
	rng := rand.New(rand.NewSource(5))
	for i := range ws.closed {
		ws.closed[i] = rng.Intn(2) == 0
	}
	step := func(c geom.Pt) geom.Pt {
		for {
			if q := c.Add(grid.Dirs[rng.Intn(len(grid.Dirs))]); g.In(q) {
				return q
			}
		}
	}
	simple, repeated := 0, 0
	for trial := 0; trial < 400; trial++ {
		// A walk either starts a new chain or extends a random earlier state.
		parent := int32(-1)
		cell := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
		if len(ws.arena) > 0 && rng.Intn(4) != 0 {
			parent = int32(rng.Intn(len(ws.arena)))
			cell = step(g.Pt(int(ws.arena[parent].cell)))
		}
		for steps := rng.Intn(12); steps >= 0; steps-- {
			ws.arena = append(ws.arena, bnode{cell: int32(g.Index(cell)), parent: parent})
			parent = int32(len(ws.arena) - 1)
			cell = step(cell)
		}
		idx := int(parent)
		n, ok := ws.simpleChain(idx)
		// reconstructArena needs only the count, which holds either way.
		path := reconstructArena(g, ws.arena, idx, n)
		if ok != path.Valid() {
			t.Fatalf("trial %d: simpleChain %v, Valid %v on %v", trial, ok, path.Valid(), path)
		}
		if ok {
			simple++
		} else {
			repeated++
		}
	}
	if simple == 0 || repeated == 0 {
		t.Fatalf("%d simple and %d repeating chains; the trials must cover both", simple, repeated)
	}
}
