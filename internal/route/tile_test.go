package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestTilingCountsBruteForce checks the coarsening's bookkeeping — the
// tile of every cell and the crossing capacity of every adjacency — against
// a brute-force recount on random obstacle maps with grid sizes that do and
// do not divide evenly by the tile side.
func TestTilingCountsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	for trial := 0; trial < 25; trial++ {
		g := grid.Grid{W: 20 + rng.Intn(45), H: 20 + rng.Intn(45)}
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/5; i++ {
			obs.Set(geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}, true)
		}
		size := []int{2, 4, 8, 16}[rng.Intn(4)]
		tl := NewTiling(obs, size)
		if tl.Size() != size {
			t.Fatalf("trial %d: size %d rounded to %d", trial, size, tl.Size())
		}

		tw := (g.W + size - 1) / size
		if th := (g.H + size - 1) / size; tl.Tiles() != tw*th {
			t.Fatalf("trial %d: %d tiles, want %d×%d", trial, tl.Tiles(), tw, th)
		}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				p := geom.Pt{X: x, Y: y}
				if got, want := tl.TileOf(p), (y/size)*tw+x/size; got != want {
					t.Fatalf("trial %d: TileOf(%v)=%d, want %d", trial, p, got, want)
				}
			}
		}

		// Crossing capacities: count free cell pairs straddling each tile edge.
		capOf := map[[2]int]int{}
		for y := 0; y < g.H; y++ {
			for x := 0; x < g.W; x++ {
				p := geom.Pt{X: x, Y: y}
				if obs.Blocked(p) {
					continue
				}
				for _, q := range []geom.Pt{{X: x + 1, Y: y}, {X: x, Y: y + 1}} {
					if !g.In(q) || obs.Blocked(q) {
						continue
					}
					if u, v := tl.TileOf(p), tl.TileOf(q); u != v {
						capOf[[2]int{u, v}]++
					}
				}
			}
		}
		got := map[[2]int]int{}
		prev := -1
		tl.ForEachAdjacency(func(u, v, c int) {
			if c <= 0 {
				t.Fatalf("trial %d: adjacency %d-%d with capacity %d", trial, u, v, c)
			}
			if u < prev {
				t.Fatalf("trial %d: adjacency order not deterministic (tile %d after %d)", trial, u, prev)
			}
			prev = u
			got[[2]int{u, v}] = c
		})
		if len(got) != len(capOf) {
			t.Fatalf("trial %d: %d adjacencies, brute force %d", trial, len(got), len(capOf))
		}
		for k, c := range capOf {
			if got[k] != c {
				t.Fatalf("trial %d: adjacency %v capacity %d, brute force %d", trial, k, got[k], c)
			}
		}
	}
}

// TestTileMaskHalo checks BuildMask against a brute-force Chebyshev dilation.
func TestTileMaskHalo(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 20; trial++ {
		g := grid.Grid{W: 30 + rng.Intn(34), H: 30 + rng.Intn(34)}
		obs := grid.NewObsMap(g)
		tl := NewTiling(obs, 8)
		var corridor []int32
		for n := 1 + rng.Intn(4); n > 0; n-- {
			corridor = append(corridor, int32(rng.Intn(tl.Tiles())))
		}
		for _, halo := range []int{0, 1, 3} {
			m := tl.BuildMask(corridor, halo)
			admitted := func(ti int) bool {
				tx, ty := ti%tl.tw, ti/tl.tw
				for _, c := range corridor {
					cx, cy := int(c)%tl.tw, int(c)/tl.tw
					dx, dy := tx-cx, ty-cy
					if dx < 0 {
						dx = -dx
					}
					if dy < 0 {
						dy = -dy
					}
					if dx <= halo && dy <= halo {
						return true
					}
				}
				return false
			}
			for y := 0; y < g.H; y++ {
				for x := 0; x < g.W; x++ {
					p := geom.Pt{X: x, Y: y}
					if m.Contains(p) != admitted(tl.TileOf(p)) {
						t.Fatalf("trial %d halo %d: Contains(%v)=%v, brute force %v",
							trial, halo, p, m.Contains(p), admitted(tl.TileOf(p)))
					}
				}
			}
		}
	}
}

// TestSearchWindow: a search confined by Request.Mask returns only paths
// whose cells lie inside the mask's tiles. The corridor is a U of tiles
// (left column, top row, right column) between two points halfway down the
// side edges, so every masked path detours over the top while a shortest
// unmasked path cuts through the excluded interior: the unmasked search on
// the same map must find a shorter path that leaves the mask, or the mask
// constrained nothing.
func TestSearchWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	routed := 0
	for trial := 0; trial < 10; trial++ {
		g := grid.New(64, 64)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/10; i++ {
			obs.Set(geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}, true)
		}
		src, dst := geom.Pt{X: 2, Y: 33}, geom.Pt{X: 61, Y: 33}
		obs.Set(src, false)
		obs.Set(dst, false)
		tl := NewTiling(obs, 8)
		var corridor []int32
		for y := 1; y < 5; y++ {
			corridor = append(corridor, int32(tl.TileOf(geom.Pt{X: 0, Y: 8 * y})))
			corridor = append(corridor, int32(tl.TileOf(geom.Pt{X: 63, Y: 8 * y})))
		}
		for x := 0; x < 8; x++ {
			corridor = append(corridor, int32(tl.TileOf(geom.Pt{X: 8 * x, Y: 0})))
		}
		mask := tl.BuildMask(corridor, 0)

		ws := NewWorkspace(g)
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs, Mask: mask}
		p, ok := ws.AStar(g, req)
		if !ok {
			continue // the scattered obstacles sealed the corridor
		}
		for _, c := range p {
			if !mask.Contains(c) {
				t.Fatalf("trial %d: path cell %v lies outside the mask", trial, c)
			}
		}
		req.Mask = nil
		free, ok := ws.AStar(g, req)
		if !ok || free.Len() >= p.Len() {
			t.Fatalf("trial %d: unmasked search ok=%v len %d, masked len %d", trial, ok, free.Len(), p.Len())
		}
		leaves := false
		for _, c := range free {
			leaves = leaves || !mask.Contains(c)
		}
		if !leaves {
			t.Fatalf("trial %d: the unmasked path stays inside the mask; the mask never constrained the search", trial)
		}
		routed++
	}
	if routed == 0 {
		t.Fatal("no trial routed through its corridor; the test checked nothing")
	}
}
