package escape

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestRandomScenarios: on random obstacle fields with random terminals and
// pins, the escape solution must always be internally consistent: valid
// disjoint paths, pins used at most once, paths over free cells only, and
// the unrouted list exactly complementing the routed set.
func TestRandomScenarios(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 30; trial++ {
		w, h := 16+rng.Intn(16), 16+rng.Intn(16)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/8; i++ {
			obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		nTerms := 2 + rng.Intn(6)
		var terms []Terminal
		for i := 0; i < nTerms; i++ {
			c := geom.Pt{X: 1 + rng.Intn(w-2), Y: 1 + rng.Intn(h-2)}
			obs.Set(c, true) // terminals sit on channels
			terms = append(terms, Terminal{ClusterID: i, Cells: []geom.Pt{c}})
		}
		var pins []geom.Pt
		for x := 1; x < w-1; x += 3 {
			pins = append(pins, geom.Pt{X: x, Y: 0})
		}
		res := Route(obs, terms, pins)

		routed := map[int]bool{}
		usedCells := map[geom.Pt]int{}
		usedPins := map[geom.Pt]int{}
		for id, p := range res.Paths {
			routed[id] = true
			if !p.Valid() {
				t.Fatalf("trial %d: invalid path for %d", trial, id)
			}
			pin := p[len(p)-1]
			if prev, dup := usedPins[pin]; dup {
				t.Fatalf("trial %d: pin %v used by %d and %d", trial, pin, prev, id)
			}
			usedPins[pin] = id
			if res.Pins[id] != pin {
				t.Fatalf("trial %d: Pins map inconsistent", trial)
			}
			for i, c := range p {
				if i == 0 {
					continue // take-off sits on the cluster's own channel
				}
				if prev, dup := usedCells[c]; dup {
					t.Fatalf("trial %d: cell %v shared by %d and %d", trial, c, prev, id)
				}
				usedCells[c] = id
				if obs.Blocked(c) {
					t.Fatalf("trial %d: path of %d crosses blocked %v", trial, id, c)
				}
				if g.OnBoundary(c) && c != pin {
					t.Fatalf("trial %d: non-pin boundary cell %v used", trial, c)
				}
			}
		}
		for _, id := range res.Unrouted {
			if routed[id] {
				t.Fatalf("trial %d: %d both routed and unrouted", trial, id)
			}
		}
		if len(res.Paths)+len(res.Unrouted) != nTerms {
			t.Fatalf("trial %d: %d routed + %d unrouted != %d terminals",
				trial, len(res.Paths), len(res.Unrouted), nTerms)
		}
	}
}

// TestRoutedCountIsMaximum: with k terminals and k' >= k reachable pins in
// an open field, all terminals route (the flow maximizes cardinality first).
func TestRoutedCountIsMaximum(t *testing.T) {
	g := grid.New(24, 24)
	obs := grid.NewObsMap(g)
	var terms []Terminal
	for i := 0; i < 5; i++ {
		c := geom.Pt{X: 4 + 4*i, Y: 12}
		obs.Set(c, true)
		terms = append(terms, Terminal{ClusterID: i, Cells: []geom.Pt{c}})
	}
	var pins []geom.Pt
	for x := 2; x < 22; x += 4 {
		pins = append(pins, geom.Pt{X: x, Y: 0})
	}
	res := Route(obs, terms, pins)
	if len(res.Unrouted) != 0 {
		t.Fatalf("open field with enough pins: unrouted %v", res.Unrouted)
	}
}

// TestCostsBiasTakeoffChoice: with a penalized near cell and a free far
// cell, the flow must weigh the penalty against the extra channel length.
func TestCostsBiasTakeoffChoice(t *testing.T) {
	g := grid.New(20, 8)
	obs := grid.NewObsMap(g)
	near := geom.Pt{X: 16, Y: 4}
	far := geom.Pt{X: 4, Y: 4}
	obs.Set(near, true)
	obs.Set(far, true)
	pins := []geom.Pt{{X: 19, Y: 4}}
	// Penalty larger than the distance saving: the far take-off wins.
	res := Route(obs, []Terminal{{
		ClusterID: 0,
		Cells:     []geom.Pt{near, far},
		Costs:     []int{100, 0},
	}}, pins)
	if len(res.Unrouted) != 0 {
		t.Fatal("unrouted")
	}
	if res.Paths[0][0] != far {
		t.Errorf("take-off %v, want the unpenalized far cell", res.Paths[0][0])
	}
	// Small penalty: the near take-off wins.
	res = Route(obs, []Terminal{{
		ClusterID: 0,
		Cells:     []geom.Pt{near, far},
		Costs:     []int{2, 0},
	}}, pins)
	if res.Paths[0][0] != near {
		t.Errorf("take-off %v, want the near cell for small penalty", res.Paths[0][0])
	}
}

// TestIsolatedMatchesFlow checks Isolated against the flow network on
// random chips with sealed and leaky pockets (a one-cell gap in the wall),
// blocked pins, and take-offs on channels, free cells, pins and non-pin
// boundary cells. Isolated names a terminal exactly when Route of that
// terminal alone leaves it unrouted, and a Route of all terminals never
// routes one it names. When giving the isolated terminals extra take-offs
// (as relaxing an LM tap does) lets Route route every terminal, Route of
// the original terminals leaves exactly the isolated ones unrouted.
func TestIsolatedMatchesFlow(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	var named, decided int
	for trial := 0; trial < 300; trial++ {
		w, h := 8+rng.Intn(16), 8+rng.Intn(16)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/10; i++ {
			obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		var pins, boundary []geom.Pt
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p := geom.Pt{X: x, Y: y}
				if !g.OnBoundary(p) {
					continue
				}
				if rng.Intn(3) > 0 {
					boundary = append(boundary, p)
					continue
				}
				pins = append(pins, p)
				if rng.Intn(6) == 0 {
					obs.Set(p, true) // a pin under an existing channel
				}
			}
		}
		// Pockets: a wall around a small free region, sealed or leaky.
		var pockets [][]geom.Pt
		for k := rng.Intn(4); k > 0; k-- {
			x0, y0 := rng.Intn(w-3), rng.Intn(h-3)
			x1, y1 := min(x0+2+rng.Intn(3), w-1), min(y0+2+rng.Intn(3), h-1)
			var inside, wall []geom.Pt
			for y := y0; y <= y1; y++ {
				for x := x0; x <= x1; x++ {
					p := geom.Pt{X: x, Y: y}
					if x == x0 || x == x1 || y == y0 || y == y1 {
						obs.Set(p, true)
						wall = append(wall, p)
					} else {
						obs.Set(p, false)
						inside = append(inside, p)
					}
				}
			}
			if rng.Intn(2) == 0 {
				obs.Set(wall[rng.Intn(len(wall))], false)
			}
			pockets = append(pockets, inside)
		}

		used := map[geom.Pt]bool{}
		pick := func(from []geom.Pt) (geom.Pt, bool) {
			if len(from) == 0 {
				return geom.Pt{}, false
			}
			p := from[rng.Intn(len(from))]
			return p, !used[p]
		}
		var terms []Terminal
		for id := 0; id < 1+rng.Intn(5); id++ {
			var c geom.Pt
			ok := false
			switch rng.Intn(4) {
			case 0: // inside a pocket
				if len(pockets) > 0 {
					c, ok = pick(pockets[rng.Intn(len(pockets))])
				}
			case 1: // on a pin
				c, ok = pick(pins)
			case 2: // on a non-pin boundary cell
				c, ok = pick(boundary)
			default: // anywhere
				c = geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
				ok = !used[c]
			}
			if !ok {
				continue
			}
			// Mostly a channel cell; sometimes a bare free valve.
			obs.Set(c, rng.Intn(4) > 0)
			used[c] = true
			terms = append(terms, Terminal{ClusterID: id, Cells: []geom.Pt{c}})
		}

		iso := Isolated(obs, terms, pins)
		isoSet := map[int]bool{}
		for _, id := range iso {
			isoSet[id] = true
		}
		for _, tm := range terms {
			one := []Terminal{tm}
			alone := len(Isolated(obs, one, pins)) == 1
			if alone != isoSet[tm.ClusterID] {
				t.Fatalf("trial %d: terminal %d isolated alone %v, among all %v", trial, tm.ClusterID, alone, isoSet[tm.ClusterID])
			}
			if unrouted := len(Route(obs, one, pins).Unrouted) == 1; unrouted != alone {
				t.Fatalf("trial %d: terminal %d at %v: Isolated %v, unrouted alone %v", trial, tm.ClusterID, tm.Cells[0], alone, unrouted)
			}
		}
		full := Route(obs, terms, pins)
		for _, id := range iso {
			if _, ok := full.Paths[id]; ok {
				t.Fatalf("trial %d: isolated terminal %d routed", trial, id)
			}
		}
		named += len(iso)

		// Relax every isolated terminal: add one more take-off cell.
		relaxed := make([]Terminal, len(terms))
		copy(relaxed, terms)
		for k, tm := range relaxed {
			if isoSet[tm.ClusterID] {
				c := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
				if !used[c] {
					used[c] = true
					relaxed[k].Cells = []geom.Pt{tm.Cells[0], c}
				}
			}
		}
		if len(iso) > 0 && len(Route(obs, relaxed, pins).Unrouted) == 0 {
			decided++
			if !reflect.DeepEqual(full.Unrouted, iso) {
				t.Fatalf("trial %d: relaxed flow complete, but unrouted %v != isolated %v", trial, full.Unrouted, iso)
			}
		}
	}
	if named < 50 || decided < 20 {
		t.Fatalf("only %d isolated terminals and %d relaxed-complete trials: the scenarios do not exercise Isolated", named, decided)
	}
	t.Logf("%d isolated terminals, %d trials decided by a complete relaxed flow", named, decided)
}
