package escape

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// hierCheckValid asserts the escape invariants shared by the flat and
// hierarchical routers: disjoint valid paths over free non-boundary cells,
// each ending at a distinct candidate pin, with Unrouted exactly
// complementing the routed set. The hierarchical router is approximate —
// its pin assignment and lengths may differ from the flat network — so these
// invariants, not byte-identity, are its contract.
func hierCheckValid(t *testing.T, trial int, g grid.Grid, obs *grid.ObsMap, res *Result, nTerms int, pins []geom.Pt) {
	t.Helper()
	candidate := map[geom.Pt]bool{}
	for _, p := range pins {
		candidate[p] = true
	}
	usedCells := map[geom.Pt]int{}
	usedPins := map[geom.Pt]int{}
	routed := map[int]bool{}
	for id, p := range res.Paths {
		routed[id] = true
		if !p.Valid() {
			t.Fatalf("trial %d: invalid path for %d", trial, id)
		}
		pin := p[len(p)-1]
		if !candidate[pin] {
			t.Fatalf("trial %d: path of %d ends at non-pin %v", trial, id, pin)
		}
		if prev, dup := usedPins[pin]; dup {
			t.Fatalf("trial %d: pin %v used by %d and %d", trial, pin, prev, id)
		}
		usedPins[pin] = id
		if res.Pins[id] != pin {
			t.Fatalf("trial %d: Pins map inconsistent for %d", trial, id)
		}
		for i, c := range p {
			if i == 0 {
				continue // take-off sits on the cluster's own channel
			}
			if prev, dup := usedCells[c]; dup {
				t.Fatalf("trial %d: cell %v shared by %d and %d", trial, c, prev, id)
			}
			usedCells[c] = id
			if obs.Blocked(c) && c != pin {
				t.Fatalf("trial %d: path of %d crosses blocked %v", trial, id, c)
			}
			if g.OnBoundary(c) && c != pin {
				t.Fatalf("trial %d: non-pin boundary cell %v used by %d", trial, c, id)
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

// TestRouteHierValidity sweeps RouteHier over random instances — including
// corridor-fallback and final-flat-pass cases — and asserts the escape
// invariants hold on every one. Cardinality is checked in aggregate: the
// greedy commit may trail the exact network by a cluster on an adversarial
// instance (the flow's de-clustering retries exist for exactly that), but
// across the sweep it must stay within a few percent of the flat optimum or
// the fallback ladder is broken.
func TestRouteHierValidity(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	sawFallback := false
	hierRouted, flatRouted := 0, 0
	for trial := 0; trial < 40; trial++ {
		w, h := 24+rng.Intn(40), 24+rng.Intn(40)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/8; i++ {
			obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		nTerms := 2 + rng.Intn(8)
		var terms []Terminal
		for i := 0; i < nTerms; i++ {
			c := geom.Pt{X: 1 + rng.Intn(w-2), Y: 1 + rng.Intn(h-2)}
			obs.Set(c, true)
			terms = append(terms, Terminal{ClusterID: i, Cells: []geom.Pt{c}})
		}
		var pins []geom.Pt
		for x := 1; x < w-1; x += 3 {
			pins = append(pins, geom.Pt{X: x, Y: 0})
		}
		res, st := routeHier(route.NewWorkspace(g), obs, terms, pins, 8)
		hierCheckValid(t, trial, g, obs, res, nTerms, pins)
		if st.FlatFallbacks > 0 || st.NoCorridor > 0 {
			sawFallback = true
		}
		flat := Route(obs, terms, pins)
		hierRouted += len(res.Paths)
		flatRouted += len(flat.Paths)
	}
	if !sawFallback {
		t.Error("no trial exercised a fallback; the sweep proves nothing about the ladder")
	}
	if hierRouted < flatRouted*95/100 {
		t.Errorf("hierarchy routed %d clusters across the sweep, flat %d (> 5%% behind)", hierRouted, flatRouted)
	}
}

// TestRouteHierDeterministicAcrossWorkers pins that hierarchical escape
// does not depend on what its workspace searched before: RouteHier on a
// fresh workspace and on one dirtied by a negotiation, bounded searches and
// an earlier RouteHier run give DeepEqual results and stats.
func TestRouteHierDeterministicAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 10; trial++ {
		w, h := 40+rng.Intn(24), 40+rng.Intn(24)
		g := grid.New(w, h)
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/10; i++ {
			obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
		}
		var terms []Terminal
		for i := 0; i < 6; i++ {
			c := geom.Pt{X: 1 + rng.Intn(w-2), Y: 1 + rng.Intn(h-2)}
			obs.Set(c, true)
			terms = append(terms, Terminal{ClusterID: i, Cells: []geom.Pt{c}})
		}
		var pins []geom.Pt
		for x := 1; x < w-1; x += 2 {
			pins = append(pins, geom.Pt{X: x, Y: 0})
		}
		base, baseStats := routeHier(route.NewWorkspace(g), obs, terms, pins, 8)

		ws := route.NewWorkspace(g)
		var edges []route.Edge
		for i, p := range pins[:4] {
			edges = append(edges, route.Edge{ID: i, Sources: []geom.Pt{p}, Targets: []geom.Pt{{X: p.X, Y: h - 1}}})
		}
		ws.Negotiate(obs, edges, route.DefaultNegotiateParams(), nil)
		for _, p := range pins {
			req := route.Request{Sources: []geom.Pt{p}, Targets: []geom.Pt{{X: w - 1 - p.X, Y: h - 1}}, Obs: obs}
			ws.BoundedAStar(g, req, h+4, h+8)
		}
		for run := 0; run < 2; run++ {
			res, st := routeHier(ws, obs, terms, pins, 8)
			if !reflect.DeepEqual(res, base) {
				t.Fatalf("trial %d run %d: reused-workspace result differs from a fresh workspace's", trial, run)
			}
			if st != baseStats {
				t.Fatalf("trial %d run %d: reused-workspace stats %+v differ from a fresh workspace's %+v", trial, run, st, baseStats)
			}
		}
	}
}
