package route

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestHierNegotiateEqualsFlat pins that negotiation does not depend on what
// a workspace searched before: on random mid-size congested instances, a
// workspace that has just run corridor-masked searches (as
// escape.RouteHier leaves one) negotiates the same paths and counters as a
// fresh workspace. The masked searches must both succeed and fail across
// the sweep, or the stale state they leave behind is not varied enough to
// prove anything.
func TestHierNegotiateEqualsFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(108))
	maskedOK, maskedFail := 0, 0
	for trial := 0; trial < 40; trial++ {
		n := 64 + rng.Intn(64)
		g := grid.New(n, n)
		obs := grid.NewObsMap(g)
		for i := 0; i < n*n/12; i++ {
			obs.Set(geom.Pt{X: rng.Intn(n), Y: rng.Intn(n)}, true)
		}
		var edges []Edge
		used := map[geom.Pt]bool{}
		pick := func() geom.Pt {
			for {
				p := geom.Pt{X: rng.Intn(n), Y: rng.Intn(n)}
				if !used[p] {
					used[p] = true
					obs.Set(p, false)
					return p
				}
			}
		}
		for i := 0; i < 4+rng.Intn(8); i++ {
			edges = append(edges, Edge{ID: i, Sources: []geom.Pt{pick()}, Targets: []geom.Pt{pick()}})
		}

		params := DefaultNegotiateParams()
		var wantStats NegotiateStats
		wantPaths, wantOK := NewWorkspace(g).Negotiate(obs, edges, params, &wantStats)

		// Dirty a workspace with masked searches between the edge
		// terminals, each confined to an L of tiles through its corners.
		ws := NewWorkspace(g)
		tl := NewTiling(obs, 16)
		for _, e := range edges {
			s, d := e.Sources[0], e.Targets[0]
			corridor := []int32{
				int32(tl.TileOf(s)), int32(tl.TileOf(geom.Pt{X: d.X, Y: s.Y})), int32(tl.TileOf(d)),
			}
			req := Request{Sources: e.Sources, Targets: e.Targets, Obs: obs, Mask: tl.BuildMask(corridor, 0)}
			if _, ok := ws.AStar(g, req); ok {
				maskedOK++
			} else {
				maskedFail++
			}
		}
		var gotStats NegotiateStats
		gotPaths, gotOK := ws.Negotiate(obs, edges, params, &gotStats)

		if gotOK != wantOK {
			t.Fatalf("trial %d: reused ok=%v, fresh ok=%v", trial, gotOK, wantOK)
		}
		if len(gotPaths) != len(wantPaths) {
			t.Fatalf("trial %d: reused routed %d edges, fresh %d", trial, len(gotPaths), len(wantPaths))
		}
		for id, p := range wantPaths {
			if !pathsEqual(p, gotPaths[id]) {
				t.Fatalf("trial %d edge %d: reused path differs from fresh\nreused %v\nfresh  %v",
					trial, id, gotPaths[id], p)
			}
		}
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("trial %d: reused stats %+v differ from fresh %+v", trial, gotStats, wantStats)
		}
	}
	if maskedOK == 0 || maskedFail == 0 {
		t.Errorf("masked searches: %d succeeded, %d failed; want both outcomes", maskedOK, maskedFail)
	}
}
