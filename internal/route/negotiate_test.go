package route

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

func TestNegotiateTwoDisjointEdges(t *testing.T) {
	g := grid.New(10, 10)
	obs := grid.NewObsMap(g)
	edges := []Edge{
		{ID: 0, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 9, Y: 2}}},
		{ID: 1, Sources: []geom.Pt{{X: 0, Y: 7}}, Targets: []geom.Pt{{X: 9, Y: 7}}},
	}
	paths, ok := Negotiate(obs, edges, DefaultNegotiateParams())
	if !ok {
		t.Fatal("negotiation failed on disjoint edges")
	}
	assertDisjointValid(t, paths)
}

func TestNegotiateConflict(t *testing.T) {
	// Edge 0's unique shortest route (the x=10 column) is the only possible
	// route for edge 1 (whose terminals are sealed from every other cell).
	// Greedy sequential routing therefore fails on the first rounds, and the
	// history mechanism must price edge 0 off the column onto its length-10
	// detour before edge 1 can route. With the saturating Eq. 5 history
	// (h -> bg/(1-alpha)), alpha must satisfy 4 + 4h > 10 + 2h at the fixed
	// point, so the test raises alpha to 0.8 (h_inf = 5).
	g := grid.New(21, 5)
	obs := grid.NewObsMap(g)
	for _, w := range []geom.Pt{{X: 9, Y: 1}, {X: 11, Y: 1}, {X: 8, Y: 2}, {X: 12, Y: 2}} {
		obs.Set(w, true)
	}
	edges := []Edge{
		{ID: 0, Sources: []geom.Pt{{X: 10, Y: 0}}, Targets: []geom.Pt{{X: 10, Y: 4}}},
		{ID: 1, Sources: []geom.Pt{{X: 9, Y: 2}}, Targets: []geom.Pt{{X: 11, Y: 2}}},
	}
	params := NegotiateParams{BaseHist: 1.0, Alpha: 0.8, Gamma: 10}
	paths, ok := Negotiate(obs, edges, params)
	if !ok {
		t.Fatal("negotiation failed to resolve the column conflict")
	}
	assertDisjointValid(t, paths)
	if paths[1].Len() != 2 {
		t.Errorf("edge 1 length %d, want the straight length 2", paths[1].Len())
	}
	if paths[0].Len() < 10 {
		t.Errorf("edge 0 length %d, want the detour (>=10)", paths[0].Len())
	}
	for _, p := range paths {
		for _, c := range p {
			if obs.Blocked(c) {
				t.Errorf("path crosses obstacle at %v", c)
			}
		}
	}
}

func TestNegotiateImpossible(t *testing.T) {
	// Three edges through a single one-cell corridor: at most one can route.
	g := grid.New(9, 5)
	obs := grid.NewObsMap(g)
	for y := 0; y < 5; y++ {
		if y != 2 {
			obs.Set(geom.Pt{X: 4, Y: y}, true)
		}
	}
	edges := []Edge{
		{ID: 0, Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 8, Y: 0}}},
		{ID: 1, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 8, Y: 2}}},
		{ID: 2, Sources: []geom.Pt{{X: 0, Y: 4}}, Targets: []geom.Pt{{X: 8, Y: 4}}},
	}
	params := DefaultNegotiateParams()
	_, ok := Negotiate(obs, edges, params)
	if ok {
		t.Fatal("three edges cannot share a one-cell corridor")
	}
}

func TestNegotiateLeavesObsUntouched(t *testing.T) {
	g := grid.New(8, 8)
	obs := grid.NewObsMap(g)
	obs.Set(geom.Pt{X: 3, Y: 3}, true)
	before := obs.Count()
	edges := []Edge{{ID: 0, Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 7, Y: 7}}}}
	if _, ok := Negotiate(obs, edges, DefaultNegotiateParams()); !ok {
		t.Fatal("route failed")
	}
	if obs.Count() != before {
		t.Error("Negotiate mutated the caller's obstacle map")
	}
}

func TestNegotiateOrderIndependenceViaHistory(t *testing.T) {
	// Edge 0's shortest path blocks edge 1 entirely if routed greedily; the
	// history mechanism must push edge 0 off the corridor in a later round.
	g := grid.New(7, 5)
	obs := grid.NewObsMap(g)
	// Corridor row y=2 is the only way across x=3 except y=0.
	for y := 0; y < 5; y++ {
		if y != 2 && y != 0 {
			obs.Set(geom.Pt{X: 3, Y: y}, true)
		}
	}
	edges := []Edge{
		// Edge 0 could use either corridor; shortest is y=2... source at y=1.
		{ID: 0, Sources: []geom.Pt{{X: 0, Y: 1}}, Targets: []geom.Pt{{X: 6, Y: 1}}},
		// Edge 1 must use y=2 (its endpoints are at y=2 and detour via y=0
		// would cross edge 0's territory).
		{ID: 1, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 6, Y: 2}}},
	}
	paths, ok := Negotiate(obs, edges, DefaultNegotiateParams())
	if !ok {
		t.Fatal("negotiation failed")
	}
	assertDisjointValid(t, paths)
}

func assertDisjointValid(t *testing.T, paths map[int]grid.Path) {
	t.Helper()
	used := map[geom.Pt]int{}
	for id, p := range paths {
		if !p.Valid() {
			t.Fatalf("edge %d: invalid path %v", id, p)
		}
		for _, c := range p {
			if other, clash := used[c]; clash {
				t.Fatalf("cell %v used by edges %d and %d", c, other, id)
			}
			used[c] = id
		}
	}
}

// randomNegotiateInstance builds a random multi-edge negotiation instance
// with enough congestion that multi-round runs occur.
func randomNegotiateInstance(rng *rand.Rand) (grid.Grid, *grid.ObsMap, []Edge) {
	w, h := 12+rng.Intn(14), 12+rng.Intn(14)
	g := grid.New(w, h)
	obs := grid.NewObsMap(g)
	for i := 0; i < g.Cells()/5; i++ {
		obs.Set(geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}, true)
	}
	used := map[geom.Pt]bool{}
	pick := func() geom.Pt {
		for {
			p := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
			if !used[p] {
				used[p] = true
				obs.Set(p, false)
				return p
			}
		}
	}
	n := 3 + rng.Intn(5)
	edges := make([]Edge, n)
	for i := range edges {
		edges[i] = Edge{ID: i, Sources: []geom.Pt{pick()}, Targets: []geom.Pt{pick()}}
	}
	return g, obs, edges
}

// negotiateRun routes edges with the given worker count, capture switch and
// open-list restriction, returning the paths, the outcome and the counters.
func negotiateRun(g grid.Grid, obs *grid.ObsMap, edges []Edge, workers int, capture, heapOnly bool) (map[int]grid.Path, bool, NegotiateStats) {
	params := DefaultNegotiateParams()
	params.Workers = workers
	if capture {
		params.Capture = &NegotiationSeed{}
	}
	var stats NegotiateStats
	ws := AcquireWorkspace(g)
	ws.heapOnly = heapOnly
	paths, ok := ws.NegotiateTracked(obs, edges, params, &stats)
	ws.heapOnly = false
	ReleaseWorkspace(ws)
	return paths, ok, stats
}

// TestNegotiateCacheByteIdentical: nothing replays within a run, so the only
// visit-cone machinery left is the tracking that capture and scheduler
// validation switch on. For random instances every combination of worker
// count and capture returns the identical (paths, ok) as a plain sequential
// run — tracking and capture are pure observers.
func TestNegotiateCacheByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		wantPaths, wantOK := Negotiate(obs, edges, DefaultNegotiateParams())

		for _, workers := range []int{0, 1, 2, 4} {
			for _, capture := range []bool{false, true} {
				paths, ok, _ := negotiateRun(g, obs, edges, workers, capture, false)
				label := fmt.Sprintf("trial %d workers=%d capture=%v", trial, workers, capture)
				if ok != wantOK {
					t.Fatalf("%s: ok=%v, want %v", label, ok, wantOK)
				}
				pathsIdentical(t, label, paths, wantPaths)
			}
		}
	}
}

// TestNegotiateStatsInvariants: the counters are identical for every worker
// count and capture setting, every round searches every edge (Searches ==
// Rounds x edges), and the within-run replay counters stay zero.
func TestNegotiateStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sawMultiRound := false
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)

		_, _, want := negotiateRun(g, obs, edges, 0, false, false)
		if want.Searches != want.Rounds*len(edges) {
			t.Fatalf("trial %d: %d searches over %d rounds of %d edges", trial, want.Searches, want.Rounds, len(edges))
		}
		if want.CacheHits != 0 || want.CacheMisses != 0 {
			t.Fatalf("trial %d: replay counters nonzero with nothing to replay: %+v", trial, want)
		}
		if want.Rounds > 1 {
			sawMultiRound = true
		}
		for _, workers := range []int{0, 1, 2, 4} {
			for _, capture := range []bool{false, true} {
				_, _, s := negotiateRun(g, obs, edges, workers, capture, false)
				if !statsEqual(s, want) || s.CacheHits != 0 || s.CacheMisses != 0 {
					t.Fatalf("trial %d workers=%d capture=%v: stats %+v differ from sequential %+v",
						trial, workers, capture, s, want)
				}
			}
		}
	}
	if !sawMultiRound {
		t.Error("no trial needed a second round; the instances no longer exercise rip-up and reroute")
	}
}

// TestNegotiateQueueByteIdentical: open list x worker count on random
// congested instances returns byte-identical paths and identical counters
// to a forced-heap sequential reference. The open list, like the scheduler,
// is a pure wall-clock choice.
func TestNegotiateQueueByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		wantPaths, wantOK, want := negotiateRun(g, obs, edges, 0, false, true)

		for _, heapOnly := range []bool{true, false} {
			for _, workers := range []int{0, 1, 2, 4, 8} {
				paths, ok, stats := negotiateRun(g, obs, edges, workers, false, heapOnly)
				label := fmt.Sprintf("trial %d heapOnly=%v workers=%d", trial, heapOnly, workers)
				if ok != wantOK {
					t.Fatalf("%s: ok=%v, want %v", label, ok, wantOK)
				}
				pathsIdentical(t, label, paths, wantPaths)
				if !statsEqual(stats, want) {
					t.Fatalf("%s: stats %+v differ from reference %+v", label, stats, want)
				}
			}
		}
	}
}

func statsEqual(a, b NegotiateStats) bool {
	if a.Rounds != b.Rounds || a.Searches != b.Searches ||
		a.SeededEdges != b.SeededEdges || a.SeededHits != b.SeededHits ||
		len(a.FailedIDs) != len(b.FailedIDs) {
		return false
	}
	for i := range a.FailedIDs {
		if a.FailedIDs[i] != b.FailedIDs[i] {
			return false
		}
	}
	return true
}

// TestNegotiateFailedIDs: when negotiation gives up, the final round's
// unrouted edges are reported in edge order; on success FailedIDs is empty.
func TestNegotiateFailedIDs(t *testing.T) {
	// Three edges through a single one-cell corridor: at most one can route,
	// so two must appear in FailedIDs (which two is the router's business —
	// but the set must be deterministic and in edge order).
	g := grid.New(9, 5)
	obs := grid.NewObsMap(g)
	for y := 0; y < 5; y++ {
		if y != 2 {
			obs.Set(geom.Pt{X: 4, Y: y}, true)
		}
	}
	edges := []Edge{
		{ID: 10, Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 8, Y: 0}}},
		{ID: 11, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 8, Y: 2}}},
		{ID: 12, Sources: []geom.Pt{{X: 0, Y: 4}}, Targets: []geom.Pt{{X: 8, Y: 4}}},
	}
	for _, workers := range []int{0, 2} {
		var stats NegotiateStats
		params := DefaultNegotiateParams()
		params.Workers = workers
		ws := AcquireWorkspace(g)
		_, ok := ws.NegotiateTracked(obs, edges, params, &stats)
		ReleaseWorkspace(ws)
		if ok {
			t.Fatalf("workers=%d: three edges cannot share a one-cell corridor", workers)
		}
		if len(stats.FailedIDs) == 0 {
			t.Fatalf("workers=%d: failed negotiation reported no failed edges", workers)
		}
		for i := 1; i < len(stats.FailedIDs); i++ {
			if stats.FailedIDs[i-1] >= stats.FailedIDs[i] {
				t.Fatalf("workers=%d: FailedIDs not in edge order: %v", workers, stats.FailedIDs)
			}
		}
		for _, id := range stats.FailedIDs {
			if id < 10 || id > 12 {
				t.Fatalf("workers=%d: unknown failed ID %d", workers, id)
			}
		}
	}

	// Success path: FailedIDs stays empty.
	var stats NegotiateStats
	okEdges := []Edge{{ID: 0, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 8, Y: 2}}}}
	ws := AcquireWorkspace(g)
	if _, ok := ws.NegotiateTracked(obs, okEdges, DefaultNegotiateParams(), &stats); !ok {
		t.Fatal("single corridor edge must route")
	}
	ReleaseWorkspace(ws)
	if len(stats.FailedIDs) != 0 {
		t.Fatalf("successful negotiation reported failed edges %v", stats.FailedIDs)
	}
}
