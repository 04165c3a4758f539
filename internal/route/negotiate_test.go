package route

import (
	"fmt"
	"math/rand"
	"reflect"
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
	paths, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, DefaultNegotiateParams(), nil)
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
	paths, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, params, nil)
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
	_, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, params, nil)
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
	if _, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, DefaultNegotiateParams(), nil); !ok {
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
	paths, ok := NewWorkspace(obs.Grid()).Negotiate(obs, edges, DefaultNegotiateParams(), nil)
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

// negotiateRun routes edges with the given capture switch and open-list
// restriction, returning the paths, the outcome and the counters.
func negotiateRun(g grid.Grid, obs *grid.ObsMap, edges []Edge, capture, heapOnly bool) (map[int]grid.Path, bool, NegotiateStats) {
	params := DefaultNegotiateParams()
	if capture {
		params.Capture = &NegotiationSeed{}
	}
	var stats NegotiateStats
	ws := NewWorkspace(g)
	ws.heapOnly = heapOnly
	paths, ok := ws.Negotiate(obs, edges, params, &stats)
	ws.heapOnly = false
	return paths, ok, stats
}

// TestNegotiateCacheByteIdentical: nothing replays within a run, so the only
// visit-cone machinery left is the tracking that capture switches on. For
// random instances a capturing run returns the identical (paths, ok) as a
// plain run — tracking and capture are pure observers.
func TestNegotiateCacheByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		wantPaths, wantOK := NewWorkspace(obs.Grid()).Negotiate(obs, edges, DefaultNegotiateParams(), nil)

		for _, capture := range []bool{false, true} {
			paths, ok, _ := negotiateRun(g, obs, edges, capture, false)
			label := fmt.Sprintf("trial %d capture=%v", trial, capture)
			if ok != wantOK {
				t.Fatalf("%s: ok=%v, want %v", label, ok, wantOK)
			}
			pathsIdentical(t, label, paths, wantPaths)
		}
	}
}

// TestNegotiateStatsInvariants: the counters are identical with and without
// capture, every round searches every edge (Searches == Rounds x edges), and
// the within-run replay counters stay zero.
func TestNegotiateStatsInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	sawMultiRound := false
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)

		_, _, want := negotiateRun(g, obs, edges, false, false)
		if want.Searches != want.Rounds*len(edges) {
			t.Fatalf("trial %d: %d searches over %d rounds of %d edges", trial, want.Searches, want.Rounds, len(edges))
		}
		if want.CacheHits != 0 || want.CacheMisses != 0 {
			t.Fatalf("trial %d: replay counters nonzero with nothing to replay: %+v", trial, want)
		}
		if want.Rounds > 1 {
			sawMultiRound = true
		}
		_, _, s := negotiateRun(g, obs, edges, true, false)
		if !statsEqual(s, want) || s.CacheHits != 0 || s.CacheMisses != 0 {
			t.Fatalf("trial %d: capturing run's stats %+v differ from plain %+v", trial, s, want)
		}
	}
	if !sawMultiRound {
		t.Error("no trial needed a second round; the instances no longer exercise rip-up and reroute")
	}
}

// TestNegotiateQueueByteIdentical: the open list the round certificate
// selects returns, on random congested instances, byte-identical paths and
// identical counters to a forced-heap reference. The open list is a pure
// wall-clock choice.
func TestNegotiateQueueByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		wantPaths, wantOK, want := negotiateRun(g, obs, edges, false, true)

		paths, ok, stats := negotiateRun(g, obs, edges, false, false)
		label := fmt.Sprintf("trial %d", trial)
		if ok != wantOK {
			t.Fatalf("%s: ok=%v, want %v", label, ok, wantOK)
		}
		pathsIdentical(t, label, paths, wantPaths)
		if !statsEqual(stats, want) {
			t.Fatalf("%s: stats %+v differ from reference %+v", label, stats, want)
		}
	}
}

func statsEqual(a, b NegotiateStats) bool {
	if a.Rounds != b.Rounds || a.Searches != b.Searches || a.Sealed != b.Sealed ||
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
	var failed NegotiateStats
	ws := NewWorkspace(g)
	_, ok := ws.Negotiate(obs, edges, DefaultNegotiateParams(), &failed)
	if ok {
		t.Fatal("three edges cannot share a one-cell corridor")
	}
	if len(failed.FailedIDs) == 0 {
		t.Fatal("failed negotiation reported no failed edges")
	}
	for i := 1; i < len(failed.FailedIDs); i++ {
		if failed.FailedIDs[i-1] >= failed.FailedIDs[i] {
			t.Fatalf("FailedIDs not in edge order: %v", failed.FailedIDs)
		}
	}
	for _, id := range failed.FailedIDs {
		if id < 10 || id > 12 {
			t.Fatalf("unknown failed ID %d", id)
		}
	}

	// Success path: FailedIDs stays empty.
	var stats NegotiateStats
	okEdges := []Edge{{ID: 0, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 8, Y: 2}}}}
	ws = NewWorkspace(g)
	if _, ok := ws.Negotiate(obs, okEdges, DefaultNegotiateParams(), &stats); !ok {
		t.Fatal("single corridor edge must route")
	}
	if len(stats.FailedIDs) != 0 {
		t.Fatalf("successful negotiation reported failed edges %v", stats.FailedIDs)
	}
}

// laneScenario builds a deterministic negotiation workload: nEdges
// horizontal nets on a grid with a sparse obstacle lattice.
func laneScenario(nEdges int) (grid.Grid, *grid.ObsMap, []Edge) {
	g := grid.New(64, 4*nEdges+4)
	obs := grid.NewObsMap(g)
	for i := 0; i < g.Cells(); i += 37 {
		p := g.Pt(i)
		if p.X > 2 && p.X < 61 {
			obs.Set(p, true)
		}
	}
	edges := make([]Edge, nEdges)
	for i := range edges {
		y := 4*i + 2
		edges[i] = Edge{
			ID:      i,
			Sources: []geom.Pt{{X: 1, Y: y}},
			Targets: []geom.Pt{{X: 62, Y: (y + 7) % (4*nEdges + 4)}},
		}
	}
	return g, obs, edges
}

// TestNegotiateMatchesHandLoop: a negotiation that routes in its first
// round returns exactly the paths of the plain Algorithm 1 loop written out
// by hand — block every terminal, then search the edges in order with zero
// history, each found path becoming an obstacle before the next search.
func TestNegotiateMatchesHandLoop(t *testing.T) {
	g, obs, edges := laneScenario(8)
	var stats NegotiateStats
	got, ok := NewWorkspace(g).Negotiate(obs, edges, DefaultNegotiateParams(), &stats)
	if !ok || stats.Rounds != 1 {
		t.Fatalf("ok=%v after %d rounds; the scenario must route in round 1", ok, stats.Rounds)
	}

	ref := obs.Clone()
	for _, e := range edges {
		for _, c := range append(append([]geom.Pt(nil), e.Sources...), e.Targets...) {
			ref.Set(c, true)
		}
	}
	zero := make([]float64, g.Cells())
	ws := NewWorkspace(g)
	want := map[int]grid.Path{}
	for _, e := range edges {
		p, ok := ws.AStar(g, Request{Sources: e.Sources, Targets: e.Targets, Obs: ref, Hist: zero})
		if !ok {
			t.Fatalf("edge %d: hand loop found no path", e.ID)
		}
		want[e.ID] = p
		ref.SetPath(p, true)
	}
	pathsIdentical(t, "negotiate vs hand loop", got, want)
}

// TestNegotiateReusedAcrossGrids: a workspace carries no routing state
// from one negotiation into the next. After negotiating a differently sized
// grid it returns the same paths and counters as a fresh workspace.
func TestNegotiateReusedAcrossGrids(t *testing.T) {
	_, otherObs, otherEdges := laneScenario(3)
	g, obs, edges := laneScenario(10)
	params := DefaultNegotiateParams()

	var wantStats NegotiateStats
	want, wantOK := NewWorkspace(g).Negotiate(obs, edges, params, &wantStats)

	ws := NewWorkspace(otherObs.Grid())
	if _, ok := ws.Negotiate(otherObs, otherEdges, params, nil); !ok {
		t.Fatal("warm-up negotiation failed")
	}
	var gotStats NegotiateStats
	got, gotOK := ws.Negotiate(obs, edges, params, &gotStats)
	if gotOK != wantOK {
		t.Fatalf("reused workspace ok=%v, fresh ok=%v", gotOK, wantOK)
	}
	pathsIdentical(t, "reused workspace", got, want)
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Fatalf("reused workspace stats %+v, fresh %+v", gotStats, wantStats)
	}
}

// TestNegotiateFailureCommitsNothing: a walled-off edge beside a
// reachable one fails the negotiation, is reported in FailedIDs, and leaves
// the caller's obstacle map byte-identical. The same workspace then routes
// the reachable edge alone exactly as a fresh workspace does.
func TestNegotiateFailureCommitsNothing(t *testing.T) {
	g := grid.New(8, 8)
	obs := grid.NewObsMap(g)
	for y := 0; y < 8; y++ {
		obs.Set(geom.Pt{X: 4, Y: y}, true) // wall: right half unreachable
	}
	walled := Edge{ID: 0, Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 7, Y: 0}}}
	reachable := Edge{ID: 1, Sources: []geom.Pt{{X: 0, Y: 2}}, Targets: []geom.Pt{{X: 3, Y: 2}}}
	before := obs.Bits(nil)

	ws := NewWorkspace(g)
	var stats NegotiateStats
	if _, ok := ws.Negotiate(obs, []Edge{walled, reachable}, DefaultNegotiateParams(), &stats); ok {
		t.Fatal("walled-off edge reported routed")
	}
	if !reflect.DeepEqual(stats.FailedIDs, []int{walled.ID}) {
		t.Fatalf("FailedIDs = %v, want [%d]", stats.FailedIDs, walled.ID)
	}
	if !reflect.DeepEqual(obs.Bits(nil), before) {
		t.Fatal("failed negotiation changed the caller's obstacle map")
	}

	want, wantOK := NewWorkspace(g).Negotiate(obs, []Edge{reachable}, DefaultNegotiateParams(), nil)
	got, gotOK := ws.Negotiate(obs, []Edge{reachable}, DefaultNegotiateParams(), nil)
	if !gotOK || !wantOK {
		t.Fatalf("reachable edge alone: reused ok=%v, fresh ok=%v", gotOK, wantOK)
	}
	pathsIdentical(t, "reachable edge after failure", got, want)
}

// TestNegotiateNilStatsAndReuseIdentical: Negotiate with nil stats returns the
// paths and capture of a tracked run, and one workspace reused across runs
// (each capture mode negotiates on the workspace the previous run left)
// reproduces a fresh workspace's paths, counters and capture.
func TestNegotiateNilStatsAndReuseIdentical(t *testing.T) {
	g, obs, edges := laneScenario(10)
	reused := NewWorkspace(g)
	for _, capture := range []bool{false, true} {
		label := fmt.Sprintf("capture=%v", capture)
		params := func() NegotiateParams {
			p := DefaultNegotiateParams()
			if capture {
				p.Capture = &NegotiationSeed{}
			}
			return p
		}
		fresh := params()
		var wantStats NegotiateStats
		want, wantOK := NewWorkspace(g).Negotiate(obs, edges, fresh, &wantStats)

		untracked := params()
		got, gotOK := NewWorkspace(g).Negotiate(obs, edges, untracked, nil)
		if gotOK != wantOK {
			t.Fatalf("%s: nil stats ok=%v, tracked ok=%v", label, gotOK, wantOK)
		}
		pathsIdentical(t, label+" nil stats", got, want)
		if !reflect.DeepEqual(untracked.Capture, fresh.Capture) {
			t.Fatalf("%s: nil-stats capture differs from tracked", label)
		}

		again := params()
		var gotStats NegotiateStats
		got, gotOK = reused.Negotiate(obs, edges, again, &gotStats)
		if gotOK != wantOK {
			t.Fatalf("%s: reused workspace ok=%v, fresh ok=%v", label, gotOK, wantOK)
		}
		pathsIdentical(t, label+" reused workspace", got, want)
		if !reflect.DeepEqual(gotStats, wantStats) {
			t.Fatalf("%s: reused stats %+v, fresh %+v", label, gotStats, wantStats)
		}
		if !reflect.DeepEqual(again.Capture, fresh.Capture) {
			t.Fatalf("%s: reused capture differs from fresh", label)
		}
	}
}
