package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// negRun routes the instance once with the given seed/capture wiring and
// returns the outputs and stats.
func negRun(g grid.Grid, obs *grid.ObsMap, edges []Edge, workers int,
	seed, capture *NegotiationSeed, check bool) (map[int]grid.Path, bool, NegotiateStats) {
	var s NegotiateStats
	params := DefaultNegotiateParams()
	params.Workers = workers
	params.Seed = seed
	params.Capture = capture
	params.checkReplay = check
	ws := AcquireWorkspace(g)
	paths, ok := ws.NegotiateTracked(obs, edges, params, &s)
	ReleaseWorkspace(ws)
	return paths, ok, s
}

func pathsIdentical(t *testing.T, label string, got, want map[int]grid.Path) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d paths, want %d", label, len(got), len(want))
	}
	for id, p := range want {
		if !pathsEqual(p, got[id]) {
			t.Fatalf("%s: edge %d path differs\n got %v\nwant %v", label, id, got[id], p)
		}
	}
}

// TestSeedCaptureIsInert: running with capture enabled changes neither the
// routed output nor the observable counters of a cold run.
func TestSeedCaptureIsInert(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 25; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		wantPaths, wantOK, wantStats := negRun(g, obs, edges, 0, nil, nil, false)
		var cap NegotiationSeed
		paths, ok, stats := negRun(g, obs, edges, 0, nil, &cap, false)
		if ok != wantOK {
			t.Fatalf("trial %d: capture changed ok: %v vs %v", trial, ok, wantOK)
		}
		pathsIdentical(t, "capture run", paths, wantPaths)
		if !statsEqual(stats, wantStats) || stats.SeededHits != 0 || stats.SeededEdges != 0 {
			t.Fatalf("trial %d: capture changed stats: %+v vs %+v", trial, stats, wantStats)
		}
		if len(cap.Rounds) != wantStats.Rounds {
			t.Fatalf("trial %d: capture has %d rounds, run had %d", trial, len(cap.Rounds), wantStats.Rounds)
		}
		if cap.SizeBytes() <= 0 {
			t.Fatalf("trial %d: capture SizeBytes = %d", trial, cap.SizeBytes())
		}
	}
}

// TestSeedExactReplayIdentity: replaying a captured run on the identical
// instance produces byte-identical output with zero searches — every
// (round, edge) outcome comes from the parent transcript — for every worker
// count, with every replay re-searched and compared.
func TestSeedExactReplayIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		var cap NegotiationSeed
		wantPaths, wantOK, cold := negRun(g, obs, edges, 0, nil, &cap, false)

		for _, workers := range []int{0, 1, 2, 4} {
			paths, ok, warm := negRun(g, obs, edges, workers, &cap, nil, true)
			if ok != wantOK {
				t.Fatalf("trial %d workers=%d: seeded ok=%v, want %v", trial, workers, ok, wantOK)
			}
			pathsIdentical(t, "seeded run", paths, wantPaths)
			if warm.Searches != 0 {
				t.Fatalf("trial %d workers=%d: exact replay still ran %d searches", trial, workers, warm.Searches)
			}
			if warm.SeededEdges != len(edges) {
				t.Fatalf("trial %d workers=%d: SeededEdges=%d, want %d", trial, workers, warm.SeededEdges, len(edges))
			}
			if cold.Searches != warm.Searches+warm.SeededHits {
				t.Fatalf("trial %d workers=%d: counters invariant broken: cold %+v warm %+v",
					trial, workers, cold, warm)
			}
			if warm.Rounds != cold.Rounds {
				t.Fatalf("trial %d workers=%d: rounds differ: %d vs %d", trial, workers, warm.Rounds, cold.Rounds)
			}
		}
	}
}

// TestSeedNearReplayIdentity: after perturbing the instance (an obstacle
// toggled, an edge terminal moved), a run seeded from the unperturbed capture
// is byte-identical to a cold run of the perturbed instance, satisfies the
// counters invariant Searches_cold = Searches_seeded + SeededHits, and
// actually skips searches. Every replay is re-searched and compared.
func TestSeedNearReplayIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	sawSaving := false
	for trial := 0; trial < 40; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		var cap NegotiationSeed
		negRun(g, obs, edges, 0, nil, &cap, false)

		// Perturb: toggle one non-terminal cell's obstacle state.
		pert := obs.Clone()
		for {
			c := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
			terminal := false
			for _, e := range edges {
				for _, q := range append(append([]geom.Pt{}, e.Sources...), e.Targets...) {
					if q == c {
						terminal = true
					}
				}
			}
			if !terminal {
				pert.Set(c, !pert.Blocked(c))
				break
			}
		}

		wantPaths, wantOK, cold := negRun(g, pert, edges, 0, nil, nil, false)
		for _, workers := range []int{0, 2} {
			paths, ok, warm := negRun(g, pert, edges, workers, &cap, nil, true)
			if ok != wantOK {
				t.Fatalf("trial %d workers=%d: seeded ok=%v, want %v", trial, workers, ok, wantOK)
			}
			pathsIdentical(t, "near-seeded run", paths, wantPaths)
			if cold.Searches != warm.Searches+warm.SeededHits {
				t.Fatalf("trial %d workers=%d: counters invariant broken:\ncold %+v\nwarm %+v",
					trial, workers, cold, warm)
			}
			if cold.Rounds != warm.Rounds {
				t.Fatalf("trial %d workers=%d: rounds diverged:\ncold %+v\nwarm %+v",
					trial, workers, cold, warm)
			}
			if warm.SeededHits > 0 && warm.Searches < cold.Searches {
				sawSaving = true
			}
		}
	}
	if !sawSaving {
		t.Error("no trial skipped any search via seeding; the near-hit path is dead")
	}
}

// TestSeedEdgeSetChange: adding or dropping an edge leaves the surviving
// edges aligned (monotone LCS) and the output byte-identical to cold.
func TestSeedEdgeSetChange(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 25; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		if len(edges) < 4 {
			continue
		}
		var cap NegotiationSeed
		negRun(g, obs, edges, 0, nil, &cap, false)

		// Drop a middle edge and re-ID the survivors (as a re-clustered flow
		// request would).
		child := make([]Edge, 0, len(edges)-1)
		drop := 1 + rng.Intn(len(edges)-2)
		for i, e := range edges {
			if i == drop {
				continue
			}
			e.ID = len(child)
			child = append(child, e)
		}

		wantPaths, wantOK, cold := negRun(g, obs, child, 0, nil, nil, false)
		paths, ok, warm := negRun(g, obs, child, 0, &cap, nil, true)
		if ok != wantOK {
			t.Fatalf("trial %d: seeded ok=%v, want %v", trial, ok, wantOK)
		}
		pathsIdentical(t, "edge-dropped seeded run", paths, wantPaths)
		if warm.SeededEdges != len(child) {
			t.Fatalf("trial %d: SeededEdges=%d, want %d aligned", trial, warm.SeededEdges, len(child))
		}
		if cold.Searches != warm.Searches+warm.SeededHits {
			t.Fatalf("trial %d: counters invariant broken:\ncold %+v\nwarm %+v", trial, cold, warm)
		}
	}
}

// TestSeedRejectsMismatch: a seed from another grid, another parameter set,
// or with a malformed shape is ignored — the run is a plain cold run.
func TestSeedRejectsMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(89))
	g, obs, edges := randomNegotiateInstance(rng)
	var cap NegotiationSeed
	wantPaths, wantOK, cold := negRun(g, obs, edges, 0, nil, &cap, false)

	reject := func(label string, seed *NegotiationSeed) {
		t.Helper()
		paths, ok, warm := negRun(g, obs, edges, 0, seed, nil, false)
		if ok != wantOK {
			t.Fatalf("%s: ok=%v, want %v", label, ok, wantOK)
		}
		pathsIdentical(t, label, paths, wantPaths)
		if warm.SeededEdges != 0 || warm.SeededHits != 0 {
			t.Fatalf("%s: seed not rejected: %+v", label, warm)
		}
		if warm.Searches != cold.Searches {
			t.Fatalf("%s: rejected seed changed search count: %d vs %d", label, warm.Searches, cold.Searches)
		}
	}

	wrongGrid := cap
	wrongGrid.W++
	reject("wrong grid", &wrongGrid)

	wrongSig := cap
	wrongSig.ParamsSig = "bh=2;a=0.5;g=3"
	reject("wrong params", &wrongSig)

	malformed := cap
	malformed.Rounds = make([][]SeedEntry, len(cap.Rounds))
	copy(malformed.Rounds, cap.Rounds)
	malformed.Rounds[0] = append([]SeedEntry{{Edge: len(cap.Edges) + 7, Visits: make([]uint64, len(cap.Start))}}, cap.Rounds[0]...)
	reject("malformed edge index", &malformed)

	truncated := cap
	truncated.Start = cap.Start[:len(cap.Start)-1]
	reject("truncated start bitmap", &truncated)
}

// TestAlignEdges: exact-signature monotone matching — identical lists align
// fully, a dropped element aligns the rest, a permutation aligns a longest
// monotone subsequence, and signature collisions never align unequal edges.
func TestAlignEdges(t *testing.T) {
	mk := func(pts ...geom.Pt) Edge {
		return Edge{Sources: pts[:1], Targets: pts[1:]}
	}
	a := mk(geom.Pt{X: 0, Y: 0}, geom.Pt{X: 5, Y: 0})
	b := mk(geom.Pt{X: 0, Y: 1}, geom.Pt{X: 5, Y: 1})
	c := mk(geom.Pt{X: 0, Y: 2}, geom.Pt{X: 5, Y: 2})
	d := mk(geom.Pt{X: 0, Y: 3}, geom.Pt{X: 5, Y: 3})
	sig := func(e Edge) SeedEdge { return SeedEdge{Sources: e.Sources, Targets: e.Targets} }

	parent := []SeedEdge{sig(a), sig(b), sig(c), sig(d)}
	got := alignEdges([]Edge{a, b, c, d}, parent, nil)
	for i, pj := range got {
		if pj != i {
			t.Fatalf("identity alignment: align[%d]=%d", i, pj)
		}
	}

	got = alignEdges([]Edge{a, c, d}, parent, got)
	want := []int{0, 2, 3}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("dropped-element alignment: got %v, want %v", got, want)
		}
	}

	// Permutation: only a monotone subsequence may align.
	got = alignEdges([]Edge{b, a, c}, parent, got)
	matched := 0
	last := -1
	for i, pj := range got {
		if pj < 0 {
			continue
		}
		matched++
		if pj <= last {
			t.Fatalf("non-monotone alignment %v", got)
		}
		last = pj
		if !edgeSigEqual(&[]Edge{b, a, c}[i], &parent[pj]) {
			t.Fatalf("aligned unequal signatures at child %d parent %d", i, pj)
		}
	}
	if matched < 2 {
		t.Fatalf("permutation aligned only %d edges: %v", matched, got)
	}
}
