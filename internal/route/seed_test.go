package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// negRun routes the instance once with the given seed/capture wiring and
// returns the outputs and stats.
func negRun(g grid.Grid, obs *grid.ObsMap, edges []Edge,
	seed, capture *NegotiationSeed, check bool) (map[int]grid.Path, bool, NegotiateStats) {
	var s NegotiateStats
	params := DefaultNegotiateParams()
	params.Seed = seed
	params.Capture = capture
	params.checkReplay = check
	ws := NewWorkspace(g)
	paths, ok := ws.Negotiate(obs, edges, params, &s)
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
		wantPaths, wantOK, wantStats := negRun(g, obs, edges, nil, nil, false)
		var cap NegotiationSeed
		paths, ok, stats := negRun(g, obs, edges, nil, &cap, false)
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
// (round, edge) outcome comes from the parent transcript — with every replay
// re-searched and compared.
func TestSeedExactReplayIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 25; trial++ {
		g, obs, edges := randomNegotiateInstance(rng)
		var cap NegotiationSeed
		wantPaths, wantOK, cold := negRun(g, obs, edges, nil, &cap, false)

		paths, ok, warm := negRun(g, obs, edges, &cap, nil, true)
		if ok != wantOK {
			t.Fatalf("trial %d: seeded ok=%v, want %v", trial, ok, wantOK)
		}
		pathsIdentical(t, "seeded run", paths, wantPaths)
		if warm.Searches != 0 {
			t.Fatalf("trial %d: exact replay still ran %d searches", trial, warm.Searches)
		}
		if warm.SeededEdges != len(edges) {
			t.Fatalf("trial %d: SeededEdges=%d, want %d", trial, warm.SeededEdges, len(edges))
		}
		if cold.Searches != warm.Searches+warm.SeededHits {
			t.Fatalf("trial %d: counters invariant broken: cold %+v warm %+v", trial, cold, warm)
		}
		if warm.Rounds != cold.Rounds {
			t.Fatalf("trial %d: rounds differ: %d vs %d", trial, warm.Rounds, cold.Rounds)
		}
	}
}

// sealingNegotiateInstance builds a negotiation instance in which an
// earlier edge seals a later edge's target. Edge 0 runs straight along an
// obstacle-free lane row. Edge 1's target sits in a walled pocket below the
// lane whose one opening is a lane cell, and its source lies below the lane
// too, so once edge 0 commits the lane, edge 1's search ends on a
// sealed-pocket verdict; history then moves edge 0 off the lane in a later
// round. Up to two random edges and scattered obstacles off the lane add
// congestion. It also returns the pocket's walls and opening, the cells
// where a perturbation decides whether the sealed search's outcome changes.
func sealingNegotiateInstance(rng *rand.Rand) (grid.Grid, *grid.ObsMap, []Edge, []geom.Pt) {
	w, h := 18+rng.Intn(10), 16+rng.Intn(8)
	g := grid.New(w, h)
	obs := grid.NewObsMap(g)
	lane := 2 + rng.Intn(3)
	for i := 0; i < g.Cells()/16; i++ {
		if c := (geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}); c.Y < lane-1 || c.Y > lane {
			obs.Set(c, true)
		}
	}
	// The pocket is a pw×ph box two rows below the lane, joined to the lane
	// cell above it by a one-cell neck at column mx.
	pw, ph := 1+rng.Intn(4), 1+rng.Intn(4)
	px := 3 + rng.Intn(w-pw-6)
	mx := px + rng.Intn(pw)
	in := map[geom.Pt]bool{{X: mx, Y: lane + 1}: true}
	for x := px; x < px+pw; x++ {
		for y := lane + 2; y < lane+2+ph; y++ {
			in[geom.Pt{X: x, Y: y}] = true
		}
	}
	mouth := geom.Pt{X: mx, Y: lane}
	hot := []geom.Pt{mouth}
	used := map[geom.Pt]bool{mouth: true} // cells the random edges must not take
	var nbuf []geom.Pt
	for x := px; x < px+pw; x++ { // deterministic order over the box and neck
		for y := lane + 1; y < lane+2+ph; y++ {
			c := geom.Pt{X: x, Y: y}
			if !in[c] {
				continue
			}
			obs.Set(c, false)
			used[c] = true
			nbuf = g.Neighbors(c, nbuf)
			for _, q := range nbuf {
				if !in[q] && !used[q] {
					obs.Set(q, true)
					used[q] = true
					hot = append(hot, q)
				}
			}
		}
	}
	edges := []Edge{
		{ID: 0, Sources: []geom.Pt{{X: 0, Y: lane}}, Targets: []geom.Pt{{X: w - 1, Y: lane}}},
		{ID: 1, Sources: []geom.Pt{{X: 0, Y: h - 1}}, Targets: []geom.Pt{{X: px + rng.Intn(pw), Y: lane + 2 + rng.Intn(ph)}}},
	}
	for _, e := range edges {
		used[e.Sources[0]] = true
		obs.Set(e.Sources[0], false)
	}
	pick := func() geom.Pt {
		for {
			p := geom.Pt{X: rng.Intn(w), Y: rng.Intn(h)}
			if !used[p] && p.Y != lane {
				used[p] = true
				obs.Set(p, false)
				return p
			}
		}
	}
	for n := rng.Intn(3); n > 0; n-- {
		edges = append(edges, Edge{ID: len(edges), Sources: []geom.Pt{pick()}, Targets: []geom.Pt{pick()}})
	}
	return g, obs, edges, hot
}

// TestSeedNearReplayIdentity: after perturbing the instance (an obstacle
// toggled), a run seeded from the unperturbed capture is byte-identical to a
// cold run of the perturbed instance, satisfies the counters invariant
// Searches_cold = Searches_seeded + SeededHits, and actually skips
// searches. Every replay is re-searched and compared. Two instance
// families run: random congested instances, and sealing instances
// (sealingNegotiateInstance) whose cold runs must end searches on
// sealed-pocket verdicts; half of their perturbations toggle a pocket wall
// or its opening, which a verdict's cone must cover.
func TestSeedNearReplayIdentity(t *testing.T) {
	families := []struct {
		name  string
		seed  int64
		build func(*rand.Rand) (grid.Grid, *grid.ObsMap, []Edge, []geom.Pt)
	}{
		{"random", 79, func(rng *rand.Rand) (grid.Grid, *grid.ObsMap, []Edge, []geom.Pt) {
			g, obs, edges := randomNegotiateInstance(rng)
			return g, obs, edges, nil
		}},
		{"sealing", 97, sealingNegotiateInstance},
	}
	for _, f := range families {
		rng := rand.New(rand.NewSource(f.seed))
		sawSaving := false
		coldSealed := 0
		for trial := 0; trial < 40; trial++ {
			g, obs, edges, hot := f.build(rng)
			var cap NegotiationSeed
			negRun(g, obs, edges, nil, &cap, false)

			// Perturb: toggle one non-terminal cell's obstacle state.
			terminal := map[geom.Pt]bool{}
			for _, e := range edges {
				for _, q := range append(append([]geom.Pt{}, e.Sources...), e.Targets...) {
					terminal[q] = true
				}
			}
			pert := obs.Clone()
			for {
				c := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
				if len(hot) > 0 && rng.Intn(2) == 0 {
					c = hot[rng.Intn(len(hot))]
				}
				if !terminal[c] {
					pert.Set(c, !pert.Blocked(c))
					break
				}
			}

			wantPaths, wantOK, cold := negRun(g, pert, edges, nil, nil, false)
			paths, ok, warm := negRun(g, pert, edges, &cap, nil, true)
			if ok != wantOK {
				t.Fatalf("%s trial %d: seeded ok=%v, want %v", f.name, trial, ok, wantOK)
			}
			pathsIdentical(t, f.name+" near-seeded run", paths, wantPaths)
			if cold.Searches != warm.Searches+warm.SeededHits {
				t.Fatalf("%s trial %d: counters invariant broken:\ncold %+v\nwarm %+v", f.name, trial, cold, warm)
			}
			if cold.Rounds != warm.Rounds {
				t.Fatalf("%s trial %d: rounds diverged:\ncold %+v\nwarm %+v", f.name, trial, cold, warm)
			}
			if warm.SeededHits > 0 && warm.Searches < cold.Searches {
				sawSaving = true
			}
			coldSealed += cold.Sealed
		}
		if !sawSaving {
			t.Errorf("%s: no trial skipped any search via seeding; the near-hit path is dead", f.name)
		}
		if f.name == "sealing" && coldSealed == 0 {
			t.Errorf("%s: no cold run ended a search on a sealed-pocket verdict", f.name)
		}
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
		negRun(g, obs, edges, nil, &cap, false)

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

		wantPaths, wantOK, cold := negRun(g, obs, child, nil, nil, false)
		paths, ok, warm := negRun(g, obs, child, &cap, nil, true)
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
	wantPaths, wantOK, cold := negRun(g, obs, edges, nil, &cap, false)

	reject := func(label string, seed *NegotiationSeed) {
		t.Helper()
		paths, ok, warm := negRun(g, obs, edges, seed, nil, false)
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
