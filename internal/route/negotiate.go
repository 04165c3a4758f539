package route

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Edge is one connection request for the negotiation router: route from any
// source cell to any target cell.
type Edge struct {
	ID      int
	Sources []geom.Pt
	Targets []geom.Pt
}

// NegotiateParams are the tuning constants of Algorithm 1 and Eq. 5. The
// paper sets BaseHist (bg) = 1.0, Alpha = 0.1, Gamma = 10.
type NegotiateParams struct {
	BaseHist float64
	Alpha    float64
	Gamma    int
	// Seed, when non-nil, warm-starts the run from a previous run's captured
	// transcript (cross-run incremental routing, seed.go): aligned edges
	// whose recorded cones avoid every cross-run divergence cell replay the
	// parent's per-round outcomes instead of searching. Replay is gated on a
	// cone-disjointness proof, so it never changes routed output, and a seed
	// whose grid, parameters, or shape don't match is ignored.
	Seed *NegotiationSeed
	// Capture, when non-nil, records the run's full per-round transcript
	// (outcomes and visit cones, delta-encoded) into the pointed-to seed for
	// later use as Seed. Capture runs every search tracked (it needs the
	// cones), which changes wall-clock but never output or the counters.
	Capture *NegotiationSeed

	// checkReplay re-runs the search behind every seeded replay and panics
	// if the replayed outcome differs. The seed tests set it; a divergence
	// means the cone-disjointness argument of seed.go is broken.
	checkReplay bool
}

// DefaultNegotiateParams mirrors the paper's settings.
func DefaultNegotiateParams() NegotiateParams {
	return NegotiateParams{BaseHist: 1.0, Alpha: 0.1, Gamma: 10}
}

// NegotiateStats reports one (or, when accumulated, several) negotiation
// runs' work, and on failure the edges left unrouted.
type NegotiateStats struct {
	// Rounds counts Algorithm 1 iterations executed.
	Rounds int
	// Searches counts the (round, edge) searches run. Every (round, edge)
	// pair is either searched or replayed from a seed, so an unseeded run
	// has Searches = Rounds × edges.
	Searches int
	// CacheHits and CacheMisses are always 0: nothing replays within a run.
	// They remain only so that existing readers of the counters keep
	// compiling.
	CacheHits   int
	CacheMisses int
	// Sealed counts the searches that ended on a sealed-pocket verdict
	// (Workspace.AStar): the edge's targets were walled into a small pocket,
	// so the search failed without flooding the grid. Replayed outcomes are
	// not searches and never count.
	Sealed int
	// SeededEdges counts child edges aligned to a cross-run seed's transcript
	// (seed.go) — the edges *eligible* for cross-run replay this run.
	SeededEdges int
	// SeededHits counts cross-run replays actually taken: (round, edge)
	// outcomes copied from the parent transcript instead of searched. Each
	// one is a search a cold run would have executed, so
	// Searches_cold = Searches_seeded + SeededHits.
	SeededHits int
	// FailedIDs lists, in edge order, the IDs left unrouted in the final
	// round when negotiation gave up (ok=false); empty on success.
	FailedIDs []int
}

// Add accumulates o into s (FailedIDs concatenate in call order).
func (s *NegotiateStats) Add(o NegotiateStats) {
	s.Rounds += o.Rounds
	s.Searches += o.Searches
	s.Sealed += o.Sealed
	s.SeededEdges += o.SeededEdges
	s.SeededHits += o.SeededHits
	s.FailedIDs = append(s.FailedIDs, o.FailedIDs...) //pacor:allow hotalloc stats aggregation runs once per flow stage, not per search
}

// Negotiate routes all edges on the shared obstacle map using the
// negotiation strategy of Algorithm 1: edges are routed sequentially with
// routed paths acting as obstacles; when any edge fails, the history cost of
// every cell on the routed paths is raised per Eq. 5 and the whole iteration
// restarts, up to Gamma rounds. On success it returns the path per edge ID.
// On failure it returns ok=false along with the paths of the last
// (incomplete) iteration for diagnostic use; obs is left unmodified either
// way. Every inner A* reuses w's search arrays, and one scratch obstacle map
// is shared across iterations.
//
// When stats is non-nil, round, search, and seeding counters accumulate
// into it, and on failure the final round's unrouted edge IDs land in
// stats.FailedIDs (edge order).
func (w *Workspace) Negotiate(obs *grid.ObsMap, edges []Edge, params NegotiateParams, stats *NegotiateStats) (map[int]grid.Path, bool) {
	g := obs.Grid()
	//pacor:allow hotalloc once per negotiation run, amortized over gamma iterations of inner searches
	hist := make([]float64, g.Cells()) // Step 1: initialize history cost
	//pacor:allow hotalloc result map returned to the caller, sized up front
	paths := make(map[int]grid.Path, len(edges))

	// Step 2's per-round ObsMap: one workspace-resident map, rebuilt per
	// round by journal rewind (O(round's committed paths)) instead of a full
	// O(cells) copy. Terminals are blocked once, below the rewind mark: a
	// channel may not run through another net's valve or merge point, while
	// an edge's own search is unaffected (sources seed unconditionally,
	// targets are obstacle-exempt), so edges of the same Steiner tree still
	// connect at their shared merging nodes.
	work := w.negWorkFor(g)
	work.CopyFrom(obs)
	routed := false
	w.negJournal = work.Journal(w.negJournal, func() {
		for _, e := range edges {
			for _, c := range e.Sources {
				work.Set(c, true)
			}
			for _, c := range e.Targets {
				work.Set(c, true)
			}
		}
		mark := work.JournalLen()
		w.negFailed = w.negFailed[:0]

		// Cross-run seeding and capture (seed.go) initialize against the
		// round-start state just journaled above: the seed's start bitmap
		// must diff against the same blocked set (base map plus terminals) a
		// capture of this run would record.
		w.negParentLive = false
		w.negSeedOn = w.negSeedStart(g, work, edges, params, stats)
		w.negCapOn = w.negCaptureStart(g, work, edges, params)

		// The open list follows from the round's history alone: round r's
		// values are the Eq.-5 iterates h_0..h_r, and while HistQuant
		// certifies them the round's searches run on the bucket queue; once
		// an iterate stops being dyadic the run stays on the heap. The
		// certificate rides on every request (negReq), so a replay check
		// searches on the same open list.
		quantOK := !w.heapOnly

		for r := 0; r < params.Gamma; r++ { // Steps 5-16
			if r > 0 {
				work.RewindJournal(mark)
			}
			w.negScale, w.negMaxStep = 0, 0
			if quantOK {
				w.negScale, w.negMaxStep, quantOK = HistQuant(params.BaseHist, params.Alpha, r)
			}
			for k := range paths {
				delete(paths, k)
			}
			w.negFailed = w.negFailed[:0]
			if stats != nil {
				stats.Rounds++
			}
			if w.negSeedOn {
				w.negParentLive = r < len(w.negSeed.Rounds)
				if w.negParentLive {
					w.negParentApply(r)
				}
			}
			if w.negCapOn {
				w.negCaptureRound()
			}
			if w.negRound(g, work, edges, hist, paths, params, stats) {
				routed = true
				break
			}
			// Steps 17-19: bump history along routed paths, then rip them
			// up. (Map iteration order varies, but the bump composes the same
			// affine update per visit regardless of visit order, so hist is
			// order-independent.)
			for _, p := range paths {
				for _, c := range p {
					i := g.Index(c)
					hist[i] = params.BaseHist + params.Alpha*hist[i]
				}
			}
		}
	})
	if w.negSeedOn || w.negCapOn {
		w.negSeedFinish()
	}
	if stats != nil && !routed {
		stats.FailedIDs = append(stats.FailedIDs, w.negFailed...) //pacor:allow hotalloc failure-path diagnostic, grows the caller's stats slice once
	}
	return paths, routed
}

// negWorkFor returns the workspace-resident negotiation work map for g.
//
//pacor:allow hotalloc allocated once per grid change, reused across negotiation runs
func (w *Workspace) negWorkFor(g grid.Grid) *grid.ObsMap {
	if w.negWork == nil || w.negWork.Grid() != g {
		w.negWork = grid.NewObsMap(g)
	}
	return w.negWork
}

// negReq builds the round's search request for one edge: the same sources,
// targets, work map, and history both call sites (fresh search, replay
// check) must use, with the round's quantization certificate attached.
func (w *Workspace) negReq(e *Edge, work *grid.ObsMap, hist []float64) Request {
	return Request{
		Sources: e.Sources, Targets: e.Targets, Obs: work, Hist: hist,
		HistScale: w.negScale, HistMax: w.negMaxStep,
	}
}

// negRound routes one round's edges in order (Steps 7-13), replaying valid
// cross-run seed entries whenever the parent transcript covers the round.
// It reports whether every edge routed.
func (w *Workspace) negRound(g grid.Grid, work *grid.ObsMap, edges []Edge, hist []float64,
	paths map[int]grid.Path, params NegotiateParams, stats *NegotiateStats) bool {
	done := true
	seedLive := w.negSeedOn && w.negParentLive
	capOn := w.negCapOn
	for ei := range edges {
		e := &edges[ei]
		var p grid.Path
		var ok bool
		if seedLive && w.negParentValid(ei) {
			p, ok = w.negReplay(g, work, hist, edges, ei, params, stats)
		} else {
			// Only a capture consumes the cone, so only a capture pays for
			// tracking. Cross-run comparison needs only the committed path.
			if capOn {
				w.StartVisitTracking()
			}
			sealed := w.sealed
			p, ok = w.AStar(g, w.negReq(e, work, hist))
			if capOn {
				w.StopVisitTracking()
				w.negVisits = w.CopyVisits(w.negVisits[:0])
				w.negCaptureRecord(ei, p, ok, w.negVisits)
			}
			if stats != nil {
				stats.Searches++
				stats.Sealed += w.sealed - sealed
			}
			if seedLive {
				w.negCrossCompare(g, ei, p, ok)
			}
		}
		if ok {
			paths[e.ID] = p
			work.SetPath(p, true) // Step 11: routed path becomes obstacle
		} else {
			done = false
			w.negFailed = append(w.negFailed, e.ID) //pacor:allow hotalloc amortized failed-ID growth, buffer reused across rounds
		}
	}
	return done
}

// negReplay takes edge ei's outcome for this round from the parent
// transcript instead of searching, recording it as a fresh search would be
// recorded. Under checkReplay it first re-runs the search against the
// current work map and panics on any divergence.
func (w *Workspace) negReplay(g grid.Grid, work *grid.ObsMap, hist []float64, edges []Edge, ei int,
	params NegotiateParams, stats *NegotiateStats) (grid.Path, bool) {
	pe := &w.negParent[w.negAlign[ei]]
	if params.checkReplay {
		e := &edges[ei]
		p, ok := w.AStar(g, w.negReq(e, work, hist))
		if ok != pe.ok || !pathsEqual(p, pe.path) {
			panic(fmt.Sprintf(
				"route: seeded replay divergence on edge %d: replayed ok=%v len=%d, fresh ok=%v len=%d",
				e.ID, pe.ok, pe.path.Len(), ok, p.Len()))
		}
	}
	if stats != nil {
		stats.SeededHits++
	}
	if w.negCapOn {
		w.negCaptureRecord(ei, pe.path, pe.ok, pe.visits)
	}
	return pe.path, pe.ok
}

// pathsEqual reports cell-exact path equality.
func pathsEqual(a, b grid.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
