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
	// Workers sets the pool size for routing each round's edges through the
	// spatial-dependency scheduler (RunScheduled). 0 or 1 routes the round
	// sequentially; any value produces byte-identical results — the scheduler
	// validates every speculative search against the exact sequential
	// obstacle state before committing it.
	Workers int
	// Hier configures the hierarchical two-stage router (hier.go): a tile-
	// level min-cost-flow global stage assigns each edge a corridor, and the
	// detailed searches run masked to it, escalating to the flat search
	// whenever the mask clips. For negotiation the hierarchy is exact — like
	// Workers, it never changes routed output, only wall-clock. The zero
	// value is auto: on only above the cell threshold.
	Hier HierParams
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
	// Searches counts A* runs in the sequential transcript (scheduler-internal
	// speculative re-runs are not counted; they exist at any worker count's
	// discretion and never change the output). Every (round, edge) pair is
	// either searched or replayed from a seed, so an unseeded run has
	// Searches = Rounds × edges.
	Searches int
	// CacheHits and CacheMisses are always 0: nothing replays within a run.
	// They remain only so that existing readers of the counters keep
	// compiling.
	CacheHits   int
	CacheMisses int
	// SeededEdges counts child edges aligned to a cross-run seed's transcript
	// (seed.go) — the edges *eligible* for cross-run replay this run.
	SeededEdges int
	// SeededHits counts cross-run replays actually taken: (round, edge)
	// outcomes copied from the parent transcript instead of searched. Each
	// one is a search a cold run would have executed, so
	// Searches_cold = Searches_seeded + SeededHits.
	SeededHits int
	// Hier counts the hierarchical router's work (zero when the hierarchy is
	// off or below its auto threshold).
	Hier HierStats
	// FailedIDs lists, in edge order, the IDs left unrouted in the final
	// round when negotiation gave up (ok=false); empty on success.
	FailedIDs []int
}

// Add accumulates o into s (FailedIDs concatenate in call order).
func (s *NegotiateStats) Add(o NegotiateStats) {
	s.Rounds += o.Rounds
	s.Searches += o.Searches
	s.SeededEdges += o.SeededEdges
	s.SeededHits += o.SeededHits
	s.Hier.Add(o.Hier)
	s.FailedIDs = append(s.FailedIDs, o.FailedIDs...) //pacor:allow hotalloc stats aggregation runs once per flow stage, not per search
}

// Negotiate routes all edges on the shared obstacle map using the
// negotiation strategy of Algorithm 1: edges are routed sequentially with
// routed paths acting as obstacles; when any edge fails, the history cost of
// every cell on the routed paths is raised per Eq. 5 and the whole iteration
// restarts, up to Gamma rounds. On success it returns the path per edge ID.
// On failure it returns ok=false along with the paths of the last
// (incomplete) iteration for diagnostic use; obs is left unmodified either
// way.
//
// This wrapper draws a pooled Workspace; callers in routing inner loops
// should hold their own Workspace and use its Negotiate method directly.
func Negotiate(obs *grid.ObsMap, edges []Edge, params NegotiateParams) (map[int]grid.Path, bool) {
	w := AcquireWorkspace(obs.Grid())
	paths, ok := w.Negotiate(obs, edges, params)
	ReleaseWorkspace(w)
	return paths, ok
}

// Negotiate is the workspace-backed form of the package-level Negotiate:
// the same Algorithm 1, with every inner A* reusing w's search arrays and
// one scratch obstacle map shared across iterations.
func (w *Workspace) Negotiate(obs *grid.ObsMap, edges []Edge, params NegotiateParams) (map[int]grid.Path, bool) {
	return w.NegotiateTracked(obs, edges, params, nil)
}

// NegotiateTracked is Negotiate with run statistics: when stats is non-nil,
// round, search, and seeding counters accumulate into it, and on failure the
// final round's unrouted edge IDs land in stats.FailedIDs (edge order).
func (w *Workspace) NegotiateTracked(obs *grid.ObsMap, edges []Edge, params NegotiateParams, stats *NegotiateStats) (map[int]grid.Path, bool) {
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
	work.StartJournal(w.negJournal)
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
	// round-start state just journaled above: the seed's start bitmap must
	// diff against the same blocked set (base map plus terminals) a capture
	// of this run would record.
	w.negParentLive = false
	w.negSeedOn = w.negSeedStart(g, work, edges, params, stats)
	w.negCapOn = w.negCaptureStart(g, work, edges, params)

	// Hierarchical global stage: coarsen the round-start work map (terminals
	// included as obstacles) once per run; corridors are reassigned per round
	// against the round's history. The run flag is always (re)set so a pooled
	// workspace never carries a stale hierarchy into a flat run.
	hierOn := params.Hier.On(g.Cells()) && len(edges) > 0
	w.hier.run = false
	if hierOn {
		w.hierPrepare(work, len(edges), params.Hier, stats)
	}

	// The open list follows from the round's history alone: round r's values
	// are the Eq.-5 iterates h_0..h_r, and while HistQuant certifies them the
	// round's searches run on the bucket queue; once an iterate stops being
	// dyadic the run stays on the heap. The certificate rides on every
	// request, so the scheduler's worker workspaces make the same choice.
	quantOK := !w.heapOnly

	routed := false
	for r := 0; r < params.Gamma; r++ { // Steps 5-16
		if r > 0 {
			work.RewindJournal(mark)
		}
		if hierOn {
			w.hierAssign(edges, hist, r, stats)
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
		var done bool
		if params.Workers > 1 && len(edges) > 1 {
			done = w.negRoundParallel(g, work, edges, hist, paths, params, stats)
		} else {
			done = w.negRoundSeq(g, work, edges, hist, paths, params, stats)
		}
		if done {
			routed = true
			break
		}
		// Steps 17-19: bump history along routed paths, then rip them up.
		// (Map iteration order varies, but the bump composes the same affine
		// update per visit regardless of visit order, so hist is
		// order-independent.)
		for _, p := range paths {
			for _, c := range p {
				i := g.Index(c)
				hist[i] = params.BaseHist + params.Alpha*hist[i]
			}
		}
	}
	w.negJournal = work.StopJournal()
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
// targets, work map, and history every call site (fresh search, replay
// check, scheduler task) must use, with the round's quantization certificate
// attached.
func (w *Workspace) negReq(e *Edge, work *grid.ObsMap, hist []float64) Request {
	return Request{
		Sources: e.Sources, Targets: e.Targets, Obs: work, Hist: hist,
		HistScale: w.negScale, HistMax: w.negMaxStep,
	}
}

// negRoundSeq routes one round's edges sequentially (Steps 7-13), replaying
// valid cross-run seed entries whenever the parent transcript covers the
// round. It reports whether every edge routed.
func (w *Workspace) negRoundSeq(g grid.Grid, work *grid.ObsMap, edges []Edge, hist []float64,
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
			// tracking. The whole ladder runs tracked: its recorded cone is
			// the union of every rung's visits — a superset of the flat
			// search's cone, so seed replay stays sound (it can only
			// over-invalidate). Cross-run comparison needs only the committed
			// path.
			req := w.negReq(e, work, hist)
			if capOn {
				w.StartVisitTracking()
			}
			var lvl hierLevel
			p, ok, lvl = w.negSearch(g, req, ei)
			if capOn {
				w.StopVisitTracking()
				w.negVisits = w.CopyVisits(w.negVisits[:0])
				w.negCaptureRecord(ei, p, ok, w.negVisits)
			}
			if stats != nil {
				stats.Searches++
				stats.Hier.count(lvl)
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
// recorded. Under checkReplay it first re-runs the search against the exact
// sequential state and panics on any divergence.
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

// negRoundParallel routes one round's edges, in slice order, through the
// spatial-dependency scheduler: routed paths commit onto work in edge order,
// exactly as the sequential Steps 7-13 loop does. With seeding live,
// cross-run replays happen inline and skip task dispatch entirely; only
// maximal blocks of consecutive replay-ineligible edges go through the
// scheduler (without a live seed the whole round is one block). An edge's
// eligibility is (re)examined only after everything before it has
// committed, because a block's changed outcomes can grow the divergence
// bitmap over a later edge's cone; the bitmap is monotone, so an edge
// ineligible at block-forming time is still ineligible at its sequential
// turn, which is what makes batching sound. It reports whether every edge
// routed.
//
//pacor:hot
//pacor:allow hotalloc per-round task construction, amortized over the round's searches
func (w *Workspace) negRoundParallel(g grid.Grid, work *grid.ObsMap, edges []Edge, hist []float64,
	paths map[int]grid.Path, params NegotiateParams, stats *NegotiateStats) bool {
	done := true
	seedLive := w.negSeedOn && w.negParentLive
	capOn := w.negCapOn
	commit := func(ei int, p grid.Path, ok bool) {
		if ok {
			paths[edges[ei].ID] = p
		} else {
			done = false
			w.negFailed = append(w.negFailed, edges[ei].ID)
		}
	}
	ei := 0
	for ei < len(edges) {
		if seedLive && w.negParentValid(ei) {
			p, ok := w.negReplay(g, work, hist, edges, ei, params, stats)
			if ok {
				work.SetPath(p, true)
			}
			commit(ei, p, ok)
			ei++
			continue
		}
		// Maximal block of consecutive replay-ineligible edges; the first
		// eligible edge ends the block and is re-checked once the block's
		// outcomes — and their divergence marks — have landed.
		m := ei + 1
		for m < len(edges) && !(seedLive && w.negParentValid(m)) {
			m++
		}
		base := ei
		tasks := make([]ScheduledTask, m-base)
		for i := range tasks {
			tasks[i] = w.negTask(g, w.negReq(&edges[base+i], work, hist), base+i)
		}
		commitTask := func(i int, out TaskOutcome, visits []uint64) {
			if stats != nil {
				stats.Searches++
				if lvl, isHier := out.Payload.(hierLevel); isHier {
					stats.Hier.count(lvl)
				}
			}
			var p grid.Path
			if out.OK {
				p = out.Paths[0]
			}
			if seedLive {
				w.negCrossCompare(g, base+i, p, out.OK)
			}
			if capOn {
				w.negCaptureRecord(base+i, p, out.OK, visits)
			}
			commit(base+i, p, out.OK)
		}
		if capOn {
			RunScheduledVisits(work, tasks, params.Workers, commitTask)
		} else {
			RunScheduled(work, tasks, params.Workers, func(i int, out TaskOutcome) {
				commitTask(i, out, nil)
			})
		}
		ei = m
	}
	return done
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

// negTask wraps one edge's search as a scheduler task. req carries the
// edge's fully resolved request (negReq); the scheduler substitutes each
// run's private obstacle snapshot for req.Obs. When the hierarchy gave edge
// ei a corridor, the task runs the escalation ladder (exact — see hier.go)
// on the worker workspace and reports the accepted rung through Payload; the
// window covers the corridor so the scheduler's overlap heuristic sees where
// the masked search actually goes. The scheduler validates results by visit
// set, so a ladder that escalates past its window is still committed exactly.
//
//pacor:allow hotalloc one task record and one single-path result slice per edge, amortized over the edge's search
func (w *Workspace) negTask(g grid.Grid, req Request, ei int) ScheduledTask {
	var mask, wide *TileMask
	win := SearchWindow(g, req.Sources, req.Targets)
	if w.hier.run && w.hier.has[ei] {
		mask, wide = &w.hier.masks[ei], &w.hier.wide[ei]
		win = win.Union(w.hier.win[ei])
	}
	return ScheduledTask{
		Window: win,
		Run: func(ws *Workspace, obs *grid.ObsMap) TaskOutcome {
			r := req
			r.Obs = obs
			var p grid.Path
			var ok bool
			lvl := hierLevelNone
			if mask != nil {
				p, ok, lvl = ws.hierSearch(g, r, mask, wide)
			} else {
				p, ok = ws.AStar(g, r)
			}
			if !ok {
				return TaskOutcome{Payload: lvl}
			}
			return TaskOutcome{OK: true, Paths: []grid.Path{p}, Payload: lvl}
		},
	}
}
