package route

import (
	"math"

	"repro/internal/geom"
	"repro/internal/grid"
)

// Workspace holds the per-cell search state of the grid routers so that
// repeated searches reuse one set of O(W·H) arrays instead of allocating
// them per call. Invalidation uses a generation stamp: every search bumps
// gen, and a cell's state (gCost/parent/closed for A*, maxSeen for the
// bounded search, target membership for both) is valid only when its stamp
// equals the current generation — no re-zeroing between searches.
//
// Ownership rule: a Workspace is NOT safe for concurrent use. Each goroutine
// must own its workspace; the grid and obstacle map may be shared read-only.
// The paths returned by searches never alias workspace memory, so they stay
// valid across later searches on the same workspace.
type Workspace struct {
	cells int
	gen   int32
	// stamp guards the per-cell search state: state arrays hold garbage from
	// earlier generations unless stamp[i] == gen.
	stamp []int32
	// tstamp marks target cells: cell i is a target iff tstamp[i] == gen.
	tstamp []int32

	gCost  []float64 // A*: best path cost so far (valid under stamp)
	parent []int32   // A*: predecessor cell index, -1 at sources
	closed []bool    // A*: settled cells

	maxSeen []int32 // bounded search: longest path length seen per cell

	open  []openItem    // A* frontier (heap mode), reused across searches
	seq   uint32        // push sequence within the current search (tie-break)
	bopen []boundedItem // bounded-search frontier (heap mode)
	arena []bnode       // bounded-search state arena
	bq    bucketQueue   // Dial ring shared by both searches (bucket mode)

	// heapOnly makes every search run on the binary heap, the reference the
	// package's queue tests compare the bucket queue against; lastBucket
	// records whether the most recent search actually ran on the bucket queue
	// (after certification and ring-feasibility fallbacks). Neither is
	// reachable from outside the package: the open list follows from the
	// request alone.
	heapOnly   bool
	lastBucket bool

	// clipped counts, per search, frontier cells rejected by the request's
	// Bounds or Mask. The hierarchical escalation ladder keys on it: a
	// masked search that never clipped took every expansion the unmasked
	// search would have taken — identical transcript, identical result — so
	// only clipped searches escalate to a wider mask.
	clipped int

	nbuf []geom.Pt // neighbor scratch

	// Visit tracking (the speculative scheduler's validation input): while
	// track is set, every cell brought into a search generation also sets its
	// bit in vbits. Because both searches stamp a cell before querying its
	// obstacle status, the bitmap is a superset of every cell whose external
	// state (ObsMap / Hist) the searches observed.
	track bool
	vbits []uint64

	// Negotiation state (negotiate.go). It lives on the pooled workspace so
	// repeated Negotiate calls reuse the work map and journal instead of
	// allocating per call.
	negWork    *grid.ObsMap // journaled per-round work map
	negJournal []int32      // obstacle-delta journal buffer for negWork
	negVisits  []uint64     // scratch for capturing a search's visit cone
	negFailed  []int        // edge IDs unrouted in the current round
	negScale   int64        // current round's HistQuant certificate (0 = none)
	negMaxStep int64

	// Cross-run seeding state (seed.go): the parent transcript being
	// replayed, the capture being recorded, the monotone cross-run dirty
	// bitmap, and the child→parent edge alignment. Live only during a run
	// (negSeedFinish clears the pointers so the pool never pins a seed).
	negSeedOn     bool             // params.Seed accepted for this run
	negCapOn      bool             // params.Capture active for this run
	negParentLive bool             // parent transcript still covers the current round
	negSeed       *NegotiationSeed // accepted seed (immutable, aliased)
	negCap        *NegotiationSeed // capture under construction
	negCross      []uint64         // cross-run dirty bitmap (monotone)
	negStart      []uint64         // round-start bitmap scratch for the diff
	negAlign      []int            // child edge index -> parent edge index or -1
	negParent     []seedSlot       // parent edges' current-round state
	negShadow     []seedSlot       // capture delta-encoding shadow table

	// Sequential-scheduler scratch (runSequential): the snapshot map and its
	// journal, reused across rounds so per-task state restoration costs
	// O(task changes) instead of O(cells).
	sobs       *grid.ObsMap
	seqJournal []int32
	seqVisits  []uint64

	// Hierarchical negotiation state (hier.go): the tile coarsening, the
	// tile corridor graph (rebuilt once per negotiation run, re-priced and
	// re-solved per round), and the per-edge corridor masks of the current
	// round. Workspace-resident so repeated runs reuse the arenas.
	hier hierState

	// pooled is true while the workspace sits in its sync.Pool. It makes a
	// double ReleaseWorkspace a no-op instead of poisoning the pool: two
	// Put calls of the same pointer would let two goroutines Get the same
	// workspace and race on every search array.
	pooled bool
}

// scratchFor returns the workspace-resident scratch obstacle map for g,
// (re)allocated only when the grid changes.
//
//pacor:allow hotalloc allocated once per grid change, reused across scheduler rounds
func (w *Workspace) scratchFor(g grid.Grid) *grid.ObsMap {
	if w.sobs == nil || w.sobs.Grid() != g {
		w.sobs = grid.NewObsMap(g)
	}
	return w.sobs
}

// NewWorkspace returns a workspace sized for g. Searches on other grid
// sizes transparently resize it.
func NewWorkspace(g grid.Grid) *Workspace {
	w := &Workspace{}
	w.grow(g.Cells())
	return w
}

// grow (re)allocates the per-cell arrays for n cells and resets generations.
//
//pacor:allow hotalloc runs only when the grid size changes; steady-state searches never reach it
func (w *Workspace) grow(n int) {
	w.cells = n
	w.gen = 0
	w.stamp = make([]int32, n)
	w.tstamp = make([]int32, n)
	w.gCost = make([]float64, n)
	w.parent = make([]int32, n)
	w.closed = make([]bool, n)
	w.maxSeen = make([]int32, n)
	if w.vbits != nil || w.track {
		w.vbits = make([]uint64, (n+63)/64)
	}
}

// StartVisitTracking clears the visited-cell bitmap and begins recording
// every cell the following searches touch. Tracking spans searches: the
// bitmap accumulates until the next StartVisitTracking. The scheduler uses
// the recorded set to prove that a speculative search could not have seen a
// concurrently committed path.
//
//pacor:allow hotalloc bitmap (re)sized once per tracking session, reused across all searches in it
func (w *Workspace) StartVisitTracking() {
	if need := (w.cells + 63) / 64; len(w.vbits) < need {
		w.vbits = make([]uint64, need)
	}
	clear(w.vbits)
	w.track = true
}

// StopVisitTracking stops recording; the bitmap keeps its contents until the
// next StartVisitTracking.
func (w *Workspace) StopVisitTracking() { w.track = false }

// CopyVisits copies the visited-cell bitmap into dst (grown as needed) and
// returns it, so the caller can keep the record while the workspace moves on
// to other searches.
//
//pacor:allow hotalloc grows the caller's capture buffer once; steady-state copies reuse it
func (w *Workspace) CopyVisits(dst []uint64) []uint64 {
	if cap(dst) < len(w.vbits) {
		dst = make([]uint64, len(w.vbits))
	}
	dst = dst[:len(w.vbits)]
	copy(dst, w.vbits)
	return dst
}

// visit records cell i in the tracking bitmap when tracking is active.
func (w *Workspace) visit(i int) {
	if w.track {
		w.vbits[i>>6] |= 1 << (uint(i) & 63)
	}
}

// begin starts a new search generation and clears the frontier buffers.
func (w *Workspace) begin(g grid.Grid) {
	if n := g.Cells(); n != w.cells {
		w.grow(n)
	}
	if w.gen == math.MaxInt32 {
		// Stamp wrap-around: after 2^31-1 searches the next generation would
		// collide with stale stamps; clear them and restart.
		clear(w.stamp)
		clear(w.tstamp)
		w.gen = 0
	}
	w.gen++
	w.open = w.open[:0]
	w.bopen = w.bopen[:0]
	w.arena = w.arena[:0]
	w.seq = 0
	w.clipped = 0
}

// Clipped reports how many frontier cells the most recent search rejected
// through its request's Bounds or Mask. Zero means the window/mask never
// constrained the search: its transcript — and result — equal the
// unconstrained search's.
func (w *Workspace) Clipped() int { return w.clipped }

// nextSeq returns the next push sequence number of the current search.
func (w *Workspace) nextSeq() uint32 {
	s := w.seq
	w.seq++
	return s
}

// touch brings cell i into the current generation with A* initial state and
// reports whether it was already current.
func (w *Workspace) touch(i int) bool {
	w.visit(i)
	if w.stamp[i] == w.gen {
		return true
	}
	w.stamp[i] = w.gen
	w.gCost[i] = -1
	w.parent[i] = -1
	w.closed[i] = false
	return false
}

// touchBounded brings cell i into the current generation with bounded-search
// initial state.
func (w *Workspace) touchBounded(i int) {
	w.visit(i)
	if w.stamp[i] != w.gen {
		w.stamp[i] = w.gen
		w.maxSeen[i] = -1
	}
}

// markTargets stamps the in-grid targets and returns their bounding box and
// count.
func (w *Workspace) markTargets(g grid.Grid, targets []geom.Pt) (geom.Rect, int) {
	tb := geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
	n := 0
	for _, t := range targets {
		if !g.In(t) {
			continue
		}
		i := g.Index(t)
		if w.tstamp[i] != w.gen {
			w.tstamp[i] = w.gen
			n++
		}
		tb = tb.Union(geom.RectOf(t, t))
	}
	return tb, n
}

// isTarget reports whether cell index i is a target of the current search.
func (w *Workspace) isTarget(i int) bool { return w.tstamp[i] == w.gen }

// targetH is the admissible heuristic shared by both searches: Manhattan
// distance from p to the target bounding box.
func targetH(tb geom.Rect, p geom.Pt) int {
	dx := 0
	if p.X < tb.MinX {
		dx = tb.MinX - p.X
	} else if p.X > tb.MaxX {
		dx = p.X - tb.MaxX
	}
	dy := 0
	if p.Y < tb.MinY {
		dy = tb.MinY - p.Y
	} else if p.Y > tb.MaxY {
		dy = p.Y - tb.MaxY
	}
	return dx + dy
}

// AStar is the workspace-backed form of the package-level AStar: identical
// search semantics, no per-call allocation beyond the returned path. The
// open list is the Dial bucket queue (queue.go) whenever the request's key
// domain is certified integral and the ring fits, the binary heap otherwise.
// Both implement the same (f, push order) total order, so the choice never
// changes the routed path, only the wall clock.
func (w *Workspace) AStar(g grid.Grid, req Request) (grid.Path, bool) {
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		w.clipped = 0 // keep Clipped tied to this call even on the no-search path
		return nil, false
	}
	w.begin(g)
	tb, nt := w.markTargets(g, req.Targets)
	if nt == 0 {
		return nil, false
	}
	if !w.heapOnly {
		if scale, maxStep, ok := req.quant(); ok {
			// The bucket attempt inspects only source heuristics before
			// committing; when the ring is infeasible it returns done=false
			// without having stamped a cell, and the heap takes over on the
			// same generation.
			if path, found, done := w.astarBucket(g, req, tb, scale, maxStep); done {
				return path, found
			}
		}
	}
	return w.astarHeap(g, req, tb)
}

// astarHeap is the float64 binary-heap search loop.
func (w *Workspace) astarHeap(g grid.Grid, req Request, tb geom.Rect) (grid.Path, bool) {
	w.lastBucket = false
	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		if w.touch(i) && w.gCost[i] == 0 {
			continue
		}
		w.gCost[i] = 0
		pushOpen(&w.open, openItem{idx: int32(i), seq: w.nextSeq(), f: float64(targetH(tb, s))})
	}
	for len(w.open) > 0 {
		it := popOpen(&w.open)
		i := int(it.idx)
		if w.closed[i] {
			continue
		}
		w.closed[i] = true
		p := g.Pt(i)
		if w.isTarget(i) {
			return w.reconstruct(g, i), true
		}
		w.nbuf = g.Neighbors(p, w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			// Tracked searches must stamp a cell before reading its obstacle
			// state: the visit cone has to be a superset of every cell read,
			// or speculative/replay validation cannot reason about the search.
			// Untracked searches skip blocked and out-of-window cells before
			// touching them — same skip decision (the state read is identical
			// in both orders), but no stamp writes on cells that contribute
			// nothing to the search.
			if w.track {
				if w.touch(j) && w.closed[j] {
					continue
				}
			}
			if !req.inBounds(q) && !w.isTarget(j) {
				w.clipped++
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) { //pacor:allow snapshotread untracked fast path; tracked searches stamp via the w.track branch above before this read
				continue
			}
			if !w.track {
				if w.touch(j) && w.closed[j] {
					continue
				}
			}
			step := 1.0
			if req.Hist != nil {
				step += req.Hist[j]
			}
			ng := w.gCost[i] + step
			if w.gCost[j] < 0 || ng < w.gCost[j] {
				w.gCost[j] = ng
				w.parent[j] = int32(i)
				pushOpen(&w.open, openItem{idx: int32(j), seq: w.nextSeq(), f: ng + float64(targetH(tb, q))})
			}
		}
	}
	return nil, false
}

// astarBucket is the Dial bucket-queue search loop: the same expansion body
// as astarHeap, with frontier keys in the certified fixed-point integer
// domain (key = (g+h)·scale; the scale is a power of two, so the float64
// products are exact and the integer key order equals the float f order).
// done=false means the ring was infeasible for this request's key span; no
// cell has been stamped and the caller falls back to the heap.
func (w *Workspace) astarBucket(g grid.Grid, req Request, tb geom.Rect, scale, maxStep int64) (path grid.Path, found, done bool) {
	// Ring sizing: before the first pop the live keys span the sources'
	// heuristic spread; afterwards a pushed key exceeds the popped one by at
	// most step+scale (consistent heuristic, one cell per move).
	var hmin, hmax int64
	first := true
	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		h := int64(targetH(tb, s)) * scale
		if first {
			hmin, hmax = h, h
			first = false
		} else if h < hmin {
			hmin = h
		} else if h > hmax {
			hmax = h
		}
	}
	if first {
		return nil, false, true // no in-grid source; the heap would fail identically
	}
	span := hmax - hmin
	if m := maxStep + scale; m > span {
		span = m
	}
	if !w.bq.prep(span) {
		return nil, false, false
	}
	w.lastBucket = true
	scaleF := float64(scale)
	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		if w.touch(i) && w.gCost[i] == 0 {
			continue
		}
		w.gCost[i] = 0
		w.bq.push(int64(targetH(tb, s))*scale, int32(i))
	}
	for {
		it, ok := w.bq.pop()
		if !ok {
			break
		}
		i := int(it)
		if w.closed[i] {
			continue
		}
		w.closed[i] = true
		p := g.Pt(i)
		if w.isTarget(i) {
			return w.reconstruct(g, i), true, true
		}
		w.nbuf = g.Neighbors(p, w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			// Same stamp-before-read discipline as astarHeap; see the comment
			// there.
			if w.track {
				if w.touch(j) && w.closed[j] {
					continue
				}
			}
			if !req.inBounds(q) && !w.isTarget(j) {
				w.clipped++
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) { //pacor:allow snapshotread untracked fast path; tracked searches stamp via the w.track branch above before this read
				continue
			}
			if !w.track {
				if w.touch(j) && w.closed[j] {
					continue
				}
			}
			step := 1.0
			if req.Hist != nil {
				step += req.Hist[j]
			}
			ng := w.gCost[i] + step
			if w.gCost[j] < 0 || ng < w.gCost[j] {
				w.gCost[j] = ng
				w.parent[j] = int32(i)
				w.bq.push(int64((ng+float64(targetH(tb, q)))*scaleF), int32(j))
			}
		}
	}
	return nil, false, true
}

// reconstruct walks the parent chain from end, allocating the result path
// exactly once (chain length is counted first, then filled backwards).
//
//pacor:allow hotalloc single exact-size allocation for the result path returned to the caller
func (w *Workspace) reconstruct(g grid.Grid, end int) grid.Path {
	n := 1
	for i := end; w.parent[i] >= 0; i = int(w.parent[i]) {
		n++
	}
	path := make(grid.Path, n)
	i := end
	for k := n - 1; k >= 0; k-- {
		path[k] = g.Pt(i)
		i = int(w.parent[i])
	}
	return path
}

// BoundedAStar is the workspace-backed form of the package-level
// BoundedAStar: identical search semantics, reusing the state arena and
// per-cell length table across calls.
func (w *Workspace) BoundedAStar(g grid.Grid, req Request, minLen, maxLen int) (grid.Path, bool) {
	if len(req.Sources) == 0 || len(req.Targets) == 0 || minLen > maxLen || maxLen < 0 {
		w.clipped = 0 // keep Clipped tied to this call even on the no-search path
		return nil, false
	}
	w.begin(g)
	tb, nt := w.markTargets(g, req.Targets)
	if nt == 0 {
		return nil, false
	}
	// The bounded search ignores Hist (unit steps), so its keys are always
	// integral — no quantization certificate needed, only ring feasibility.
	if !w.heapOnly {
		if path, found, done := w.boundedBucket(g, req, tb, minLen, maxLen); done {
			return path, found
		}
	}
	return w.boundedHeap(g, req, tb, minLen, maxLen)
}

// boundedPrio is the bounded search's key: under-length states are ordered
// by decreasing G+H, so the search stretches paths before settling;
// conforming states use plain A* ordering.
func boundedPrio(minLen, gv, hv int) int {
	f := gv + hv
	if f < minLen {
		return 2*minLen - f
	}
	return f
}

// boundedHeap is the binary-heap bounded search loop.
func (w *Workspace) boundedHeap(g grid.Grid, req Request, tb geom.Rect, minLen, maxLen int) (grid.Path, bool) {
	w.lastBucket = false
	prio := func(gv, hv int) int { return boundedPrio(minLen, gv, hv) }

	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		w.touchBounded(i)
		w.arena = append(w.arena, bnode{cell: int32(i), g: 0, parent: -1}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
		pushBounded(&w.bopen, boundedItem{node: int32(len(w.arena) - 1), f: int32(prio(0, targetH(tb, s)))})
		if w.maxSeen[i] < 0 {
			w.maxSeen[i] = 0
		}
	}

	// Expansion budget: generous but bounded. A Bounds window shrinks it to
	// the window area so detour searches stay local and fast.
	cells := g.Cells()
	if req.Bounds != nil {
		if a := req.Bounds.Intersect(g.Bounds()).Area(); a < cells {
			cells = a
		}
	}
	budget := 16 * cells
	if budget < 65536 {
		budget = 65536
	}
	for len(w.bopen) > 0 && budget > 0 {
		budget--
		it := popBounded(&w.bopen)
		nd := w.arena[it.node]
		p := g.Pt(int(nd.cell))
		if w.isTarget(int(nd.cell)) && int(nd.g) >= minLen && int(nd.g) <= maxLen {
			// Cycles are possible in principle (the monotone-G rule only
			// requires strictly longer revisits), so validate at
			// reconstruction instead of paying an ancestor-chain walk on
			// every expansion.
			if path := reconstructArena(g, w.arena, int(it.node)); path.Valid() {
				return path, true
			}
			continue
		}
		w.nbuf = g.Neighbors(p, w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			ng := nd.g + 1
			if int(ng) > maxLen {
				continue
			}
			// Same stamp ordering as AStar: tracked searches stamp before the
			// obstacle read, untracked ones skip dead cells without stamping.
			if w.track {
				w.touchBounded(j)
			}
			if !req.inBounds(q) && !w.isTarget(j) {
				w.clipped++
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) { //pacor:allow snapshotread untracked fast path; tracked searches stamp via the w.track branch above before this read
				continue
			}
			if !w.track {
				w.touchBounded(j)
			}
			// Monotone-G rule: only revisit a cell on a strictly longer path.
			if ng <= w.maxSeen[j] && !(w.isTarget(j) && int(ng) >= minLen) {
				continue
			}
			if ng > w.maxSeen[j] {
				w.maxSeen[j] = ng
			}
			w.arena = append(w.arena, bnode{cell: int32(j), g: ng, parent: it.node}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
			pushBounded(&w.bopen, boundedItem{node: int32(len(w.arena) - 1), f: int32(prio(int(ng), targetH(tb, q)))})
		}
	}
	return nil, false
}

// boundedBucket is the Dial bucket-queue bounded search loop. Unlike A*'s
// sliding window, the under-length penalty makes keys non-monotone (a push
// can land below the cursor, which rolls back), so the ring covers the whole
// key universe: penalized keys lie in (minLen, 2·minLen], conforming keys in
// [minLen, maxLen + maxH] with maxH the heuristic's grid-corner maximum.
// done=false means that universe exceeds the ring cap; no cell has been
// stamped and the caller falls back to the heap.
func (w *Workspace) boundedBucket(g grid.Grid, req Request, tb geom.Rect, minLen, maxLen int) (path grid.Path, found, done bool) {
	gb := g.Bounds()
	maxH := 0
	for _, c := range [4]geom.Pt{
		{X: gb.MinX, Y: gb.MinY}, {X: gb.MaxX, Y: gb.MinY},
		{X: gb.MinX, Y: gb.MaxY}, {X: gb.MaxX, Y: gb.MaxY},
	} {
		if h := targetH(tb, c); h > maxH {
			maxH = h
		}
	}
	hi := int64(maxLen + maxH)
	if m := int64(2 * minLen); m > hi {
		hi = m
	}
	if !w.bq.prep(hi - int64(minLen)) {
		return nil, false, false
	}
	w.lastBucket = true

	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		w.touchBounded(i)
		w.arena = append(w.arena, bnode{cell: int32(i), g: 0, parent: -1}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
		w.bq.push(int64(boundedPrio(minLen, 0, targetH(tb, s))), int32(len(w.arena)-1))
		if w.maxSeen[i] < 0 {
			w.maxSeen[i] = 0
		}
	}

	cells := g.Cells()
	if req.Bounds != nil {
		if a := req.Bounds.Intersect(g.Bounds()).Area(); a < cells {
			cells = a
		}
	}
	budget := 16 * cells
	if budget < 65536 {
		budget = 65536
	}
	for budget > 0 {
		it, ok := w.bq.pop()
		if !ok {
			break
		}
		budget--
		nd := w.arena[it]
		p := g.Pt(int(nd.cell))
		if w.isTarget(int(nd.cell)) && int(nd.g) >= minLen && int(nd.g) <= maxLen {
			// Same reconstruction-time cycle check as boundedHeap.
			if path := reconstructArena(g, w.arena, int(it)); path.Valid() {
				return path, true, true
			}
			continue
		}
		w.nbuf = g.Neighbors(p, w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			ng := nd.g + 1
			if int(ng) > maxLen {
				continue
			}
			if w.track {
				w.touchBounded(j)
			}
			if !req.inBounds(q) && !w.isTarget(j) {
				w.clipped++
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) { //pacor:allow snapshotread untracked fast path; tracked searches stamp via the w.track branch above before this read
				continue
			}
			if !w.track {
				w.touchBounded(j)
			}
			if ng <= w.maxSeen[j] && !(w.isTarget(j) && int(ng) >= minLen) {
				continue
			}
			if ng > w.maxSeen[j] {
				w.maxSeen[j] = ng
			}
			w.arena = append(w.arena, bnode{cell: int32(j), g: ng, parent: it}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
			w.bq.push(int64(boundedPrio(minLen, int(ng), targetH(tb, q))), int32(len(w.arena)-1))
		}
	}
	return nil, false, true
}

// --- frontier heaps --------------------------------------------------------
//
// Manual binary heaps over the reusable slices (no interface boxing). Both
// heaps order by an explicit total order: smaller f first, and among equal f
// the earlier push first (openLess: lower seq; boundedLess: lower arena
// node). FIFO is load-bearing for the bounded search — its monotone-G
// pruning needs breadth-first settling among equal keys or parity-feasible
// windows become unreachable — and it is exactly the order the Dial bucket
// queue's chains produce, so every routed path is byte-identical across
// the two open lists.

type openItem struct {
	idx int32
	seq uint32
	f   float64
}

func openLess(a, b openItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.seq < b.seq
}

func pushOpen(h *[]openItem, it openItem) {
	s := append(*h, it) //pacor:allow hotalloc amortized heap growth, capacity reused across searches
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !openLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func popOpen(h *[]openItem) openItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && openLess(s[j2], s[j1]) {
			j = j2
		}
		if !openLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}

type boundedItem struct {
	node int32
	f    int32
}

func boundedLess(a, b boundedItem) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.node < b.node
}

func pushBounded(h *[]boundedItem, it boundedItem) {
	s := append(*h, it) //pacor:allow hotalloc amortized heap growth, capacity reused across searches
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !boundedLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	*h = s
}

func popBounded(h *[]boundedItem) boundedItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && boundedLess(s[j2], s[j1]) {
			j = j2
		}
		if !boundedLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	it := s[n]
	*h = s[:n]
	return it
}
