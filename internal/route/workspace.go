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
	// The sealed-pocket BFS marks its cells -gen (sealedPocket).
	tstamp []int32

	gCost  []float64 // A*: best path cost so far (valid under stamp)
	parent []int32   // A*: predecessor cell index, -1 at sources
	closed []bool    // A*: settled cells; the bounded search's chain marks (simpleChain)

	maxSeen []int32 // bounded search: longest path length seen per cell
	arena   []bnode // bounded search: state arena

	// The open list (push/pop): each search runs on either the binary heap
	// or the Dial ring, both reused across searches.
	open   []openItem  // binary heap
	seq    uint32      // heap push sequence within the current search (tie-break)
	bq     bucketQueue // Dial ring
	bscale float64     // ring key = f·bscale (A*'s certified scale; 1 for the bounded search)

	// heapOnly makes every search run on the binary heap, the reference the
	// package's queue tests compare the bucket queue against. lastBucket
	// selects the ring for the current search, so after a search it records
	// whether that search ran on the ring (after certification and
	// ring-feasibility fallbacks). Neither is reachable from outside the
	// package: the open list follows from the request alone.
	heapOnly   bool
	lastBucket bool

	nbuf []geom.Pt // neighbor scratch

	// Sealed-pocket certificate (sealedPocket): the BFS queue, and the
	// number of searches a sealed verdict has ended on this workspace.
	pocket [pocketCap]int32
	sealed int

	// Visit tracking (a negotiation capture's cone, seed.go): while track is
	// set, every cell brought into a search generation also sets its bit in
	// vbits. Because both searches stamp a cell before querying its obstacle
	// status, the bitmap is a superset of every cell whose external state
	// (ObsMap / Hist) the searches observed.
	track bool
	vbits []uint64

	// Negotiation state (negotiate.go). It lives on the workspace so
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
	// (negSeedFinish clears the pointers so the workspace never pins a seed).
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
}

// NewWorkspace returns a workspace sized for g. Searches on other grid
// sizes transparently resize it, and a zero Workspace grows on first use.
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
// bitmap accumulates until the next StartVisitTracking. A negotiation
// capture records the set as the edge's cone, so a later seeded run can
// prove the search could not have seen a changed cell.
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
	w.arena = w.arena[:0]
	w.seq = 0
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

// pocketCap is the largest target pocket the sealed-pocket certificate
// explores, and the number of cells beyond its Manhattan span a search
// settles before the certificate runs.
const pocketCap = 64

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

// AStar finds a cheapest path from any source to any target. The returned
// path runs source..target. ok is false when no path exists. A search
// allocates nothing beyond the returned path. The open list is chosen once
// per search: the Dial bucket queue (queue.go) when astarRing certifies the
// request's keys and fits them in the ring, the binary heap otherwise. Both
// implement the same (f, push order) total order, so the choice never
// changes the routed path, only the wall clock.
//
// Once the search has settled pocketCap cells more than the smallest
// source heuristic, it runs the sealed-pocket certificate once; a sealed
// verdict proves no path exists and ends the search, so a search whose
// targets are walled in fails in O(pocket) instead of flooding the source
// side. Any other search returns what it would without the check.
func (w *Workspace) AStar(g grid.Grid, req Request) (grid.Path, bool) {
	if len(req.Sources) == 0 || len(req.Targets) == 0 {
		return nil, false
	}
	w.begin(g)
	tb, nt := w.markTargets(g, req.Targets)
	if nt == 0 {
		return nil, false
	}
	w.lastBucket = !w.heapOnly && w.astarRing(g, req, tb)
	hmin := g.W + g.H // above every in-grid source's heuristic
	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		h := targetH(tb, s)
		hmin = min(hmin, h)
		if w.touch(i) && w.gCost[i] == 0 {
			continue
		}
		w.gCost[i] = 0
		w.push(float64(h), int32(i))
	}
	// settle counts down the cells left to settle before the certificate.
	settle := hmin + pocketCap
	for {
		it, ok := w.pop()
		if !ok {
			return nil, false
		}
		i := int(it)
		if w.closed[i] {
			continue
		}
		w.closed[i] = true
		p := g.Pt(i)
		if w.isTarget(i) {
			return w.reconstruct(g, i), true
		}
		if settle--; settle == 0 && w.sealedPocket(g, &req) {
			w.sealed++
			return nil, false
		}
		w.nbuf = g.Neighbors(p, w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			// Tracked searches must stamp a cell before reading its obstacle
			// state: the visit cone has to be a superset of every cell read,
			// or seeded replay cannot reason about the search.
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
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) {
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
				w.push(ng+float64(targetH(tb, q)), int32(j))
			}
		}
	}
}

// sealedPocket is the sealed-pocket certificate. It reports whether the
// request's targets lie in a pocket of at most pocketCap enterable cells
// that no source borders, which proves the search cannot succeed. A BFS from
// the in-grid targets walks the cells the search could enter, by A*'s own
// rule (a target, or a cell in the request's window that Obs leaves free),
// and answers "not sealed" as soon as it meets a source or would grow past
// pocketCap cells. A source is a cell stamped in this generation with
// gCost 0, so the check needs seeded sources and no array of its own: the
// BFS marks its cells tstamp == -gen, a value isTarget never matches and the
// next generation leaves stale. Targets carry that mark only while the BFS
// runs and get their target stamp back before it returns.
//
// Under visit tracking a sealed verdict adds the pocket and every neighbour
// the BFS read to the cone. "Not sealed" adds nothing: the search then goes
// on to return what it would have returned without the check, so its cone
// already proves its outcome (docs/ALGORITHMS.md, "Negotiation rounds").
func (w *Workspace) sealedPocket(g grid.Grid, req *Request) bool {
	mark := -w.gen
	nt, sealed := 0, true
	for _, t := range req.Targets {
		if !g.In(t) {
			continue
		}
		i := g.Index(t)
		if w.tstamp[i] == mark {
			continue // listed twice
		}
		if nt == pocketCap || w.isSource(i) {
			sealed = false
			break
		}
		w.tstamp[i] = mark
		w.pocket[nt] = int32(i)
		nt++
	}
	n := nt
	for k := 0; sealed && k < n; k++ {
		w.nbuf = g.Neighbors(g.Pt(int(w.pocket[k])), w.nbuf)
		for _, q := range w.nbuf {
			j := g.Index(q)
			if w.tstamp[j] == mark {
				continue
			}
			if w.isSource(j) {
				sealed = false
				break
			}
			if !req.inBounds(q) || req.Obs != nil && req.Obs.Blocked(q) {
				continue
			}
			if n == pocketCap {
				sealed = false
				break
			}
			w.tstamp[j] = mark
			w.pocket[n] = int32(j)
			n++
		}
	}
	for _, i := range w.pocket[:nt] {
		w.tstamp[i] = w.gen
	}
	if sealed && w.track {
		for _, i := range w.pocket[:n] {
			w.visit(int(i))
			w.nbuf = g.Neighbors(g.Pt(int(i)), w.nbuf)
			for _, q := range w.nbuf {
				w.visit(g.Index(q))
			}
		}
	}
	return sealed
}

// isSource reports whether cell i is a source of the current A* search.
func (w *Workspace) isSource(i int) bool { return w.stamp[i] == w.gen && w.gCost[i] == 0 }

// astarRing prepares the ring for an A* request and reports whether the
// search can run on it. The request's cost domain must be certified
// integral (Request.quant); ring keys are then f·scale, exact in float64
// because the scale is a power of two, so the integer key order equals the
// float f order. Before the first pop the live keys span the sources'
// heuristic spread; afterwards a pushed key exceeds the popped one by at most
// step+scale (consistent heuristic, one cell per move). false means the
// domain is uncertified or the span exceeds the ring cap.
func (w *Workspace) astarRing(g grid.Grid, req Request, tb geom.Rect) bool {
	scale, maxStep, ok := req.quant()
	if !ok {
		return false
	}
	hmin, hmax := int64(math.MaxInt64), int64(0)
	for _, s := range req.Sources {
		if g.In(s) {
			h := int64(targetH(tb, s)) * scale
			hmin, hmax = min(hmin, h), max(hmax, h)
		}
	}
	if !w.bq.prep(max(hmax-hmin, maxStep+scale)) {
		return false
	}
	w.bscale = float64(scale)
	return true
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

// BoundedAStar implements the minimum-length bounded routing of Section 6:
// it searches for a simple path whose length lies in [minLen, maxLen],
// preferring the shortest such path. Two modifications versus classic A*
// (as described in the paper): (1) the per-cell G value records the path
// length from the source and is only updated when it increases, so the
// search can deliberately pass a cell again on a longer path; and (2) the
// F value adds a penalty when the estimated total length G+H falls short of
// the bound, which steers the frontier toward detours.
//
// The search returns ok=false when no conforming path is found within the
// expansion budget. The state arena and per-cell length table are reused
// across calls. The open list is chosen once per search, as in AStar: the
// ring when boundedRing fits the key universe, the heap otherwise.
func (w *Workspace) BoundedAStar(g grid.Grid, req Request, minLen, maxLen int) (grid.Path, bool) {
	if len(req.Sources) == 0 || len(req.Targets) == 0 || minLen > maxLen || maxLen < 0 {
		return nil, false
	}
	w.begin(g)
	tb, nt := w.markTargets(g, req.Targets)
	if nt == 0 {
		return nil, false
	}
	w.lastBucket = !w.heapOnly && w.boundedRing(g, tb, minLen, maxLen)
	// Every push appends one arena state and pushes its index, so the push
	// order the open list breaks ties by is the arena order.
	for _, s := range req.Sources {
		if !g.In(s) {
			continue
		}
		i := g.Index(s)
		w.touchBounded(i)
		w.arena = append(w.arena, bnode{cell: int32(i), g: 0, parent: -1}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
		w.push(float64(boundedPrio(minLen, 0, targetH(tb, s))), int32(len(w.arena)-1))
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
	for ; budget > 0; budget-- {
		it, ok := w.pop()
		if !ok {
			break
		}
		nd := w.arena[it]
		p := g.Pt(int(nd.cell))
		if w.isTarget(int(nd.cell)) && int(nd.g) >= minLen && int(nd.g) <= maxLen {
			// Cycles are possible in principle (the monotone-G rule only
			// requires strictly longer revisits), so check the chain once
			// it conforms instead of paying an ancestor-chain walk on every
			// expansion.
			if n, simple := w.simpleChain(int(it)); simple {
				return reconstructArena(g, w.arena, int(it), n), true
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
				continue
			}
			if req.Obs != nil && req.Obs.Blocked(q) && !w.isTarget(j) {
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
			w.arena = append(w.arena, bnode{cell: int32(j), g: ng, parent: it}) //pacor:allow hotalloc amortized arena growth, capacity reused across searches
			w.push(float64(boundedPrio(minLen, int(ng), targetH(tb, q))), int32(len(w.arena)-1))
		}
	}
	return nil, false
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

// boundedRing prepares the ring for a bounded search and reports whether its
// keys fit. The search ignores Hist (unit steps), so its keys are integral
// without a certificate. Unlike A*'s sliding window, the under-length
// penalty makes keys non-monotone (a push can land below the cursor, which
// rolls back), so the ring covers the whole key universe: penalized keys lie
// in (minLen, 2·minLen], conforming keys in [minLen, maxLen + maxH] with
// maxH the heuristic's grid-corner maximum.
func (w *Workspace) boundedRing(g grid.Grid, tb geom.Rect, minLen, maxLen int) bool {
	gb := g.Bounds()
	maxH := 0
	for _, c := range [4]geom.Pt{
		{X: gb.MinX, Y: gb.MinY}, {X: gb.MaxX, Y: gb.MinY},
		{X: gb.MinX, Y: gb.MaxY}, {X: gb.MaxX, Y: gb.MaxY},
	} {
		maxH = max(maxH, targetH(tb, c))
	}
	if !w.bq.prep(int64(max(maxLen+maxH, 2*minLen) - minLen)) {
		return false
	}
	w.bscale = 1
	return true
}

// --- open lists ------------------------------------------------------------
//
// Both searches push and pop through the two methods below, which hide the
// open list the search picked: the Dial ring (queue.go) or a manual binary
// heap over a reusable slice (no interface boxing). Both order by the same
// total order: smaller key first, and among equal keys the earlier push
// first. FIFO is load-bearing for the bounded search — its monotone-G
// pruning needs breadth-first settling among equal keys or parity-feasible
// windows become unreachable — and it is exactly the order the ring's
// bucket chains produce, so every routed path is byte-identical across the
// two open lists.

// push adds val to the current search's open list under key f. On the ring
// the key is f·bscale, an exact integer for a certified request.
func (w *Workspace) push(f float64, val int32) {
	if w.lastBucket {
		w.bq.push(int64(f*w.bscale), val)
		return
	}
	s := append(w.open, openItem{idx: val, seq: w.seq, f: f}) //pacor:allow hotalloc amortized heap growth, capacity reused across searches
	w.seq++
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !openLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
	w.open = s
}

// pop removes and returns the value with the smallest key (earliest push
// among equals); ok=false when the open list is empty.
func (w *Workspace) pop() (val int32, ok bool) {
	if w.lastBucket {
		return w.bq.pop()
	}
	s := w.open
	n := len(s) - 1
	if n < 0 {
		return -1, false
	}
	s[0], s[n] = s[n], s[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && openLess(s[j2], s[j]) {
			j = j2
		}
		if !openLess(s[j], s[i]) {
			break
		}
		s[i], s[j] = s[j], s[i]
		i = j
	}
	w.open = s[:n]
	return s[n].idx, true
}

// openItem is one heap entry: the pushed value, its push sequence and key.
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
