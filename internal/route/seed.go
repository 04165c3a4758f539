package route

import (
	"fmt"
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
)

// This file implements cross-run negotiation seeding: a NegotiationSeed
// captures one run's full per-round transcript — every edge's outcome and
// visit cone, round by round — and a later run on a near-identical design
// replays entries from it instead of searching.
//
// The dirty-cone invariant (see docs/ALGORITHMS.md): a tracked search stamps
// every cell into its visit cone *before* reading that cell's obstacle or
// history state (workspace.go's stamp-before-read discipline), so the cone is
// a superset of every cell whose external state the search observed. That
// includes frontier cells it merely touched and rejected: their blockedness
// was read. If no cone cell's state differs, re-running the search reads
// exactly the same values at every step — same frontier, same tie-breaks,
// same transcript — and must return the identical result.
//
// Cross-run replay rests on that invariant: the parent's entry for (round r,
// edge j) replays exactly in the child at (round r, child edge i aligned to
// j) when no cell of its recorded cone differs between the two runs' states
// at that point. Divergence is tracked in a monotone cross-run dirty bitmap
// seeded with the start-state diff (obstacles, valves, terminals — the design
// edit) and grown with the cells of every path where the child's committed
// outcome differs from the parent's. By induction over the sequential
// transcript, a cell outside the bitmap holds the same obstacle and history
// value in both runs at corresponding points: history bumps are
// deterministic per-cell functions of the rounds' routed paths, and every
// differing path is marked in full (old and new) the moment it diverges,
// while unaligned edges' paths — present in only one run — are marked
// unconditionally. A cone disjoint from the bitmap therefore proves the
// child's fresh search would read identical values at every step and return
// the identical result.
//
// Every (round, edge) pair of a seeded run is either replayed or searched,
// and outputs (hence rounds) are identical to a cold run's, so the counters
// invariant Searches_cold = Searches_seeded + SeededHits holds by
// construction.

// SeedEdge identifies one edge slot of the captured run by its routing
// request (the committed source and target cells). Alignment between runs
// matches these signatures, not edge IDs, so re-labeled but geometrically
// identical requests still pair up.
type SeedEdge struct {
	Sources []geom.Pt
	Targets []geom.Pt
}

// SeedEntry is one (round, edge) outcome of the captured run: the edge slot
// it belongs to, whether it routed, the committed path, and the search's
// visit cone (the validity domain of the entry).
type SeedEntry struct {
	Edge   int
	OK     bool
	Path   grid.Path
	Visits []uint64
}

// NegotiationSeed is a portable capture of one negotiation run, suitable for
// replaying into a later run on the same grid. Rounds are delta-encoded:
// Rounds[r] lists only the entries whose outcome or cone changed relative to
// the previous round (Rounds[0] is complete), so edges that replayed within
// the run cost nothing to store. All fields are exported for gob
// persistence; a seed is immutable once captured — applying it never
// mutates it, and replayed paths alias its memory.
type NegotiationSeed struct {
	W, H int
	// ParamsSig fingerprints the negotiation parameters that shape outcomes
	// (BaseHist/Alpha/Gamma); a seed only applies under matching parameters.
	ParamsSig string
	// Start is the round-start obstacle bitmap (base map plus every edge
	// terminal) captured after terminal blocking; the child's diff against it
	// seeds the cross-run dirty bitmap.
	Start []uint64
	// Edges are the captured run's edge signatures in edge order.
	Edges []SeedEdge
	// Rounds is the delta-encoded per-round transcript.
	Rounds [][]SeedEntry
}

// SizeBytes estimates the seed's resident size for cache accounting.
func (s *NegotiationSeed) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	const ptSize = 16
	n := int64(96) + int64(len(s.Start))*8
	for i := range s.Edges {
		n += 48 + int64(len(s.Edges[i].Sources)+len(s.Edges[i].Targets))*ptSize
	}
	for _, r := range s.Rounds {
		n += 24
		for i := range r {
			n += 56 + int64(len(r[i].Path))*ptSize + int64(len(r[i].Visits))*8
		}
	}
	return n
}

// negParamsSig fingerprints the outcome-shaping negotiation parameters.
func negParamsSig(p NegotiateParams) string {
	return fmt.Sprintf("bh=%g;a=%g;g=%d", p.BaseHist, p.Alpha, p.Gamma)
}

// seedSlot is one edge's current cross-run state: as the parent table, the
// parent's outcome for the round being replayed (aliasing seed memory); as
// the capture shadow, the last captured value (aliasing capture memory).
type seedSlot struct {
	set     bool
	aligned bool // parent table only: some child edge aligns to this slot
	ok      bool
	path    grid.Path
	visits  []uint64
}

// edgeSigHash hashes an edge's request signature (FNV-1a over the source and
// target coordinates, length-prefixed).
func edgeSigHash(sources, targets []geom.Pt) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v int) {
		h = (h ^ uint64(uint32(v))) * prime
	}
	mix(len(sources))
	for _, p := range sources {
		mix(p.X)
		mix(p.Y)
	}
	mix(len(targets))
	for _, p := range targets {
		mix(p.X)
		mix(p.Y)
	}
	return h
}

// edgeSigEqual reports exact signature equality between a child edge and a
// captured edge slot.
func edgeSigEqual(e *Edge, se *SeedEdge) bool {
	if len(e.Sources) != len(se.Sources) || len(e.Targets) != len(se.Targets) {
		return false
	}
	for i := range e.Sources {
		if e.Sources[i] != se.Sources[i] {
			return false
		}
	}
	for i := range e.Targets {
		if e.Targets[i] != se.Targets[i] {
			return false
		}
	}
	return true
}

// alignEdges computes a monotone matching (a longest common subsequence over
// exact edge signatures, via Hunt–Szymanski) between the child's edge list
// and the parent seed's, returning align[i] = parent index or -1. Monotone
// matters for soundness: the induction in the file comment pairs the two
// sequential transcripts position by position, so matched pairs must appear
// in the same relative order in both runs.
//
//pacor:allow hotalloc alignment scratch runs once per seeded negotiation run, amortized over every replay it enables
func alignEdges(child []Edge, parent []SeedEdge, align []int) []int {
	if cap(align) < len(child) {
		align = make([]int, len(child))
	}
	align = align[:len(child)]
	for i := range align {
		align[i] = -1
	}
	buckets := make(map[uint64][]int32, len(parent))
	for j := range parent {
		h := edgeSigHash(parent[j].Sources, parent[j].Targets)
		buckets[h] = append(buckets[h], int32(j))
	}
	type lisEnt struct {
		parent, child, prev int32
	}
	var ents []lisEnt
	var tails []int32
	for i := range child {
		cl := buckets[edgeSigHash(child[i].Sources, child[i].Targets)]
		// Candidates in decreasing parent order so one child element never
		// chains off its own earlier candidate (standard Hunt–Szymanski).
		for k := len(cl) - 1; k >= 0; k-- {
			j := cl[k]
			if !edgeSigEqual(&child[i], &parent[j]) {
				continue
			}
			pos := sort.Search(len(tails), func(t int) bool { return ents[tails[t]].parent >= j })
			prev := int32(-1)
			if pos > 0 {
				prev = tails[pos-1]
			}
			ents = append(ents, lisEnt{parent: j, child: int32(i), prev: prev})
			if pos == len(tails) {
				tails = append(tails, int32(len(ents)-1))
			} else {
				tails[pos] = int32(len(ents) - 1)
			}
		}
	}
	if len(tails) > 0 {
		for e := tails[len(tails)-1]; e >= 0; e = ents[e].prev {
			align[ents[e].child] = int(ents[e].parent)
		}
	}
	return align
}

// seedShapeOK validates a (possibly disk-loaded) seed against the grid: edge
// indices in range, cones sized to the grid's bitmap, path cells on-grid,
// successful entries non-empty. A malformed seed is rejected wholesale
// rather than risking out-of-range marks.
func seedShapeOK(g grid.Grid, s *NegotiationSeed, words int) bool {
	if len(s.Start) != words {
		return false
	}
	for _, r := range s.Rounds {
		for i := range r {
			se := &r[i]
			if se.Edge < 0 || se.Edge >= len(s.Edges) || len(se.Visits) != words {
				return false
			}
			if se.OK && len(se.Path) == 0 {
				return false
			}
			for _, c := range se.Path {
				if !g.In(c) {
					return false
				}
			}
		}
	}
	return true
}

// negSeedStart applies params.Seed to the run, returning whether seeding is
// active. It must run after the work map holds the round-start state
// (terminals blocked): the start-state diff against the seed's Start bitmap
// becomes the initial cross-run dirty set, unaligned parent edges' paths
// (all rounds — state the child never commits) are marked wholesale, and the
// edge alignment and parent table are prepared. SeededEdges counts the
// aligned slots.
//
//pacor:allow hotalloc cross-run bitmap, alignment, and parent table are workspace-resident, (re)allocated only on grid or edge-count growth
func (w *Workspace) negSeedStart(g grid.Grid, work *grid.ObsMap, edges []Edge, params NegotiateParams, stats *NegotiateStats) bool {
	s := params.Seed
	if s == nil || s.W != g.W || s.H != g.H || s.ParamsSig != negParamsSig(params) ||
		len(s.Edges) == 0 || len(s.Rounds) == 0 || len(edges) == 0 {
		return false
	}
	words := (g.Cells() + 63) / 64
	if !seedShapeOK(g, s, words) {
		return false
	}
	w.negAlign = alignEdges(edges, s.Edges, w.negAlign)
	if cap(w.negParent) < len(s.Edges) {
		w.negParent = make([]seedSlot, len(s.Edges))
	}
	w.negParent = w.negParent[:len(s.Edges)]
	for i := range w.negParent {
		w.negParent[i] = seedSlot{}
	}
	aligned := 0
	for _, pj := range w.negAlign {
		if pj >= 0 {
			w.negParent[pj].aligned = true
			aligned++
		}
	}
	if aligned == 0 {
		return false
	}
	if cap(w.negCross) < words {
		w.negCross = make([]uint64, words)
	}
	w.negCross = w.negCross[:words]
	clear(w.negCross)
	w.negStart = work.Bits(w.negStart)
	grid.DiffBits(w.negStart, s.Start, func(cell int) {
		w.negCross[cell>>6] |= 1 << (uint(cell) & 63)
	})
	// Paths of parent edges no child edge aligns to are obstacle state the
	// child run never reproduces: mark every version they ever committed.
	for _, r := range s.Rounds {
		for i := range r {
			if !w.negParent[r[i].Edge].aligned {
				w.negCrossMarkPath(g, r[i].Path)
			}
		}
	}
	w.negSeed = s
	if stats != nil {
		stats.SeededEdges += aligned
	}
	return true
}

// negParentApply advances the parent table to round r's state by applying
// the seed's delta for that round. Slots alias seed memory; nothing in the
// run mutates them.
func (w *Workspace) negParentApply(r int) {
	for _, se := range w.negSeed.Rounds[r] {
		slot := &w.negParent[se.Edge]
		slot.set = true
		slot.ok = se.OK
		slot.path = se.Path
		slot.visits = se.Visits
	}
}

// negParentValid reports whether child edge ei replays from the parent table
// this round: the parent transcript still covers this round, the edge is
// aligned, and the parent entry's cone is disjoint from the cross-run dirty
// bitmap.
func (w *Workspace) negParentValid(ei int) bool {
	if !w.negParentLive {
		return false
	}
	pj := w.negAlign[ei]
	if pj < 0 {
		return false
	}
	pe := &w.negParent[pj]
	if !pe.set {
		return false
	}
	for i, word := range pe.visits {
		if word&w.negCross[i] != 0 {
			return false
		}
	}
	return true
}

// negCrossMarkPath marks every cell of p in the cross-run dirty bitmap.
func (w *Workspace) negCrossMarkPath(g grid.Grid, p grid.Path) {
	for _, c := range p {
		i := g.Index(c)
		w.negCross[i>>6] |= 1 << (uint(i) & 63)
	}
}

// negCrossCompare records the divergence state of a freshly searched outcome
// against the parent's entry for this round: identical outcomes contribute
// identical obstacle state and need no marks; differing or unpaired outcomes
// mark both runs' paths. Once the parent transcript is exhausted no replay
// can happen, so marks stop mattering and the compare short-circuits.
func (w *Workspace) negCrossCompare(g grid.Grid, ei int, p grid.Path, ok bool) {
	if !w.negParentLive {
		return
	}
	pj := w.negAlign[ei]
	if pj < 0 {
		w.negCrossMarkPath(g, p)
		return
	}
	pe := &w.negParent[pj]
	if pe.set && pe.ok == ok && pathsEqual(pe.path, p) {
		return
	}
	if pe.set {
		w.negCrossMarkPath(g, pe.path)
	}
	w.negCrossMarkPath(g, p)
}

// negCaptureStart prepares params.Capture to receive this run's transcript,
// returning whether capture is active. The capture's memory (Start, Edges,
// Rounds) is reused across runs through the caller's seed object.
//
//pacor:allow hotalloc capture tables are the run's product, returned to the caller; per-run construction is the contract
func (w *Workspace) negCaptureStart(g grid.Grid, work *grid.ObsMap, edges []Edge, params NegotiateParams) bool {
	c := params.Capture
	if c == nil || len(edges) == 0 {
		return false
	}
	c.W, c.H = g.W, g.H
	c.ParamsSig = negParamsSig(params)
	c.Start = work.Bits(c.Start)
	c.Edges = c.Edges[:0]
	for i := range edges {
		c.Edges = append(c.Edges, SeedEdge{
			Sources: append([]geom.Pt(nil), edges[i].Sources...),
			Targets: append([]geom.Pt(nil), edges[i].Targets...),
		})
	}
	c.Rounds = c.Rounds[:0]
	if cap(w.negShadow) < len(edges) {
		w.negShadow = make([]seedSlot, len(edges))
	}
	w.negShadow = w.negShadow[:len(edges)]
	for i := range w.negShadow {
		w.negShadow[i] = seedSlot{}
	}
	w.negCap = c
	return true
}

// negCaptureRound opens round r's delta bucket in the capture.
//
//pacor:allow hotalloc runs once per negotiation round on the capture path only; round count is data-dependent
func (w *Workspace) negCaptureRound() {
	w.negCap.Rounds = append(w.negCap.Rounds, nil)
}

// negCaptureRecord captures edge ei's outcome for the current round,
// delta-encoded: identical to the last captured value (the common case for
// edges whose inputs did not change) costs nothing. Captured paths and cones
// are deep copies — cones arrive in workspace buffers reused across searches,
// and a captured alias would be silently corrupted by a later search.
//
//pacor:allow hotalloc captured entries are deep copies by contract (the capture outlives every workspace buffer)
func (w *Workspace) negCaptureRecord(ei int, p grid.Path, ok bool, cone []uint64) {
	sh := &w.negShadow[ei]
	if sh.set && sh.ok == ok && pathsEqual(sh.path, p) && wordsEqual(sh.visits, cone) {
		return
	}
	pc := append(grid.Path(nil), p...)
	vc := append([]uint64(nil), cone...)
	c := w.negCap
	last := len(c.Rounds) - 1
	c.Rounds[last] = append(c.Rounds[last], SeedEntry{Edge: ei, OK: ok, Path: pc, Visits: vc})
	sh.set, sh.ok, sh.path, sh.visits = true, ok, pc, vc
}

// negSeedFinish clears the run's cross-run state so a workspace never pins
// seed or capture memory past the run.
func (w *Workspace) negSeedFinish() {
	for i := range w.negParent {
		w.negParent[i] = seedSlot{}
	}
	for i := range w.negShadow {
		w.negShadow[i] = seedSlot{}
	}
	w.negSeed, w.negCap = nil, nil
	w.negSeedOn, w.negCapOn, w.negParentLive = false, false, false
}

// wordsEqual reports bitmap equality.
func wordsEqual(a, b []uint64) bool {
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
