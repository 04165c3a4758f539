// Package grid models the uniform control-layer routing grid of a flow-based
// microfluidic biochip. Grid cells are unit squares; the minimum channel
// width and spacing design rules are absorbed into the grid pitch, so design
// rules reduce to "at most one channel per cell" (the paper's Section 2).
//
// The package provides the obstacle map (ObsMap in Algorithm 1), the routing
// path model, and cell/index conversions shared by the A*, negotiation,
// escape, and detour routers.
package grid

import (
	"fmt"
	"math/bits"

	"repro/internal/geom"
)

// Grid is a W x H routing grid. Cells are addressed by geom.Pt with
// 0 <= X < W and 0 <= Y < H, or by the dense index Y*W + X.
type Grid struct {
	W, H int
}

// New returns a grid of the given dimensions. It panics when either
// dimension is not positive; an empty chip is a caller bug, not a routable
// instance.
func New(w, h int) Grid {
	if w <= 0 || h <= 0 {
		panic(fmt.Sprintf("grid: invalid dimensions %dx%d", w, h))
	}
	return Grid{W: w, H: h}
}

// In reports whether p lies on the grid.
func (g Grid) In(p geom.Pt) bool {
	return p.X >= 0 && p.X < g.W && p.Y >= 0 && p.Y < g.H
}

// Index returns the dense index of p.
func (g Grid) Index(p geom.Pt) int { return p.Y*g.W + p.X }

// Pt returns the point for a dense index.
func (g Grid) Pt(i int) geom.Pt { return geom.Pt{X: i % g.W, Y: i / g.W} }

// Cells returns the number of grid cells.
func (g Grid) Cells() int { return g.W * g.H }

// OnBoundary reports whether p is on the chip boundary (where control pins
// may be placed).
func (g Grid) OnBoundary(p geom.Pt) bool {
	return g.In(p) && (p.X == 0 || p.Y == 0 || p.X == g.W-1 || p.Y == g.H-1)
}

// Dirs are the four Manhattan unit moves in deterministic order.
var Dirs = [4]geom.Pt{{X: 1, Y: 0}, {X: -1, Y: 0}, {X: 0, Y: 1}, {X: 0, Y: -1}}

// Neighbors appends the in-grid orthogonal neighbors of p to dst and returns
// it. dst is reused to avoid per-call allocation in routing inner loops.
//
//pacor:allow hotalloc fills a caller-provided buffer; callers pass cap-4 scratch that never regrows
func (g Grid) Neighbors(p geom.Pt, dst []geom.Pt) []geom.Pt {
	dst = dst[:0]
	for _, d := range Dirs {
		q := p.Add(d)
		if g.In(q) {
			dst = append(dst, q)
		}
	}
	return dst
}

// Bounds returns the grid extent as a rectangle.
func (g Grid) Bounds() geom.Rect {
	return geom.Rect{MinX: 0, MinY: 0, MaxX: g.W - 1, MaxY: g.H - 1}
}

// ObsMap is the boolean per-cell obstacle map used by every router
// (Algorithm 1, step 2). True means the cell is blocked.
type ObsMap struct {
	g     Grid
	block []bool
	// journal, while Journal's fn runs, records every cell whose value
	// actually changed (index plus the overwritten value), so callers can
	// rewind the map to an earlier state in O(changes) instead of re-copying
	// all O(W·H) cells. The negotiation router uses this to
	// rebuild its per-round scratch map, the flow's MST stage to undo a
	// failed cluster's partial paths, and the detour stage to restore a
	// failed matching attempt.
	journal    []int32
	journaling bool
}

// journalEntry packs a cell index and its overwritten value into one int32:
// index<<1 | oldValue. Grids stay far below 2^30 cells in this domain.
func journalEntry(i int, old bool) int32 {
	v := int32(i) << 1
	if old {
		v |= 1
	}
	return v
}

// Journal records every value change of the map into buf (reused,
// truncated) while fn runs, and returns the record so the caller can keep
// its buffer for the next call. Inside fn, every Set/SetPath/SetRect/
// CopyFrom that flips a cell appends the cell and its previous value;
// JournalLen marks a position and RewindJournal undoes the changes after a
// mark. The journal closes when fn returns or panics, so it cannot leak
// into later edits. Opening a second journal on a map whose first is still
// open would drop undo information, so it panics; nested scopes share the
// one journal through JournalLen marks instead.
func (m *ObsMap) Journal(buf []int32, fn func()) []int32 {
	if m.journaling {
		panic("grid: Journal on a map that already has one open")
	}
	m.journal = buf[:0]
	m.journaling = true
	defer func() {
		m.journaling = false
		m.journal = nil
	}()
	fn()
	return m.journal
}

// JournalLen returns the current journal length — a mark for RewindJournal.
// Marks are meaningful only inside Journal's fn.
func (m *ObsMap) JournalLen() int { return len(m.journal) }

// RewindJournal undoes every journaled change at position >= mark (newest
// first, so repeated flips of one cell restore correctly) and truncates the
// journal to mark. It panics outside Journal's fn; rewinding against a
// dropped record would silently corrupt the map.
func (m *ObsMap) RewindJournal(mark int) {
	if !m.journaling {
		panic("grid: RewindJournal without an active journal")
	}
	for i := len(m.journal) - 1; i >= mark; i-- {
		e := m.journal[i]
		m.block[e>>1] = e&1 != 0
	}
	m.journal = m.journal[:mark]
}

// record journals a value change of cell i when journaling is on.
func (m *ObsMap) record(i int, old bool) {
	if m.journaling {
		m.journal = append(m.journal, journalEntry(i, old)) //pacor:allow hotalloc amortized journal growth, buffer reused across rounds via Journal
	}
}

// NewObsMap returns an all-clear obstacle map for g.
func NewObsMap(g Grid) *ObsMap {
	return &ObsMap{g: g, block: make([]bool, g.Cells())}
}

// Grid returns the underlying grid.
func (m *ObsMap) Grid() Grid { return m.g }

// Blocked reports whether p is blocked. Off-grid points are blocked.
func (m *ObsMap) Blocked(p geom.Pt) bool {
	if !m.g.In(p) {
		return true
	}
	return m.block[m.g.Index(p)]
}

// Set marks p blocked (true) or clear (false). Off-grid points are ignored.
// Only actual value changes reach the journal.
func (m *ObsMap) Set(p geom.Pt, blocked bool) {
	if m.g.In(p) {
		i := m.g.Index(p)
		if m.block[i] != blocked {
			m.record(i, m.block[i])
			m.block[i] = blocked
		}
	}
}

// SetPath marks every cell of the path blocked or clear.
func (m *ObsMap) SetPath(path Path, blocked bool) {
	for _, p := range path {
		m.Set(p, blocked)
	}
}

// SetRect marks every cell in r blocked or clear.
func (m *ObsMap) SetRect(r geom.Rect, blocked bool) {
	rr := r.Intersect(m.g.Bounds())
	for y := rr.MinY; y <= rr.MaxY; y++ {
		for x := rr.MinX; x <= rr.MaxX; x++ {
			i := y*m.g.W + x
			if m.block[i] != blocked {
				m.record(i, m.block[i])
				m.block[i] = blocked
			}
		}
	}
}

// Bits serializes the blocked set into dst as a bitmap of ceil(cells/64)
// words (bit i set iff cell i is blocked) and returns it, reusing dst's
// capacity. The bitmap is a portable value snapshot: unlike the map itself it
// can be diffed word-wise (DiffBits) and persisted, which is how the
// cross-run negotiation seeding turns an obstacle-set delta into dirty cells.
//
//pacor:allow hotalloc grows the caller's snapshot buffer once; steady-state captures reuse it
func (m *ObsMap) Bits(dst []uint64) []uint64 {
	n := (len(m.block) + 63) / 64
	if cap(dst) < n {
		dst = make([]uint64, n)
	} else {
		dst = dst[:n]
		clear(dst)
	}
	for i, b := range m.block {
		if b {
			dst[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	return dst
}

// DiffBits calls mark for every cell index whose bit differs between a and b,
// in ascending cell order. The bitmaps must be the same length (it panics
// otherwise — a silent truncation would drop diff cells and unsoundly skip
// invalidation downstream).
func DiffBits(a, b []uint64, mark func(cell int)) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("grid: DiffBits length mismatch %d != %d", len(a), len(b)))
	}
	for wi := range a {
		d := a[wi] ^ b[wi]
		for d != 0 {
			mark(wi<<6 + bits.TrailingZeros64(d))
			d &= d - 1
		}
	}
}

// Count returns the number of blocked cells.
func (m *ObsMap) Count() int {
	n := 0
	for _, b := range m.block {
		if b {
			n++
		}
	}
	return n
}

// Clone returns an independent copy of the map.
//
//pacor:allow hotalloc clone constructs a fresh map by contract; hot paths use CopyFrom instead
func (m *ObsMap) Clone() *ObsMap {
	c := &ObsMap{g: m.g, block: make([]bool, len(m.block))}
	copy(c.block, m.block)
	return c
}

// CopyFrom overwrites m's contents with src's. Both maps must share the
// same grid dimensions. With an active journal, only differing cells are
// written (and journaled), so a rewind can restore the pre-copy state.
func (m *ObsMap) CopyFrom(src *ObsMap) {
	if m.g != src.g {
		panic("grid: CopyFrom between different grids")
	}
	if !m.journaling {
		copy(m.block, src.block)
		return
	}
	for i, v := range src.block {
		if m.block[i] != v {
			m.record(i, m.block[i])
			m.block[i] = v
		}
	}
}

// Path is a sequence of grid cells where consecutive cells are orthogonal
// neighbors. A path of k cells has channel length k-1 grid units.
type Path []geom.Pt

// Len returns the channel length of the path in grid units (edges, not
// cells). The empty path has length 0.
func (p Path) Len() int {
	if len(p) == 0 {
		return 0
	}
	return len(p) - 1
}

// Valid reports whether consecutive cells are orthogonal unit steps and no
// cell repeats. Self-crossing channels would short-circuit pressure paths.
//
//pacor:allow hotalloc verification utility, runs per finished path, not per search step
func (p Path) Valid() bool {
	seen := make(map[geom.Pt]bool, len(p))
	for i, c := range p {
		if seen[c] {
			return false
		}
		seen[c] = true
		if i > 0 && geom.Dist(p[i-1], c) != 1 {
			return false
		}
	}
	return true
}

// ValidOn reports Valid plus that every cell is on g.
func (p Path) ValidOn(g Grid) bool {
	if !p.Valid() {
		return false
	}
	for _, c := range p {
		if !g.In(c) {
			return false
		}
	}
	return true
}

// Reverse returns the path traversed backwards.
//
//pacor:allow hotalloc returns a fresh path by contract
func (p Path) Reverse() Path {
	r := make(Path, len(p))
	for i, c := range p {
		r[len(p)-1-i] = c
	}
	return r
}

// Clone returns a copy of the path.
//
//pacor:allow hotalloc returns a fresh path by contract
func (p Path) Clone() Path {
	c := make(Path, len(p))
	copy(c, p)
	return c
}

// BBox returns the bounding box of the path (empty rect for empty path).
func (p Path) BBox() geom.Rect {
	if len(p) == 0 {
		return geom.Rect{MinX: 1, MinY: 1, MaxX: 0, MaxY: 0}
	}
	r := geom.RectOf(p[0], p[0])
	for _, c := range p[1:] {
		r = r.Union(geom.RectOf(c, c))
	}
	return r
}

// Contains reports whether the path visits c.
func (p Path) Contains(c geom.Pt) bool {
	for _, q := range p {
		if q == c {
			return true
		}
	}
	return false
}
