package route

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mcf"
)

// This file implements the hierarchical two-stage negotiation router: a
// global stage assigns every edge a corridor of tiles with the min-cost-flow
// solver on the tile coarsening (tile.go), and the detailed stage confines
// each edge's A* to its corridor via Request.Mask.
//
// The hierarchy is EXACT for negotiation — a wall-clock knob, never a quality
// knob. The escalation ladder (hierSearch) accepts a masked result only when
// Workspace.Clipped reports that the mask never rejected a frontier cell, in
// which case the masked transcript is identical to the unmasked one; any
// clipped attempt escalates (corridor → wide corridor → no mask), and the
// final rung is the plain flat search. Committed paths therefore always equal
// the flat router's byte for byte, the golden outputs stay pinned, and the
// cones a seed capture records stay sound (a ladder cone is a superset of the
// flat cone, so cross-run invalidation only ever over-triggers).
//
// What the corridor buys: on large grids the dominant cost of a failed or
// long search is the frontier disk. A corridor mask turns each search into a
// band around the tile path the global stage picked, and the global stage
// prices tile crossings by residual capacity (congestion steps) and by the
// negotiation history of the tiles, so corridors of different edges spread
// before the detailed searches ever collide.

// HierMode selects whether the hierarchical two-stage router runs.
type HierMode uint8

const (
	// HierAuto turns the hierarchy on only above HierParams.AutoCells grid
	// cells: small instances (where flat search is already cheap, and whose
	// golden outputs predate the hierarchy) run flat, large instances run
	// hierarchically.
	HierAuto HierMode = iota
	// HierOff forces the flat router.
	HierOff
	// HierOn forces the hierarchy regardless of grid size.
	HierOn
)

// String returns the flag spelling of m.
func (m HierMode) String() string {
	switch m {
	case HierOff:
		return "off"
	case HierOn:
		return "on"
	default:
		return "auto"
	}
}

// ParseHierMode parses a -hier flag value.
func ParseHierMode(s string) (HierMode, error) {
	switch s {
	case "auto", "":
		return HierAuto, nil
	case "off":
		return HierOff, nil
	case "on":
		return HierOn, nil
	}
	return HierAuto, fmt.Errorf("route: unknown hier mode %q (want auto|on|off)", s)
}

const (
	// DefaultTileSize is the tile side length of the coarsening. 32 keeps the
	// tile graph tiny (a 1024x1024 grid is 32x32 = 1024 tiles) while leaving
	// enough cells per tile boundary for meaningful crossing capacities.
	DefaultTileSize = 32
	// DefaultHierAutoCells is the HierAuto threshold: grids at or below this
	// many cells route flat. 80000 keeps every golden-pinned Table 1 design
	// (largest: Chip1 at 179x413 = 73927 cells) on the flat router while the
	// XL family (300x300 = 90000 cells and up) goes hierarchical.
	DefaultHierAutoCells = 80000

	// hierCorridorHalo / hierWideHalo are the tile dilations of the two
	// masked ladder rungs: the corridor plus one tile of slack, then a widened
	// band before falling back to the unmasked search.
	hierCorridorHalo = 1
	hierWideHalo     = 3
)

// HierParams configures the hierarchical router. The zero value is HierAuto
// with default tile size and threshold, so callers opt in by grid size alone.
type HierParams struct {
	Mode HierMode
	// TileSize is the tile side length, rounded up to a power of two.
	// 0 means DefaultTileSize.
	TileSize int
	// AutoCells is the HierAuto cell-count threshold (hierarchy on strictly
	// above it). 0 means DefaultHierAutoCells.
	AutoCells int
}

// tileSize resolves the effective tile side length.
func (p HierParams) tileSize() int {
	if p.TileSize <= 0 {
		return DefaultTileSize
	}
	return p.TileSize
}

// On reports whether the hierarchy runs on a grid with the given cell count.
func (p HierParams) On(cells int) bool {
	switch p.Mode {
	case HierOff:
		return false
	case HierOn:
		return true
	}
	ac := p.AutoCells
	if ac <= 0 {
		ac = DefaultHierAutoCells
	}
	return cells > ac
}

// HierStats counts the hierarchical router's per-stage work. All fields
// accumulate across runs (Add).
type HierStats struct {
	// Tiles is the number of tile nodes built by global-stage preparations.
	Tiles int
	// Corridors / NoCorridor split the per-round edge assignments: edges the
	// global stage gave a corridor vs. edges it could not (terminals spanning
	// tiles, or no residual tile capacity left) which search flat directly.
	Corridors  int
	NoCorridor int
	// CorridorHits / Widened / FlatFallbacks split the detailed searches by
	// the ladder rung that produced the accepted (never-clipped, or final
	// flat) result.
	CorridorHits  int
	Widened       int
	FlatFallbacks int
	// Repaired counts the escape detailed stage's repair rounds: re-runs of
	// the tile-level global assignment on the updated obstacle state for the
	// clusters whose corridor searches failed (zero for the negotiation
	// hierarchy, whose committed results never depend on commit order).
	Repaired int
	// Refined counts escape paths shortened by the penalty-free rip-up pass
	// that follows the greedy commit (also escape-only).
	Refined int
	// WindowCells sums the corridor window areas the detailed stage searched
	// in place of whole-grid disks.
	WindowCells int64
}

// Add accumulates o into s.
func (s *HierStats) Add(o HierStats) {
	s.Tiles += o.Tiles
	s.Corridors += o.Corridors
	s.NoCorridor += o.NoCorridor
	s.CorridorHits += o.CorridorHits
	s.Widened += o.Widened
	s.FlatFallbacks += o.FlatFallbacks
	s.Repaired += o.Repaired
	s.Refined += o.Refined
	s.WindowCells += o.WindowCells
}

// hierLevel identifies the ladder rung that produced a search result.
type hierLevel uint8

const (
	hierLevelNone hierLevel = iota // no corridor: searched flat directly
	hierLevelCorridor
	hierLevelWidened
	hierLevelFlat
)

// count folds one accepted search's rung into the stats.
func (s *HierStats) count(lvl hierLevel) {
	switch lvl {
	case hierLevelCorridor:
		s.CorridorHits++
	case hierLevelWidened:
		s.Widened++
	case hierLevelFlat:
		s.FlatFallbacks++
	}
}

// hierArc remembers one tile-graph arc for per-round re-pricing: the AddArc
// id, the tile the arc enters, and its congestion-stepped base cost.
type hierArc struct {
	id   int32
	to   int32
	base int32
}

// hierState is the workspace-resident hierarchical-router state: the tile
// coarsening and corridor graph of the current negotiation run, and the
// per-edge corridor masks of the current round. The mask bitmaps live in one
// shared slab sliced per edge.
type hierState struct {
	run    bool
	tiling Tiling
	graph  *mcf.Graph
	solver mcf.Solver
	arcs   []hierArc

	has   []bool
	masks []TileMask
	wide  []TileMask
	win   []geom.Rect
	bits  []uint64

	pen      []float64 // per-tile history mass (scratch, round re-pricing)
	corridor []int32   // current edge's corridor tiles (scratch)
}

// hierPrepare builds the run's tile coarsening and corridor graph from the
// round-start work map (terminals already blocked) and sizes the per-edge
// mask slabs. Called once per negotiation run; the graph is re-priced and
// re-solved per round by hierAssign, never rebuilt.
//
// Tile adjacency arcs are congestion-stepped: about half the crossing
// capacity at base cost T (the tile side — one tile of detailed routing),
// the remainder at 3T, in both directions. A corridor through a half-used
// boundary therefore pays a premium before the boundary is full, which
// spreads corridors across parallel routes instead of saturating one.
//
//pacor:allow hotalloc per-run graph and slab construction, amortized over every round's corridor assignments and searches
func (w *Workspace) hierPrepare(work *grid.ObsMap, nEdges int, hp HierParams, stats *NegotiateStats) {
	h := &w.hier
	h.run = true
	h.tiling.Rebuild(work, hp.tileSize()) //pacor:allow snapshotread runs on the round-start work map before any speculative worker exists, never on a scheduler snapshot
	nt := h.tiling.Tiles()
	size := h.tiling.Size()
	h.graph = mcf.NewGraph(nt)
	h.arcs = h.arcs[:0]
	h.tiling.ForEachAdjacency(func(u, v, c int) {
		fast := (c + 1) / 2
		h.addArc(u, v, fast, size)
		h.addArc(v, u, fast, size)
		if rest := c - fast; rest > 0 {
			h.addArc(u, v, rest, 3*size)
			h.addArc(v, u, rest, 3*size)
		}
	})

	words := h.tiling.maskWords()
	need := 2 * nEdges * words
	if cap(h.bits) < need {
		h.bits = make([]uint64, need)
	}
	h.bits = h.bits[:need]
	if cap(h.has) < nEdges {
		h.has = make([]bool, nEdges)
		h.masks = make([]TileMask, nEdges)
		h.wide = make([]TileMask, nEdges)
		h.win = make([]geom.Rect, nEdges)
	}
	h.has = h.has[:nEdges]
	h.masks = h.masks[:nEdges]
	h.wide = h.wide[:nEdges]
	h.win = h.win[:nEdges]
	if cap(h.pen) < nt {
		h.pen = make([]float64, nt)
	}
	h.pen = h.pen[:nt]
	if stats != nil {
		stats.Hier.Tiles += nt
	}
}

// addArc adds one tile-graph arc and records it for re-pricing.
//
//pacor:allow hotalloc amortized arc-record growth, reused across runs
func (h *hierState) addArc(u, v, capacity, base int) {
	id := h.graph.AddArc(u, v, capacity, base)
	h.arcs = append(h.arcs, hierArc{id: int32(id), to: int32(v), base: int32(base)})
}

// singleTile reports the common tile of pts; ok=false when pts is empty or
// spans tiles (such an edge gets no corridor and searches flat).
func (t *Tiling) singleTile(pts []geom.Pt) (int, bool) {
	if len(pts) == 0 {
		return 0, false
	}
	ti := t.TileOf(pts[0])
	for _, p := range pts[1:] {
		if t.TileOf(p) != ti {
			return 0, false
		}
	}
	return ti, true
}

// hierAssign runs the global stage for one round: reset the corridor graph,
// re-price tile entries by the round's negotiation history, then assign each
// edge a corridor with a unit min-cost flow, committing each edge's flow so
// later edges see the residual congestion. Edges without a corridor (multi-
// tile terminals, or no residual capacity) search flat.
//
//pacor:allow hotalloc per-corridor decomposition scratch inside the mcf solver, amortized over the round's searches
func (w *Workspace) hierAssign(edges []Edge, hist []float64, round int, stats *NegotiateStats) {
	h := &w.hier
	t := &h.tiling
	h.graph.Reset()
	if round > 0 {
		// Fold the round's history into the arc costs: entering tile v costs
		// its base plus T times v's mean per-cell history, truncated to an
		// integer. The per-tile mass is accumulated by one index-order scan of
		// hist, so the float sums — and the priced costs — are deterministic.
		clear(h.pen)
		for i, v := range hist {
			if v != 0 {
				h.pen[t.TileOfIndex(i)] += v
			}
		}
		size := float64(t.Size())
		area := size * size
		for _, a := range h.arcs {
			pen := int64(size * h.pen[a.to] / area)
			h.graph.SetCost(int(a.id), int(a.base)+int(pen))
		}
	}

	words := t.maskWords()
	clear(h.bits)
	for ei := range edges {
		h.has[ei] = false
		e := &edges[ei]
		st, okS := t.singleTile(e.Sources)
		dt, okT := t.singleTile(e.Targets)
		if !okS || !okT {
			if stats != nil {
				stats.Hier.NoCorridor++
			}
			continue
		}
		h.corridor = h.corridor[:0]
		if st == dt {
			h.corridor = append(h.corridor, int32(st)) //pacor:allow hotalloc amortized corridor scratch, reused across edges
		} else {
			if f, _ := h.solver.MinCostFlow(h.graph, st, dt, 1); f != 1 {
				if stats != nil {
					stats.Hier.NoCorridor++
				}
				continue
			}
			paths := h.graph.DecomposeUnitPaths(st, dt)
			h.graph.Commit() // bake this edge's flow in: later edges can't cancel it
			if len(paths) == 0 {
				if stats != nil {
					stats.Hier.NoCorridor++
				}
				continue
			}
			for _, nd := range paths[0] {
				h.corridor = append(h.corridor, int32(nd)) //pacor:allow hotalloc amortized corridor scratch, reused across edges
			}
		}
		mb := h.bits[2*ei*words : (2*ei+1)*words]
		wb := h.bits[(2*ei+1)*words : (2*ei+2)*words]
		t.fillMask(&h.masks[ei], mb, h.corridor, hierCorridorHalo)
		t.fillMask(&h.wide[ei], wb, h.corridor, hierWideHalo)
		h.win[ei] = t.CorridorRect(h.corridor, hierCorridorHalo)
		h.has[ei] = true
		if stats != nil {
			stats.Hier.Corridors++
			stats.Hier.WindowCells += int64(h.win[ei].Area())
		}
	}
}

// hierSearch routes one request through the corridor escalation ladder:
// corridor mask, widened mask, then no mask. A masked rung's result is
// accepted only when the search never clipped (mask rejected nothing), which
// makes its transcript — and result — identical to the flat search's; any
// clipped rung escalates, successful or not, so the returned path ALWAYS
// equals the flat router's. Safe on scheduler worker workspaces: the masks
// are read-only and the ladder touches only the receiver's search state.
func (w *Workspace) hierSearch(g grid.Grid, req Request, mask, wide *TileMask) (grid.Path, bool, hierLevel) {
	req.Mask = mask
	p, ok := w.AStar(g, req)
	if w.clipped == 0 {
		return p, ok, hierLevelCorridor
	}
	req.Mask = wide
	p, ok = w.AStar(g, req)
	if w.clipped == 0 {
		return p, ok, hierLevelWidened
	}
	req.Mask = nil
	p, ok = w.AStar(g, req)
	return p, ok, hierLevelFlat
}

// negSearch is the negotiation round's search entry point: the ladder when
// edge ei holds a corridor, the flat search otherwise.
func (w *Workspace) negSearch(g grid.Grid, req Request, ei int) (grid.Path, bool, hierLevel) {
	h := &w.hier
	if !h.run || !h.has[ei] {
		p, ok := w.AStar(g, req)
		return p, ok, hierLevelNone
	}
	return w.hierSearch(g, req, &h.masks[ei], &h.wide[ei])
}
