// Package route implements the grid routers of the PACOR flow: a
// multi-source multi-target A* (covering the paper's point-to-point,
// point-to-path, and path-to-path searches), the negotiation-based iterative
// router of Algorithm 1, and the minimum-length bounded router of Section 6.
//
// All searches run on a caller-owned Workspace (generation-stamped per-cell
// arrays, no per-call O(W·H) allocation).
package route

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Request describes one A* search. Sources start with cost 0; the search
// stops at the first target reached. Point-to-path and path-to-path routing
// are expressed by passing all cells of a path as Sources and/or Targets.
type Request struct {
	Sources []geom.Pt
	Targets []geom.Pt
	// Obs blocks cells. Source and target cells are exempt: a search onto an
	// already-routed (and therefore obstacle-marked) path must be able to
	// land on it.
	Obs *grid.ObsMap
	// Hist, when non-nil, adds a per-cell extra cost on entering each cell
	// (the negotiation history cost). Indexed by grid.Grid.Index.
	Hist []float64
	// Bounds, when non-nil, restricts the search to the given window (cells
	// outside are treated as blocked). Detour searches use it to stay local.
	Bounds *geom.Rect
	// Mask, when non-nil, restricts the search to a set of tiles (cells in
	// unadmitted tiles are treated as blocked, targets exempt). The
	// hierarchical escape router confines each cluster's detailed search to
	// its corridor with it.
	Mask *TileMask
	// HistScale and HistMax certify the Hist cost domain for the bucket
	// queue: HistScale is a power-of-two fixed-point scale under which every
	// step cost 1+Hist[j] is an exact integer, and HistMax bounds the scaled
	// step. Producers of structured history (negotiation, via HistQuant) set
	// them; a request with non-nil Hist and HistScale == 0 is uncertified and
	// always searches on the heap.
	HistScale int64
	HistMax   int64
}

// inBounds reports whether the request admits cell q.
func (r *Request) inBounds(q geom.Pt) bool {
	return (r.Bounds == nil || r.Bounds.Contains(q)) &&
		(r.Mask == nil || r.Mask.Contains(q))
}
