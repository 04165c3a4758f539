package route

import "fmt"

// This file holds the configuration and counters of the hierarchical escape
// router (escape.RouteHier): a tile-level min-cost-flow global stage on the
// tile coarsening (tile.go) assigns each cluster a corridor, and the
// detailed searches run masked to it through Request.Mask. Negotiation
// always searches the flat grid.

// HierMode selects whether the hierarchical escape router runs.
type HierMode uint8

const (
	// HierAuto turns the hierarchy on only above DefaultHierAutoCells grid
	// cells: small instances (where the flat escape network is already
	// cheap, and whose golden outputs predate the hierarchy) route flat,
	// large instances route hierarchically.
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
)

// On reports whether the hierarchy runs on a grid with the given cell
// count. The zero value, HierAuto, opts in by grid size alone.
func (m HierMode) On(cells int) bool {
	switch m {
	case HierOff:
		return false
	case HierOn:
		return true
	}
	return cells > DefaultHierAutoCells
}

// HierStats counts the hierarchical escape router's per-stage work. All
// fields accumulate across runs (Add).
type HierStats struct {
	// Tiles is the number of tile nodes built by global-stage solves.
	Tiles int
	// Corridors counts the corridors the global-stage solves assigned (the
	// first solve and every repair round); NoCorridor counts the clusters
	// the first solve left without one.
	Corridors  int
	NoCorridor int
	// CorridorHits counts detailed searches that succeeded inside the
	// corridor mask, Widened the searches that moved on to the widened mask,
	// and FlatFallbacks the clusters left to the final whole-grid sweep.
	CorridorHits  int
	Widened       int
	FlatFallbacks int
	// Repaired counts repair rounds: re-runs of the tile-level global
	// assignment on the updated obstacle state for the clusters whose
	// corridor searches failed.
	Repaired int
	// Refined counts escape paths shortened by the penalty-free rip-up pass
	// that follows the greedy commit.
	Refined int
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
}
