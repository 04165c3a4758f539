package route

import (
	"math/bits"

	"repro/internal/geom"
	"repro/internal/grid"
)

// This file implements the tile coarsening behind the hierarchical escape
// router (escape.RouteHier): the grid is partitioned into T×T tiles (T a
// power of two, so cell→tile is two shifts and a multiply), and each
// tile-to-tile adjacency knows how many free cell pairs straddle the shared
// edge — the crossing capacity the global MCMF stage budgets corridors
// against. TileMask is the detailed
// stage's companion: a per-tile bit set that restricts an A* request to its
// corridor (Request.Mask).

// Tiling is the T×T coarsening of one obstacle map.
type Tiling struct {
	size   int  // tile side length (power of two)
	shift  uint // log2(size)
	tw, th int  // tile-grid dimensions (ceil division)

	capRight []int32 // free cell pairs across tile t's right edge (t -> t+1)
	capDown  []int32 // free cell pairs across tile t's bottom edge (t -> t+tw)
}

// tilePow2 rounds sz up to a power of two (minimum 2).
func tilePow2(sz int) int {
	if sz < 2 {
		sz = 2
	}
	if sz&(sz-1) != 0 {
		sz = 1 << bits.Len(uint(sz))
	}
	return sz
}

// NewTiling coarsens obs into tiles of the given side length (rounded up to
// a power of two).
func NewTiling(obs *grid.ObsMap, tileSize int) *Tiling {
	t := &Tiling{}
	t.Rebuild(obs, tileSize)
	return t
}

// Rebuild recomputes the tiling for obs, reusing the per-tile arrays when
// the tile-grid shape is unchanged.
//
//pacor:hot
//pacor:allow hotalloc per-tile arrays (re)allocated only when the tile-grid shape changes; Rebuild reuses them otherwise
func (t *Tiling) Rebuild(obs *grid.ObsMap, tileSize int) {
	g := obs.Grid()
	size := tilePow2(tileSize)
	t.size = size
	t.shift = uint(bits.TrailingZeros(uint(size)))
	t.tw = (g.W + size - 1) / size
	t.th = (g.H + size - 1) / size
	n := t.tw * t.th
	if len(t.capRight) != n {
		t.capRight = make([]int32, n)
		t.capDown = make([]int32, n)
	} else {
		clear(t.capRight)
		clear(t.capDown)
	}
	// One pass over the cells: count free cell pairs across tile edges (a
	// pair is usable by a channel only when both cells are free).
	for y := 0; y < g.H; y++ {
		ty := y >> t.shift
		for x := 0; x < g.W; x++ {
			p := geom.Pt{X: x, Y: y}
			if obs.Blocked(p) {
				continue
			}
			ti := ty*t.tw + x>>t.shift
			if x+1 < g.W && (x+1)&(size-1) == 0 && !obs.Blocked(geom.Pt{X: x + 1, Y: y}) {
				t.capRight[ti]++
			}
			if y+1 < g.H && (y+1)&(size-1) == 0 && !obs.Blocked(geom.Pt{X: x, Y: y + 1}) {
				t.capDown[ti]++
			}
		}
	}
}

// Size returns the tile side length.
func (t *Tiling) Size() int { return t.size }

// Tiles returns the number of tiles.
func (t *Tiling) Tiles() int { return t.tw * t.th }

// TileOf returns the tile index of cell p.
func (t *Tiling) TileOf(p geom.Pt) int {
	return (p.Y>>t.shift)*t.tw + p.X>>t.shift
}

// ForEachAdjacency calls fn for every tile pair sharing an edge with a
// positive crossing capacity (free cell pairs across the edge), in
// deterministic tile order. Adjacency is undirected; callers add arcs in
// both directions.
func (t *Tiling) ForEachAdjacency(fn func(u, v, capacity int)) {
	for ti := 0; ti < t.tw*t.th; ti++ {
		if c := int(t.capRight[ti]); c > 0 {
			fn(ti, ti+1, c)
		}
		if c := int(t.capDown[ti]); c > 0 {
			fn(ti, ti+t.tw, c)
		}
	}
}

// TileMask restricts a search to a set of tiles (Request.Mask): Contains is
// a shift, a multiply, and one bit test per probed cell.
type TileMask struct {
	shift uint
	tw    int
	bits  []uint64
}

// Contains reports whether in-grid cell p lies in an admitted tile.
func (m *TileMask) Contains(p geom.Pt) bool {
	ti := (p.Y>>m.shift)*m.tw + p.X>>m.shift
	return m.bits[ti>>6]&(1<<(uint(ti)&63)) != 0
}

// BuildMask allocates a mask admitting the corridor tiles dilated by halo
// tiles in every direction (Chebyshev, so diagonal neighbors are included —
// a detailed path may hug a tile corner).
//
//pacor:hot
//pacor:allow hotalloc one mask per corridor on the escape control path, not per search step
func (t *Tiling) BuildMask(tiles []int32, halo int) *TileMask {
	bits := make([]uint64, (t.tw*t.th+63)/64)
	for _, ti := range tiles {
		tx, ty := int(ti)%t.tw, int(ti)/t.tw
		for y := ty - halo; y <= ty+halo; y++ {
			if y < 0 || y >= t.th {
				continue
			}
			for x := tx - halo; x <= tx+halo; x++ {
				if x < 0 || x >= t.tw {
					continue
				}
				j := y*t.tw + x
				bits[j>>6] |= 1 << (uint(j) & 63)
			}
		}
	}
	return &TileMask{shift: t.shift, tw: t.tw, bits: bits}
}
