// Package escape implements the escape-routing stage of Section 5: routed
// clusters are connected to boundary control pins by solving one global
// minimum-cost flow. The construction realizes the paper's LP constraints
// directly on a network:
//
//   - each routing grid is split into an in-node and an out-node joined by a
//     capacity-1 arc, enforcing Constraint (12) (inflow+outflow <= 2, i.e. at
//     most one path through a cell);
//   - obstacle cells and non-pin boundary cells get no in/out arc
//     (Constraint 8, fabric.usable);
//   - a cluster node with capacity 1 fans out to that cluster's permitted
//     take-off cells (Constraints 6, 10: root for LM clusters of >= 3 valves,
//     path middle for 2-valve LM clusters, any path cell otherwise); take-off
//     cells accept no inward flow (Constraints 7, 11);
//   - each candidate control pin connects to the super sink with capacity 1.
//
// Successive shortest paths maximize the number of routed clusters first and
// total channel length second — the LP's beta-weighted objective — and the
// network matrix integrality gives Theorem 1's optimality.
//
// Isolated decides, with one flood over the same cells, which terminals no
// flow of that network can route.
package escape

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mcf"
)

// Terminal is one cluster's take-off set.
type Terminal struct {
	ClusterID int
	Cells     []geom.Pt
	// Costs, when non-nil, assigns a per-cell take-off penalty (same length
	// as Cells). The flow then trades escape channel length against the
	// penalty — PACOR uses it to steer length-matching clusters toward
	// take-offs that keep their spread small.
	Costs []int
}

// Result maps cluster IDs to their escape path and assigned control pin.
type Result struct {
	Paths map[int]grid.Path // first cell is the take-off, last is the pin
	Pins  map[int]geom.Pt
	// Unrouted lists cluster IDs that could not reach any pin.
	Unrouted []int
	// TotalLen is the summed channel length of all escape paths.
	TotalLen int
}

// Route solves the escape problem. obs must contain every existing channel
// cell, valve, and chip obstacle; take-off cells may (and normally do) lie
// on blocked cells — they are junctions on existing channels. pins is the
// candidate control pin set CP.
func Route(obs *grid.ObsMap, terms []Terminal, pins []geom.Pt) *Result {
	g := obs.Grid()
	cells := g.Cells()
	// Node ids: in(c) = 2c, out(c) = 2c+1, then S, T, then cluster nodes.
	S := 2 * cells
	T := S + 1
	base := T + 1
	// At most five arcs per cell (in->out and four neighbors), one drain per
	// pin, and per cluster its arc from S plus one per take-off cell.
	arcs := 5*cells + len(pins) + len(terms)
	for _, tm := range terms {
		arcs += len(tm.Cells)
	}
	net := mcf.NewGraph(base+len(terms), arcs)

	f := newFabric(obs, pins)
	takeoff := make(map[geom.Pt]bool)
	for _, tm := range terms {
		for _, c := range tm.Cells {
			takeoff[c] = true
		}
	}

	// Grid fabric: in->out per usable cell, out->neighbor-in per adjacency.
	// Take-off cells are normally blocked (they sit on existing channels) but
	// still need outgoing adjacency so an escape path can leave them; they
	// get no in->out arc, which is exactly Constraints (7) and (11).
	var nbuf []geom.Pt
	for i := 0; i < cells; i++ {
		p := g.Pt(i)
		if !f.usable(i, p.X, p.Y) && !takeoff[p] {
			continue
		}
		if f.usable(i, p.X, p.Y) {
			net.AddArc(2*i, 2*i+1, 1, 0)
		}
		nbuf = g.Neighbors(p, nbuf)
		for _, q := range nbuf {
			if j := g.Index(q); f.usable(j, q.X, q.Y) {
				net.AddArc(2*i+1, 2*j, 1, 1)
			}
		}
	}
	// Pins drain to T. A pin covered by an existing channel is unusable
	// unless that channel is a take-off cell (zero-length escape).
	for _, p := range pins {
		if g.In(p) && (!obs.Blocked(p) || takeoff[p]) {
			net.AddArc(2*g.Index(p)+1, T, 1, 0)
		}
	}
	// Cluster nodes: S -> C_q -> out(cell) for each take-off cell. Take-off
	// cells sit on existing channels (blocked), so they have no in->out arc
	// and therefore no inward flow (Constraints 7, 11). A take-off that is
	// itself a usable free cell (a bare valve) also has its fabric arcs; the
	// cluster arc injects directly into its out-node either way.
	for k, tm := range terms {
		cq := base + k
		net.AddArc(S, cq, 1, 0)
		for i, c := range tm.Cells {
			if g.In(c) {
				cost := 0
				if tm.Costs != nil {
					cost = tm.Costs[i]
				}
				net.AddArc(cq, 2*g.Index(c)+1, 1, cost)
			}
		}
	}

	flow, _ := net.MinCostFlow(S, T, -1)
	res := &Result{
		Paths: make(map[int]grid.Path),
		Pins:  make(map[int]geom.Pt),
	}
	if flow > 0 {
		for _, nodes := range net.DecomposeUnitPaths(S, T) {
			// nodes = S, C_q, out(c0), in(c1), out(c1), ..., in(pin), T
			if len(nodes) < 3 {
				continue
			}
			q := nodes[1] - base
			if q < 0 || q >= len(terms) {
				continue
			}
			var path grid.Path
			for _, nd := range nodes[2 : len(nodes)-1] {
				c := g.Pt(nd / 2)
				if len(path) == 0 || path[len(path)-1] != c {
					path = append(path, c)
				}
			}
			if len(path) == 0 {
				continue
			}
			id := terms[q].ClusterID
			res.Paths[id] = path
			res.Pins[id] = path[len(path)-1]
			res.TotalLen += path.Len()
		}
	}
	for _, tm := range terms {
		if _, ok := res.Paths[tm.ClusterID]; !ok {
			res.Unrouted = append(res.Unrouted, tm.ClusterID)
		}
	}
	sort.Ints(res.Unrouted)
	return res
}

// cellBits is a set of dense grid cell indices.
type cellBits []uint64

func newCellBits(cells int) cellBits { return make(cellBits, (cells+63)/64) }

func (b cellBits) has(i int) bool { return b[i>>6]&(1<<(uint(i)&63)) != 0 }

func (b cellBits) add(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// fabric is the cell view Route's flow network and Isolated's flood share:
// the obstacle map and the in-grid candidate pins.
type fabric struct {
	g    grid.Grid
	obs  *grid.ObsMap
	pins cellBits
}

func newFabric(obs *grid.ObsMap, pins []geom.Pt) fabric {
	g := obs.Grid()
	f := fabric{g: g, obs: obs, pins: newCellBits(g.Cells())}
	for _, p := range pins {
		if g.In(p) {
			f.pins.add(g.Index(p))
		}
	}
	return f
}

// usable reports whether the in-grid cell (x, y), dense index i, may carry
// escape flow: it is not blocked and — Constraint (8) — it is on the chip
// boundary only when it is a control pin.
func (f *fabric) usable(i, x, y int) bool {
	return !f.obs.BlockedAt(i) && (x > 0 && y > 0 && x < f.g.W-1 && y < f.g.H-1 || f.pins.has(i))
}

// Isolated returns, ascending, the cluster IDs of the terminals that no
// escape path can connect to a pin: none of the terminal's take-offs is a
// pin, and none has a usable neighbour that usable cells join to a usable
// pin. Those are exactly the terminals Route's network has no
// source-to-sink path through, so a Route of one such terminal alone
// leaves it unrouted, no Route routes it whatever the other terminals are,
// and a Route of one terminal that Isolated does not name routes it.
//
// One flood from the usable pins over usable cells decides every
// terminal. It keeps cell bitmaps and, as its frontier, one distance layer
// of cells at a time.
func Isolated(obs *grid.ObsMap, terms []Terminal, pins []geom.Pt) []int {
	f := newFabric(obs, pins)
	g := f.g
	reach := newCellBits(g.Cells()) // the flood: usable cells joined to a usable pin
	// A layer entry packs a cell as y<<16 | x (grids stay far below 2^16
	// cells a side in this domain).
	var layer, next []uint32
	visit := func(x, y int) {
		if i := y*g.W + x; !reach.has(i) && f.usable(i, x, y) {
			reach.add(i)
			next = append(next, uint32(y)<<16|uint32(x))
		}
	}
	for _, p := range pins {
		if g.In(p) {
			visit(p.X, p.Y)
		}
	}
	for len(next) > 0 {
		layer, next = next, layer[:0]
		for _, c := range layer {
			x, y := int(c&0xffff), int(c>>16)
			if x+1 < g.W {
				visit(x+1, y)
			}
			if x > 0 {
				visit(x-1, y)
			}
			if y+1 < g.H {
				visit(x, y+1)
			}
			if y > 0 {
				visit(x, y-1)
			}
		}
	}

	var ids []int
	for _, tm := range terms {
		if !f.escapes(reach, tm) {
			ids = append(ids, tm.ClusterID)
		}
	}
	sort.Ints(ids)
	return ids
}

// escapes reports whether some take-off of tm is a pin or touches the flood
// reach.
func (f *fabric) escapes(reach cellBits, tm Terminal) bool {
	for _, c := range tm.Cells {
		if !f.g.In(c) {
			continue
		}
		if f.pins.has(f.g.Index(c)) {
			return true
		}
		for _, d := range grid.Dirs {
			if q := c.Add(d); f.g.In(q) && reach.has(f.g.Index(q)) {
				return true
			}
		}
	}
	return false
}
