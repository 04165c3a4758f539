// Package escape implements the escape-routing stage of Section 5: routed
// clusters are connected to boundary control pins by solving one global
// minimum-cost flow. The construction realizes the paper's LP constraints
// directly on a network:
//
//   - each routing grid is split into an in-node and an out-node joined by a
//     capacity-1 arc, enforcing Constraint (12) (inflow+outflow <= 2, i.e. at
//     most one path through a cell);
//   - obstacle cells and non-pin boundary cells get no in/out arc
//     (Constraint 8);
//   - a cluster node with capacity 1 fans out to that cluster's permitted
//     take-off cells (Constraints 6, 10: root for LM clusters of >= 3 valves,
//     path middle for 2-valve LM clusters, any path cell otherwise); take-off
//     cells accept no inward flow (Constraints 7, 11);
//   - each candidate control pin connects to the super sink with capacity 1.
//
// Successive shortest paths maximize the number of routed clusters first and
// total channel length second — the LP's beta-weighted objective — and the
// network matrix integrality gives Theorem 1's optimality.
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

	pinSet := make(map[geom.Pt]bool, len(pins))
	for _, p := range pins {
		if g.In(p) {
			pinSet[p] = true
		}
	}
	takeoff := make(map[geom.Pt]bool)
	for _, tm := range terms {
		for _, c := range tm.Cells {
			takeoff[c] = true
		}
	}

	usable := func(p geom.Pt) bool {
		if !g.In(p) || obs.Blocked(p) {
			return false
		}
		// Constraint (8): boundary cells that are not control pins carry no
		// flow.
		if g.OnBoundary(p) && !pinSet[p] {
			return false
		}
		return true
	}

	// Grid fabric: in->out per usable cell, out->neighbor-in per adjacency.
	// Take-off cells are normally blocked (they sit on existing channels) but
	// still need outgoing adjacency so an escape path can leave them; they
	// get no in->out arc, which is exactly Constraints (7) and (11).
	var nbuf []geom.Pt
	for i := 0; i < cells; i++ {
		p := g.Pt(i)
		if !usable(p) && !takeoff[p] {
			continue
		}
		if usable(p) {
			net.AddArc(2*i, 2*i+1, 1, 0)
		}
		nbuf = g.Neighbors(p, nbuf)
		for _, q := range nbuf {
			if usable(q) {
				net.AddArc(2*i+1, 2*g.Index(q), 1, 1)
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
