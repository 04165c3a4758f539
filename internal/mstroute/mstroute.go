// Package mstroute implements the MST-based cluster routing stage of the
// PACOR flow (Figure 2): clusters without the length-matching constraint are
// connected by routing the edges of a minimum spanning tree over the valves,
// using point-to-point and point-to-path A* searches — each new valve routes
// to the nearest cell of the already-routed tree, which both shortens
// channels and improves routability versus fixed point-to-point edges.
package mstroute

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// MST returns the edges of a minimum spanning tree over the points under
// Manhattan distance, via Prim's algorithm. Edges are (index, index) pairs
// into pts, in the order Prim adds them (so edge k attaches a new vertex to
// the tree built by edges 0..k-1).
func MST(pts []geom.Pt) [][2]int {
	n := len(pts)
	if n <= 1 {
		return nil
	}
	inTree := make([]bool, n)
	bestDist := make([]int, n)
	bestFrom := make([]int, n)
	for i := range bestDist {
		bestDist[i] = int(^uint(0) >> 1)
		bestFrom[i] = -1
	}
	inTree[0] = true
	for j := 1; j < n; j++ {
		bestDist[j] = geom.Dist(pts[0], pts[j])
		bestFrom[j] = 0
	}
	edges := make([][2]int, 0, n-1)
	for len(edges) < n-1 {
		pick, pd := -1, int(^uint(0)>>1)
		for j := 0; j < n; j++ {
			if !inTree[j] && (bestDist[j] < pd || (bestDist[j] == pd && (pick == -1 || j < pick))) {
				pick, pd = j, bestDist[j]
			}
		}
		edges = append(edges, [2]int{bestFrom[pick], pick})
		inTree[pick] = true
		for j := 0; j < n; j++ {
			if !inTree[j] {
				if d := geom.Dist(pts[pick], pts[j]); d < bestDist[j] {
					bestDist[j] = d
					bestFrom[j] = pick
				}
			}
		}
	}
	return edges
}

// Result is a routed cluster: one path per successfully routed MST edge.
type Result struct {
	Paths []grid.Path
	// Failed holds the indices (into the terminal slice) of valves that
	// could not be attached; empty on full success.
	Failed []int
}

// TotalLen returns the summed channel length of all paths.
func (r *Result) TotalLen() int {
	n := 0
	for _, p := range r.Paths {
		n += p.Len()
	}
	return n
}

// RouteCluster connects the terminals into one routed tree on obs, each MST
// edge by a unit-cost A* search. Routed paths are marked as obstacles in obs
// (the caller owns rollback via Clone if needed). ok is false when any
// terminal failed to attach. Every A* edge search runs on ws, the caller's
// workspace.
func RouteCluster(ws *route.Workspace, obs *grid.ObsMap, terms []geom.Pt) (*Result, bool) {
	res := &Result{}
	if len(terms) <= 1 {
		return res, true
	}
	g := obs.Grid()
	edges := MST(terms)
	// Tree cells grow as edges route; point-to-path search targets them all.
	tree := []geom.Pt{terms[0]}
	ok := true
	for _, e := range edges {
		// Prim guarantees e[0] is already attached; if its own attachment
		// failed earlier, fall back to the whole current tree.
		src := terms[e[1]]
		p, routed := ws.AStar(g, route.Request{
			Sources: []geom.Pt{src},
			Targets: tree,
			Obs:     obs,
		})
		if !routed {
			res.Failed = append(res.Failed, e[1])
			ok = false
			continue
		}
		res.Paths = append(res.Paths, p)
		obs.SetPath(p, true)
		tree = append(tree, p...)
	}
	// De-duplicate failed list order for determinism.
	sort.Ints(res.Failed)
	return res, ok
}

// Connected reports whether the routed paths plus terminals form a single
// connected component (used by tests and flow assertions). Terminals with no
// paths count as connected only when there is at most one terminal.
func Connected(terms []geom.Pt, paths []grid.Path) bool {
	if len(terms) <= 1 {
		return true
	}
	// Union-find over cells.
	parent := map[geom.Pt]geom.Pt{}
	var find func(p geom.Pt) geom.Pt
	find = func(p geom.Pt) geom.Pt {
		if parent[p] == p {
			return p
		}
		r := find(parent[p])
		parent[p] = r
		return r
	}
	add := func(p geom.Pt) {
		if _, ok := parent[p]; !ok {
			parent[p] = p
		}
	}
	union := func(a, b geom.Pt) {
		add(a)
		add(b)
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, t := range terms {
		add(t)
	}
	// Terminals lying on a path cell merge by identity; path cells merge
	// along their explicit steps.
	for _, p := range paths {
		for i, c := range p {
			add(c)
			if i > 0 {
				union(p[i-1], c)
			}
		}
	}
	root := find(terms[0])
	for _, t := range terms[1:] {
		if find(t) != root {
			return false
		}
	}
	return true
}
