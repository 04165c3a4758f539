package escape

import (
	"sort"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mcf"
	"repro/internal/route"
)

// This file implements the hierarchical escape router: the drop-in
// alternative to Route for large grids, where the flat construction's
// per-cell flow network (two nodes and up to six arcs per grid cell)
// dominates the whole PACOR flow's runtime.
//
// Two stages replace the single grid-scale min-cost flow:
//
//  1. Global: the grid is coarsened into tiles (route.Tiling) and a small
//     flow network is solved over tile nodes — S → cluster → take-off tile →
//     ... → pin tile → T, with tile-crossing capacities from free boundary
//     cell pairs and congestion-stepped costs. One joint solve assigns every
//     cluster a tile corridor and budgets each tile's candidate pins.
//  2. Detailed: each cluster's escape channel is an A* from its take-off set
//     to its destination tile's candidate pins, masked to its corridor
//     (widened one rung on failure), routed in cluster order with every
//     found path committed before the next search.
//
// The global stage deliberately assigns tiles, not pins: committed escape
// channels partition the free space (every channel is a wall from the
// interior to the boundary), so whichever single pin a global pass picked
// would often end up in the wrong region by the time its cluster commits.
// Targeting the destination tile's whole pin set lets the search land on the
// nearest pin still reachable in ITS region. A taken pin seals itself for
// every later search — a boundary pin has exactly one interior access cell,
// and the path that claimed the pin occupies it — so the sequential commit
// transcript assigns distinct pins without any bookkeeping in the hot path
// (the tile→T capacity already bounds units per tile by pins per tile).
//
// Clusters that fail even the widened search are NOT retried unmasked —
// at chip scale an unmasked search is the grid-size cost the hierarchy
// exists to avoid, and the corridor that failed was assigned on a map that
// no longer exists (every commit since has moved the walls). Instead the
// repair loop re-runs the global stage on the current obstacle state for
// the failed clusters only (see hierRepairRounds); a final flat pass
// sweeps up whatever the repair rounds could not place, including the
// zero-length escapes onto covered take-off pins that the conservative
// capacity model excludes.
//
// The hierarchy is APPROXIMATE: the flat network optimizes pin assignment
// and total length jointly and exactly (Theorem 1); here pin choice is
// greedy within the corridor's tile and paths commit in cluster order, so
// total escape length can differ from the flat optimum. Callers report the delta explicitly
// (EXPERIMENTS.md). Routability is protected by the repair loop and the
// final flat pass.
//
// Determinism: the tile network is built in deterministic order, unit-path
// decomposition follows deterministic residual walks, candidate pins keep
// input order, and the detailed searches, repair rounds and refinement all
// run in one fixed order.

// hierRepairRounds bounds the detailed stage's repair loop: a cluster that
// fails inside its corridor is usually walled in by paths committed before
// it, and its corridor — assigned on the empty grid — no longer reflects the
// free space. Each repair round rebuilds the tile graph on the CURRENT
// obstacle state (committed paths included) and re-runs the small tile-level
// flow for the failed clusters only, so they get corridors that steer around
// the walls. Rounds are cheap (the tile graph is ~w*h/1024 nodes and the
// failure set shrinks monotonically — a round that commits nothing ends the
// loop), and they replace both the per-unit unmasked searches and the
// whole-stage replays that made failures grid-scale expensive.
const hierRepairRounds = 3

// hierRingPenalty is the extra per-cell cost the detailed stage charges for
// entering a cell one step inside the boundary. A greedy path that runs
// parallel to the boundary on that ring seals every pin along its stretch
// for all later clusters. hierTakeoffPenalty is the (stiffer) charge for
// entering a cell adjacent to any take-off: most take-offs are a single cell
// (an LM tree root or pair tap), and one committed path brushing past can
// wall one in for good. Every path starts by stepping off its own take-off
// into a penalized cell, but that is a constant on all of its candidates and
// steers nothing. Penalties make sealing cells last-resort-only while leaving
// them available when there is genuinely no other way through; the flow
// network needs no such nudge — its max-flow objective would never seal a
// take-off or pin it still has to route a unit through.
const (
	hierRingPenalty    = 4
	hierTakeoffPenalty = 16
)

// RouteHier solves the escape problem hierarchically. It matches Route's
// contract (obs is not modified; the result has the same shape) but not
// necessarily its exact output; the returned stats report the per-stage
// work. Take-off Costs are honored approximately: they price the global
// stage's cluster→tile arcs (each distinct take-off tile at its cheapest
// member), steering corridors toward cheap take-off regions, but the
// detailed search then lands on whichever take-off cell it reaches first —
// the flat network's exact penalty-vs-length trade-off is not replayed.
// Every detailed search runs on ws, the caller's workspace.
func RouteHier(ws *route.Workspace, obs *grid.ObsMap, terms []Terminal, pins []geom.Pt, hp route.HierParams) (*Result, route.HierStats) {
	var st route.HierStats
	g := obs.Grid()

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

	// Detailed-stage work map. Beyond the existing obstacles: boundary cells
	// that are not control pins carry no flow (Constraint 8), and EVERY pin
	// cell is blocked — a search reaches its own pin through the target
	// exemption, so pre-blocking keeps every path off foreign pins (the flat
	// network's per-cell capacity does this implicitly).
	work := obs.Clone()
	for x := 0; x < g.W; x++ {
		for _, p := range []geom.Pt{{X: x, Y: 0}, {X: x, Y: g.H - 1}} {
			if !pinSet[p] {
				work.Set(p, true)
			}
		}
	}
	for y := 0; y < g.H; y++ {
		for _, p := range []geom.Pt{{X: 0, Y: y}, {X: g.W - 1, Y: y}} {
			if !pinSet[p] {
				work.Set(p, true)
			}
		}
	}
	for _, p := range pins {
		if g.In(p) {
			work.Set(p, true)
		}
	}

	ts := hp.TileSize
	if ts <= 0 {
		ts = route.DefaultTileSize
	}

	type unit struct {
		k        int // terminal index
		corridor []int32
		tgts     []geom.Pt
	}

	// assign is the global stage: coarsen om into tiles, solve the tile-level
	// flow for the given terminal indices, and decompose the result into
	// per-cluster corridors. om is the capacity source — the pristine work
	// map on the first call, the current committed state in repair rounds —
	// and usedPin masks pins already claimed. Terminals that get no corridor
	// (no residual capacity, or no reachable pin tile) are simply absent from
	// the returned units.
	var pnbuf []geom.Pt
	assign := func(om *grid.ObsMap, ks []int, usedPin map[geom.Pt]bool) (*route.Tiling, []unit) {
		t := route.NewTiling(om, ts)
		nt := t.Tiles()
		st.Tiles += nt
		S := nt
		T := nt + 1
		base := nt + 2
		// At most four arcs per adjacency and two adjacencies per tile, one
		// drain per tile, and per cluster its arc from S plus one per
		// take-off cell.
		arcs := 9*nt + len(ks)
		for _, k := range ks {
			arcs += len(terms[k].Cells)
		}
		net := mcf.NewGraph(base+len(ks), arcs)
		D := t.Size()
		t.ForEachAdjacency(func(u, v, c int) {
			// Congestion steps: about half the crossing capacity at base cost
			// D (one tile of detailed routing), the rest at a premium, so
			// corridors spread across parallel routes before saturating one
			// boundary.
			fast := (c + 1) / 2
			net.AddArc(u, v, fast, D)
			net.AddArc(v, u, fast, D)
			if rest := c - fast; rest > 0 {
				net.AddArc(u, v, rest, 3*D)
				net.AddArc(v, u, rest, 3*D)
			}
		})
		// Pin drains: each tile accepts as many units as it has REACHABLE
		// candidate pins — unclaimed, unblocked, and with a free interior
		// access cell in om. A boundary pin's only way in is its single
		// interior neighbor; when a channel sits on it the pin can never
		// terminate a detailed search, and admitting it would both waste a
		// unit of global capacity and fix a search on an impossible target.
		// Pins covered by an existing channel are reachable only as
		// zero-length escapes onto a take-off; the final flat pass handles
		// those, keeping the global capacity model conservative.
		tilePins := make([][]geom.Pt, nt)
		for _, p := range pins {
			if !g.In(p) || obs.Blocked(p) || usedPin[p] {
				continue
			}
			pnbuf = g.Neighbors(p, pnbuf)
			open := false
			for _, q := range pnbuf {
				if !om.Blocked(q) {
					open = true
					break
				}
			}
			if open {
				ti := t.TileOf(p)
				tilePins[ti] = append(tilePins[ti], p)
			}
		}
		for ti := 0; ti < nt; ti++ {
			if n := len(tilePins[ti]); n > 0 {
				net.AddArc(ti, T, n, 0)
			}
		}
		// Cluster injections: S → C_q → each distinct take-off tile, priced
		// at the tile's cheapest take-off penalty (zero without Costs).
		var tl, tc []int
		for x, k := range ks {
			tm := terms[k]
			cq := base + x
			net.AddArc(S, cq, 1, 0)
			tl, tc = tl[:0], tc[:0]
			for i, c := range tm.Cells {
				if !g.In(c) {
					continue
				}
				ti := t.TileOf(c)
				cost := 0
				if tm.Costs != nil {
					cost = tm.Costs[i]
				}
				found := false
				for y := range tl {
					if tl[y] == ti {
						if cost < tc[y] {
							tc[y] = cost
						}
						found = true
						break
					}
				}
				if !found {
					tl = append(tl, ti)
					tc = append(tc, cost)
				}
			}
			for y := range tl {
				net.AddArc(cq, tl[y], 1, tc[y])
			}
		}

		net.MinCostFlow(S, T, -1)

		// Corridor extraction. Units decompose in cluster order (S's arc
		// order); each unit targets its destination tile's whole candidate-
		// pin slice — units sharing a tile share the slice read-only, and the
		// tile→T capacity bounds them by its length. Which pin a unit gets is
		// decided by its detailed search at commit time (see the package
		// comment above).
		var units []unit
		for _, nodes := range net.DecomposeUnitPaths(S, T) {
			if len(nodes) < 4 {
				continue
			}
			x := nodes[1] - base
			if x < 0 || x >= len(ks) {
				continue
			}
			dest := nodes[len(nodes)-2]
			pl := tilePins[dest]
			if len(pl) == 0 {
				continue // defensive; a pinless tile never gets a tile→T arc
			}
			corr := make([]int32, 0, len(nodes)-3)
			for _, nd := range nodes[2 : len(nodes)-1] {
				corr = append(corr, int32(nd))
			}
			units = append(units, unit{k: ks[x], corridor: corr, tgts: pl})
		}
		st.Corridors += len(units)
		return t, units
	}

	allK := make([]int, len(terms))
	for k := range allK {
		allK[k] = k
	}
	t, units := assign(work, allK, nil)
	hasUnit := make([]bool, len(terms))
	for _, u := range units {
		hasUnit[u.k] = true
	}
	var noCorr []int
	for k := range terms {
		if !hasUnit[k] {
			st.NoCorridor++
			noCorr = append(noCorr, k)
		}
	}

	inSrcs := func(k int) []geom.Pt {
		cells := terms[k].Cells
		ok := true
		for _, c := range cells {
			if !g.In(c) {
				ok = false
				break
			}
		}
		if ok {
			return cells
		}
		srcs := make([]geom.Pt, 0, len(cells))
		for _, c := range cells {
			if g.In(c) {
				srcs = append(srcs, c)
			}
		}
		return srcs
	}
	// Static seal penalties (see hierRingPenalty / hierTakeoffPenalty).
	// Integral values under scale 1 keep the requests bucket-queue certified.
	ring := make([]float64, g.Cells())
	for x := 1; x < g.W-1; x++ {
		ring[g.Index(geom.Pt{X: x, Y: 1})] = hierRingPenalty
		ring[g.Index(geom.Pt{X: x, Y: g.H - 2})] = hierRingPenalty
	}
	for y := 1; y < g.H-1; y++ {
		ring[g.Index(geom.Pt{X: 1, Y: y})] = hierRingPenalty
		ring[g.Index(geom.Pt{X: g.W - 2, Y: y})] = hierRingPenalty
	}
	var nbuf []geom.Pt
	maxHist := float64(hierRingPenalty)
	for _, tm := range terms {
		for _, c := range tm.Cells {
			if !g.In(c) {
				continue
			}
			nbuf = g.Neighbors(c, nbuf)
			for _, q := range nbuf {
				ring[g.Index(q)] += hierTakeoffPenalty
				if h := ring[g.Index(q)]; h > maxHist {
					maxHist = h
				}
			}
		}
	}

	// Per-unit sources and corridor masks, kept for the refinement pass.
	type unitPrep struct {
		srcs       []geom.Pt
		mask, wide *route.TileMask
	}
	prep := make([]unitPrep, len(units))
	for i := range units {
		u := units[i]
		prep[i] = unitPrep{
			srcs: inSrcs(u.k),
			mask: t.BuildMask(u.corridor, 1),
			wide: t.BuildMask(u.corridor, 3),
		}
	}

	res := &Result{
		Paths: make(map[int]grid.Path),
		Pins:  make(map[int]geom.Pt),
	}
	usedPin := make(map[geom.Pt]bool, len(units))
	att := work.Clone()

	// ladder searches req (sources, targets, seal penalties) on att inside
	// the corridor mask, then inside the widened mask on a miss, counting
	// which rung answered.
	ladder := func(req route.Request, mask, wide *route.TileMask) (grid.Path, bool) {
		req.Obs = att
		req.Mask = mask
		if p, ok := ws.AStar(g, req); ok {
			st.CorridorHits++
			return p, true
		}
		req.Mask = wide
		st.Widened++
		return ws.AStar(g, req)
	}
	penalized := func(srcs, tgts []geom.Pt) route.Request {
		return route.Request{
			Sources: srcs, Targets: tgts,
			Hist: ring, HistScale: 1, HistMax: 1 + int64(maxHist),
		}
	}

	// Detail pass, in cluster order: each unit climbs the corridor →
	// widened ladder and its path joins att before the next unit searches.
	// Units that fail both rungs go to the repair loop below instead of
	// searching the whole grid.
	var failedK []int // terminal indices, in routing order
	for i, u := range units {
		pr := &prep[i]
		p, ok := ladder(penalized(pr.srcs, u.tgts), pr.mask, pr.wide)
		if !ok {
			failedK = append(failedK, u.k)
			continue
		}
		att.SetPath(p, true)
		pin := p[len(p)-1]
		if usedPin[pin] {
			// Defensive: a taken pin's access cell is occupied by its
			// taker's path, so a search on att cannot end on it; kept as a
			// cheap guard against a future multi-access-pin geometry.
			failedK = append(failedK, u.k)
			continue
		}
		id := terms[u.k].ClusterID
		res.Paths[id] = p
		res.Pins[id] = pin
		res.TotalLen += p.Len()
		usedPin[pin] = true
	}

	// Repair loop: re-run the global stage on the committed state for the
	// failures (including the clusters the first solve left corridor-less —
	// capacity freed up by the flat map's consumption pattern may cover them
	// now), route the fresh corridors sequentially in terminal order, and
	// stop as soon as a round places nothing.
	failedK = append(failedK, noCorr...)
	sort.Ints(failedK)
	for round := 0; len(failedK) > 0 && round < hierRepairRounds; round++ {
		rt, runits := assign(att, failedK, usedPin)
		if len(runits) == 0 {
			break
		}
		st.Repaired++
		placed := make(map[int]bool, len(runits))
		for _, u := range runits {
			p, ok := ladder(penalized(inSrcs(u.k), u.tgts),
				rt.BuildMask(u.corridor, 1), rt.BuildMask(u.corridor, 3))
			if !ok {
				continue
			}
			pin := p[len(p)-1]
			if usedPin[pin] {
				continue // defensive, as in the detail pass
			}
			id := terms[u.k].ClusterID
			res.Paths[id] = p
			res.Pins[id] = pin
			res.TotalLen += p.Len()
			usedPin[pin] = true
			att.SetPath(p, true)
			placed[u.k] = true
		}
		if len(placed) == 0 {
			break
		}
		rest := failedK[:0]
		for _, k := range failedK {
			if !placed[k] {
				rest = append(rest, k)
			}
		}
		failedK = rest
	}

	// Final flat pass, in terminal order: whatever the repair rounds could
	// not place searches the whole grid for any still-unused pin (including
	// blocked take-off pins — the zero-length escapes the global capacity
	// model excluded). Sequential by construction: each routed path
	// immediately blocks its cells for the next.
	for _, k := range failedK {
		var tgts []geom.Pt
		for _, p := range pins {
			if g.In(p) && !usedPin[p] && (!obs.Blocked(p) || takeoff[p]) {
				tgts = append(tgts, p)
			}
		}
		st.FlatFallbacks++
		p, ok := ws.AStar(g, route.Request{
			Sources: inSrcs(k), Targets: tgts, Obs: att,
		})
		if !ok {
			continue
		}
		id := terms[k].ClusterID
		pin := p[len(p)-1]
		res.Paths[id] = p
		res.Pins[id] = pin
		res.TotalLen += p.Len()
		usedPin[pin] = true
		att.SetPath(p, true)
	}

	// Refinement: the seal penalties buy routability during the greedy commit
	// but leave every path carrying their detours. With the full assignment
	// known, sealing no longer matters — rip each unit's path in turn and
	// re-route it penalty-free to its assigned pin against everything else,
	// keeping the shorter result. One pass recovers most of the greedy
	// stage's length overhead (the detour stage downstream needs the freed
	// cells for length matching). The pin stays fixed, so the pin bookkeeping
	// is untouched; clusters routed by a repair round or the flat pass refine
	// too (within their original corridor's widened mask, then unmasked),
	// their old path guaranteeing the re-search can only improve.
	for i := range units {
		u := units[i]
		id := terms[u.k].ClusterID
		pin, ok := res.Pins[id]
		if !ok || !usedPin[pin] {
			continue
		}
		old := res.Paths[id]
		if len(old) < 3 {
			continue
		}
		for _, c := range old {
			att.Set(c, work.Blocked(c))
		}
		pr := &prep[i]
		req := route.Request{
			Sources: pr.srcs, Targets: []geom.Pt{pin}, Obs: att,
			Mask: pr.wide,
		}
		p, ok := ws.AStar(g, req)
		if !ok {
			req.Mask = nil
			p, ok = ws.AStar(g, req)
		}
		if ok && p.Len() < old.Len() {
			st.Refined++
			res.TotalLen += p.Len() - old.Len()
			res.Paths[id] = p
			att.SetPath(p, true)
		} else {
			att.SetPath(old, true)
		}
	}

	for _, tm := range terms {
		if _, ok := res.Paths[tm.ClusterID]; !ok {
			res.Unrouted = append(res.Unrouted, tm.ClusterID)
		}
	}
	sort.Ints(res.Unrouted)
	return res, st
}
