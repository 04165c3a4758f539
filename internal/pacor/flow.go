package pacor

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/detour"
	"repro/internal/dme"
	"repro/internal/escape"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mstroute"
	"repro/internal/route"
	"repro/internal/seltree"
	"repro/internal/valve"
)

// cluster kinds
const (
	kindTree = iota // LM cluster with >= 3 valves: DME Steiner tree
	kindPair        // LM cluster with exactly 2 valves: direct edge + middle tap
	kindOrd         // ordinary cluster: MST routing, free take-off
)

// flowCluster is the mutable per-cluster state of one flow run.
type flowCluster struct {
	id     int
	valves []int
	lm     bool
	kind   int

	tree  *dme.Tree
	cands []*dme.Tree // candidate trees (kindTree only)
	net   *detour.Net
	// paths are the cluster-internal channel segments. For LM clusters this
	// aliases net.Segments.
	paths []grid.Path

	demoted bool
	// relaxTap frees the escape take-off to any channel cell of an LM
	// cluster whose preferred tap (tree root / pair middle) is unreachable;
	// the net is re-rooted at the chosen take-off afterwards, keeping the
	// length-matching constraint alive.
	relaxTap bool
	routed   bool
	escape   grid.Path
	pin      geom.Pt
}

func (fc *flowCluster) positions(d *valve.Design) []geom.Pt {
	pts := make([]geom.Pt, len(fc.valves))
	for i, v := range fc.valves {
		pts[i] = d.Valves[v].Pos
	}
	return pts
}

// Route runs the full PACOR flow on the design.
func Route(d *valve.Design, params Params) (*Result, error) {
	start := time.Now()
	if err := d.Validate(); err != nil {
		return nil, err
	}
	g := grid.New(d.W, d.H)
	obs := grid.NewObsMap(g)
	for _, o := range d.Obstacles {
		obs.Set(o, true)
	}
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
	// Every stage of the flow searches on this one workspace.
	ws := route.NewWorkspace(g)

	stageTimes := map[string]time.Duration{}
	stage := func(name string, since time.Time) {
		stageTimes[name] += time.Since(since)
	}

	// Stage 1: valve clustering (Figure 2).
	t0 := time.Now()
	part := cluster.Partition(d)
	var fcs []*flowCluster
	for _, c := range part.Clusters {
		fc := &flowCluster{id: c.ID, valves: c.Valves, lm: c.LM}
		switch {
		case c.LM && len(c.Valves) >= 3:
			fc.kind = kindTree
		case c.LM && len(c.Valves) == 2:
			fc.kind = kindPair
		default:
			fc.kind = kindOrd
		}
		fcs = append(fcs, fc)
	}

	stage("clustering", t0)

	// Stage 2: length-matching cluster routing. Every negotiation call of the
	// run accumulates its work counters into one stats record.
	var negStats route.NegotiateStats
	t0 = time.Now()
	routeLMClusters(ws, d, obs, fcs, params, &negStats)

	// Repair pass: re-realize badly routed trees (the paper reconstructs the
	// DME tree when negotiation exceeds its iteration bound; congested
	// realizations with hopeless spreads get the same treatment here).
	refineLMClusters(ws, d, obs, fcs, params, &negStats)
	stage("lmrouting", t0)

	// Detour-first variant matches lengths before escape routing.
	if params.Mode == ModeDetourFirst {
		t0 = time.Now()
		matchAll(ws, obs, fcs, d.Delta)
		stage("detour", t0)
	}

	// Stage 3: MST routing for ordinary (and demoted) clusters.
	t0 = time.Now()
	fcs = routeOrdinary(ws, d, obs, fcs)
	stage("mstrouting", t0)

	// Stage 4: escape routing with de-clustering retries.
	t0 = time.Now()
	var escHier route.HierStats
	fcs = escapeRoute(ws, d, obs, fcs, params, &escHier)
	stage("escape", t0)

	// Stage 5: final path detouring (PACOR and w/o Sel variants).
	if params.Mode != ModeDetourFirst {
		t0 = time.Now()
		matchAll(ws, obs, fcs, d.Delta)
		stage("detour", t0)
	}

	res := assemble(d, fcs, params.Mode, time.Since(start))
	res.StageTimes = stageTimes
	res.Negotiate = negStats
	res.EscapeHier = escHier
	return res, nil
}

// routeLMClusters computes candidate trees, selects one per cluster (per
// mode), and routes all LM clusters jointly with negotiation. Clusters whose
// edges cannot all be routed are demoted to ordinary MST routing.
func routeLMClusters(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, params Params, negStats *route.NegotiateStats) {
	var treeClusters []*flowCluster
	var cands [][]*dme.Tree
	for _, fc := range fcs {
		if fc.kind != kindTree {
			continue
		}
		cs := dme.Candidates(obs, fc.positions(d), params.MaxCandidates)
		if len(cs) == 0 {
			fc.demoted = true
			fc.kind = kindOrd
			continue
		}
		treeClusters = append(treeClusters, fc)
		cands = append(cands, cs)
	}

	// Candidate selection (Section 4.2). "w/o Sel" takes the first.
	picks := make([]int, len(cands))
	if params.Mode != ModeWithoutSelection && len(cands) > 0 {
		cfg := seltree.DefaultConfig()
		cfg.Lambda = params.Lambda
		cfg.Solver = params.Solver
		if p, err := seltree.Select(cands, cfg); err == nil {
			picks = p
		}
	}
	for i, fc := range treeClusters {
		fc.cands = cands[i]
		fc.tree = cands[i][picks[i]]
	}
	resolveNodeCollisions(d, treeClusters)

	// Negotiation-based routing (Algorithm 1) over all LM edges at once.
	const edgeStride = 1 << 12
	var edges []route.Edge
	for _, fc := range fcs {
		switch fc.kind {
		case kindTree:
			for ei, e := range fc.tree.Edges() {
				edges = append(edges, route.Edge{
					ID:      fc.id*edgeStride + ei,
					Sources: []geom.Pt{e.From},
					Targets: []geom.Pt{e.To},
				})
			}
		case kindPair:
			pts := fc.positions(d)
			edges = append(edges, route.Edge{
				ID:      fc.id * edgeStride,
				Sources: []geom.Pt{pts[0]},
				Targets: []geom.Pt{pts[1]},
			})
		}
	}
	if len(edges) == 0 {
		return
	}
	// Only this call carries the cross-run seed and capture (routeSolo
	// clears them for rescue and refinement).
	paths, _ := ws.Negotiate(obs, edges, params.Negotiate, negStats)

	// First pass: commit every completely routed cluster, so the rescue
	// pass below sees the full environment.
	var incompleteTrees []*flowCluster
	for _, fc := range fcs {
		switch fc.kind {
		case kindTree:
			treeEdges := fc.tree.Edges()
			segs := make([]grid.Path, len(treeEdges))
			complete := true
			for ei := range treeEdges {
				p, ok := paths[fc.id*edgeStride+ei]
				if !ok {
					complete = false
					break
				}
				segs[ei] = p
			}
			if !complete {
				incompleteTrees = append(incompleteTrees, fc)
				continue
			}
			for _, p := range segs {
				obs.SetPath(p, true)
			}
			fc.net = netFromTree(fc.tree, segs)
			fc.paths = fc.net.Segments
		case kindPair:
			p, ok := paths[fc.id*edgeStride]
			if !ok {
				fc.demoted = true
				fc.kind = kindOrd
				continue
			}
			obs.SetPath(p, true)
			fc.net = netFromPair(p)
			fc.paths = fc.net.Segments
		}
	}
	// Rescue pass: a cluster whose selected candidate could not be realized
	// jointly tries its remaining candidates solo against the committed
	// environment before giving up the LM constraint (the paper reconstructs
	// the DME tree when negotiation exhausts its iterations).
	for _, fc := range incompleteTrees {
		if !rescueTreeCluster(ws, obs, fc, params, negStats) {
			fc.demoted = true
			fc.kind = kindOrd
			fc.tree = nil
		}
	}
}

// rescueTreeCluster tries every candidate of an unrealized tree cluster
// solo against the current obstacle map, committing the first that routes
// completely. Returns false when no candidate routes.
func rescueTreeCluster(ws *route.Workspace, obs *grid.ObsMap, fc *flowCluster, params Params, negStats *route.NegotiateStats) bool {
	for _, cand := range fc.cands {
		segs := routeSolo(ws, obs, cand, params.Negotiate, negStats)
		if segs == nil {
			continue
		}
		for _, p := range segs {
			obs.SetPath(p, true)
		}
		fc.tree = cand
		fc.net = netFromTree(cand, segs)
		fc.paths = fc.net.Segments
		return true
	}
	return false
}

// routeSolo negotiates the edges of candidate tree cand alone on obs and
// returns their paths in edge order, or nil when the candidate does not
// route. A candidate whose internal nodes sit on other clusters' channels
// (or valves) would route into them, so it is skipped without a search.
// The cross-run seed and capture belong to the main negotiation call, so
// they are cleared here.
func routeSolo(ws *route.Workspace, obs *grid.ObsMap, cand *dme.Tree, np route.NegotiateParams, negStats *route.NegotiateStats) []grid.Path {
	for ni, nd := range cand.Topo.Nodes {
		if nd.Sink < 0 && obs.Blocked(cand.Pos[ni]) {
			return nil
		}
	}
	var edges []route.Edge
	for ei, e := range cand.Edges() {
		edges = append(edges, route.Edge{
			ID: ei, Sources: []geom.Pt{e.From}, Targets: []geom.Pt{e.To}})
	}
	np.Seed, np.Capture = nil, nil
	paths, ok := ws.Negotiate(obs, edges, np, negStats)
	if !ok {
		return nil
	}
	segs := make([]grid.Path, len(edges))
	for ei := range edges {
		segs[ei] = paths[ei]
	}
	return segs
}

// resolveNodeCollisions makes the selected trees' internal node positions
// pairwise distinct (and distinct from every valve): two clusters embedding
// a merging node on the same free cell would otherwise both route channels
// into it. Clusters keep their selected candidate when possible and fall
// back to the first collision-free alternative.
func resolveNodeCollisions(d *valve.Design, treeClusters []*flowCluster) {
	used := make(map[geom.Pt]bool, len(d.Valves))
	for _, v := range d.Valves {
		used[v.Pos] = true
	}
	nodesOf := func(t *dme.Tree) []geom.Pt {
		var out []geom.Pt
		for ni, nd := range t.Topo.Nodes {
			if nd.Sink < 0 {
				out = append(out, t.Pos[ni])
			}
		}
		return out
	}
	conflicts := func(t *dme.Tree) bool {
		for _, p := range nodesOf(t) {
			if used[p] {
				return true
			}
		}
		return false
	}
	for _, fc := range treeClusters {
		if conflicts(fc.tree) {
			for _, cand := range fc.cands {
				if !conflicts(cand) {
					fc.tree = cand
					break
				}
			}
			// All candidates collide: keep the selection; the negotiation
			// router will fail the colliding edges and demote the cluster,
			// which is the safe outcome.
		}
		for _, p := range nodesOf(fc.tree) {
			used[p] = true
		}
	}
}

// refineLMClusters re-routes tree clusters whose realized spread exceeds
// delta, alone against the fixed environment: own channels are ripped and
// every candidate tree (only the already-selected one in "w/o Sel" mode) is
// re-routed solo; the realization with the smallest (spread, length) wins.
func refineLMClusters(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, params Params, negStats *route.NegotiateStats) {
	allowSwitch := params.Mode != ModeWithoutSelection
	for _, fc := range fcs {
		if fc.kind != kindTree || fc.net == nil || fc.demoted {
			continue
		}
		mn, mx := fc.net.Spread()
		if mx-mn <= d.Delta {
			continue
		}
		bestSpread, bestLen := mx-mn, netLen(fc.net)
		var bestTree *dme.Tree
		var bestNet *detour.Net

		base := obs.Clone()
		for _, p := range fc.paths {
			base.SetPath(p, false)
		}
		remarkValves(d, base)

		cands := fc.cands
		if !allowSwitch {
			cands = []*dme.Tree{fc.tree}
		}
		for _, cand := range cands {
			segs := routeSolo(ws, base, cand, params.Negotiate, negStats)
			if segs == nil {
				continue
			}
			net := netFromTree(cand, segs)
			nmn, nmx := net.Spread()
			if nmx-nmn < bestSpread || (nmx-nmn == bestSpread && netLen(net) < bestLen) {
				bestSpread, bestLen = nmx-nmn, netLen(net)
				bestTree, bestNet = cand, net
			}
		}
		if bestNet == nil {
			continue
		}
		for _, p := range fc.paths {
			obs.SetPath(p, false)
		}
		remarkValves(d, obs)
		for _, p := range bestNet.Segments {
			obs.SetPath(p, true)
		}
		fc.tree = bestTree
		fc.net = bestNet
		fc.paths = bestNet.Segments
	}
}

// netLen sums a net's channel length.
func netLen(n *detour.Net) int {
	total := 0
	for _, s := range n.Segments {
		total += s.Len()
	}
	return total
}

// netFromTree converts a routed DME tree into a detour net: one segment per
// tree edge, full paths walking leaf -> root (Definitions 5-6).
func netFromTree(tr *dme.Tree, segs []grid.Path) *detour.Net {
	edges := tr.Edges()
	parentEdge := make(map[int]int, len(edges))
	for i, e := range edges {
		parentEdge[e.Child] = i
	}
	leafOf := make(map[int]int)
	for ni, nd := range tr.Topo.Nodes {
		if nd.Sink >= 0 {
			leafOf[nd.Sink] = ni
		}
	}
	net := &detour.Net{Segments: segs, FullPaths: make([][]int, len(tr.Sinks))}
	for s := range tr.Sinks {
		node := leafOf[s]
		var fp []int
		for node != tr.Topo.Root {
			ei := parentEdge[node]
			fp = append(fp, ei)
			node = edges[ei].Parent
		}
		net.FullPaths[s] = fp
	}
	return net
}

// netFromPair splits a two-valve path at its middle cell (the escape
// take-off, per Section 5) into two arm segments.
func netFromPair(p grid.Path) *detour.Net {
	mid := len(p) / 2
	arm0 := p[:mid+1].Clone()
	// Arm 1 runs valve -> tap, mirroring arm 0's orientation.
	arm1 := p[mid:].Clone().Reverse()
	return &detour.Net{
		Segments:  []grid.Path{arm0, arm1},
		FullPaths: [][]int{{0}, {1}},
	}
}

// tap returns the LM cluster's escape take-off cell.
func (fc *flowCluster) tapCell() geom.Pt {
	if fc.kind == kindTree {
		return fc.tree.Root()
	}
	// Pair: both arms end at the tap.
	arm := fc.net.Segments[0]
	return arm[len(arm)-1]
}

// matchAll runs Algorithm 2 on every intact LM cluster.
func matchAll(ws *route.Workspace, obs *grid.ObsMap, fcs []*flowCluster, delta int) {
	for _, fc := range fcs {
		if fc.net == nil || fc.demoted {
			continue
		}
		detour.Match(ws, obs, fc.net, delta)
		fc.paths = fc.net.Segments
	}
}

// routeOrdinary routes every ordinary cluster with MST + A*, de-clustering
// on failure (Figure 2's "Declustering" box). It may append new clusters
// (split halves) and returns the updated slice.
//
// The clusters form a FIFO queue: a cluster that fails commits nothing
// (routeMST) and its two split halves join the back of the queue, behind
// every cluster still waiting.
func routeOrdinary(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster) []*flowCluster {
	queue := make([]*flowCluster, 0, len(fcs))
	for _, fc := range fcs {
		if fc.kind == kindOrd {
			queue = append(queue, fc)
		}
	}
	// Larger clusters first: they need the most contiguous free space.
	sort.SliceStable(queue, func(i, j int) bool {
		return len(queue[i].valves) > len(queue[j].valves)
	})
	nextID := 0
	for _, fc := range fcs {
		if fc.id >= nextID {
			nextID = fc.id + 1
		}
	}
	for len(queue) > 0 {
		fc := queue[0]
		queue = queue[1:]
		if len(fc.valves) <= 1 { // singletons have no internal channels
			continue
		}
		if paths, ok := routeMST(ws, obs, fc.positions(d)); ok {
			fc.paths = paths
			continue
		}
		// De-cluster: split spatially and retry the halves later.
		halves := cluster.Split(d, cluster.Cluster{ID: fc.id, Valves: fc.valves})
		if len(halves) < 2 {
			continue
		}
		fc.valves = halves[0].Valves
		fc.demoted = true
		other := &flowCluster{id: nextID, valves: halves[1].Valves, kind: kindOrd, demoted: true}
		nextID++
		fcs = append(fcs, other)
		queue = append(queue, fc, other)
	}
	return fcs
}

// routeMST routes one cluster's MST channels (mstroute.RouteCluster)
// directly on obs. On success obs carries exactly the returned paths. A
// cluster that cannot attach every valve commits nothing: its partial paths
// are rewound through obs's change journal, leaving obs as it was.
func routeMST(ws *route.Workspace, obs *grid.ObsMap, pos []geom.Pt) ([]grid.Path, bool) {
	var res *mstroute.Result
	ok := false
	obs.Journal(nil, func() {
		if res, ok = mstroute.RouteCluster(ws, obs, pos); !ok {
			obs.RewindJournal(0)
		}
	})
	if !ok {
		return nil, false
	}
	return res.Paths, true
}

// escapeRoute connects every cluster to a control pin via min-cost flow,
// retrying per the paper's de-clustering and path rip-up stage: an unrouted
// LM cluster first loses its root-only take-off restriction (demotion, the
// cheap rip-up), an unrouted multi-valve cluster is split into bare-valve
// singletons, and a trapped singleton triggers rip-up of the blocking
// clusters' channels: the trapped valve's escape is committed first and the
// blockers' internal channels re-route around it.
func escapeRoute(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, params Params, escHier *route.HierStats) []*flowCluster {
	byID := func() map[int]*flowCluster {
		m := make(map[int]*flowCluster, len(fcs))
		for _, fc := range fcs {
			m[fc.id] = fc
		}
		return m
	}
	nextID := 0
	for _, fc := range fcs {
		if fc.id >= nextID {
			nextID = fc.id + 1
		}
	}
	// Escapes committed early by rip-up (already marked in obs).
	committed := map[int]grid.Path{}
	usedPins := map[geom.Pt]bool{}

	var res *escape.Result
	for round := 0; round < escapeRetries; round++ {
		terms := buildTerminals(d, fcs, committed)
		var pins []geom.Pt
		for _, p := range d.Pins {
			if !usedPins[p] {
				pins = append(pins, p)
			}
		}
		if params.Hier.On(obs.Grid().Cells()) {
			var hs route.HierStats
			res, hs = escape.RouteHier(ws, obs, terms, pins)
			escHier.Add(hs)
		} else {
			res = escape.Route(obs, terms, pins)
		}
		if len(res.Unrouted) == 0 {
			break
		}
		if round == escapeRetries-1 {
			break
		}
		m := byID()
		progress := false
		var trapped []*flowCluster
		for _, id := range res.Unrouted {
			fc := m[id]
			if fc == nil {
				continue
			}
			if (fc.kind == kindTree || fc.kind == kindPair) && !fc.demoted && !fc.relaxTap {
				// Cheap relaxation: free take-off anywhere on the channels;
				// the net re-roots at the chosen cell, so matching survives.
				fc.relaxTap = true
				progress = true
				continue
			}
			if len(fc.valves) > 1 {
				// Split into bare singletons with internals ripped.
				for _, p := range fc.paths {
					obs.SetPath(p, false)
				}
				remarkValves(d, obs)
				fc.paths = nil
				fc.net = nil
				fc.tree = nil
				fc.kind = kindOrd
				fc.demoted = true
				rest := fc.valves[1:]
				fc.valves = fc.valves[:1]
				for _, v := range rest {
					fcs = append(fcs, &flowCluster{
						id: nextID, valves: []int{v}, kind: kindOrd, demoted: true,
					})
					nextID++
				}
				progress = true
				continue
			}
			trapped = append(trapped, fc)
		}
		if len(trapped) > 0 && ripAndCommit(ws, d, obs, &fcs, &nextID, trapped, usedPins, committed) {
			progress = true
		}
		if !progress {
			break
		}
	}
	// Commit the final assignment.
	m := byID()
	for id, p := range res.Paths {
		fc := m[id]
		if fc == nil {
			continue
		}
		fc.routed = true
		fc.escape = p
		fc.pin = res.Pins[id]
		obs.SetPath(p, true)
	}
	for id, p := range committed {
		fc := m[id]
		if fc == nil {
			continue
		}
		fc.routed = true
		fc.escape = p
		fc.pin = p[len(p)-1]
	}
	// Re-root LM nets whose escape took off away from the preferred tap.
	for _, fc := range fcs {
		if !fc.routed || fc.net == nil || fc.demoted || len(fc.escape) == 0 {
			continue
		}
		takeoff := fc.escape[0]
		if takeoff == fc.tapCell() {
			continue
		}
		var rerooted *detour.Net
		if fc.kind == kindTree {
			rerooted = rerootTreeNet(fc.tree, fc.net, takeoff)
		} else if fc.kind == kindPair {
			rerooted = rerootPairNet(fc.net, takeoff)
		}
		if rerooted == nil {
			// Take-off off the net (should not happen): abandon matching.
			fc.demoted = true
			continue
		}
		fc.net = rerooted
		fc.paths = rerooted.Segments
	}
	return fcs
}

// ripAndCommit frees trapped clusters by ripping the channels that seal
// them in (identified by flood fill from their take-offs), committing each
// trapped cluster's escape directly, and only then re-routing every ripped
// cluster's internal channels around the committed escapes — rerouting
// earlier could re-enclose a later trapped valve. Ordinary blockers are
// ripped before intact LM blockers (the paper's "higher rip-up cost" for
// LM clusters). Returns true when at least one escape was committed.
func ripAndCommit(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcsp *[]*flowCluster, nextID *int,
	trapped []*flowCluster, usedPins map[geom.Pt]bool, committed map[int]grid.Path) bool {
	g := obs.Grid()
	owner := map[geom.Pt]*flowCluster{}
	for _, fc := range *fcsp {
		for _, p := range fc.paths {
			for _, c := range p {
				owner[c] = fc
			}
		}
		// Escapes committed in earlier rounds also seal space; they can be
		// ripped and re-routed by a later flow round.
		if ce, ok := committed[fc.id]; ok {
			for _, c := range ce {
				owner[c] = fc
			}
		}
	}
	rippedSet := map[*flowCluster]bool{}
	var ripped []*flowCluster
	rip := func(b *flowCluster) {
		if rippedSet[b] {
			return
		}
		rippedSet[b] = true
		ripped = append(ripped, b)
		for _, p := range b.paths {
			obs.SetPath(p, false)
		}
		if ce, ok := committed[b.id]; ok {
			obs.SetPath(ce, false)
			delete(usedPins, ce[len(ce)-1])
			delete(committed, b.id)
		}
		// Ripped paths start/end on valve cells; those must stay blocked.
		remarkValves(d, obs)
	}
	anyCommitted := false
	for _, tc := range trapped {
		takeoffs := tc.takeoffs(d)
		blockers := findBlockers(obs, takeoffs, owner, tc)
		// LM-intact blockers last: ripping them forfeits their matching.
		sort.SliceStable(blockers, func(i, j int) bool {
			li := (blockers[i].kind == kindTree || blockers[i].kind == kindPair) && !blockers[i].demoted
			lj := (blockers[j].kind == kindTree || blockers[j].kind == kindPair) && !blockers[j].demoted
			if li != lj {
				return !li
			}
			return len(blockers[i].valves) < len(blockers[j].valves)
		})
		tryEscape := func() bool {
			var freePins []geom.Pt
			for _, p := range d.Pins {
				if !usedPins[p] && !obs.Blocked(p) {
					freePins = append(freePins, p)
				}
			}
			path, ok := ws.AStar(g, route.Request{
				Sources: takeoffs,
				Targets: freePins,
				Obs:     obs,
			})
			if !ok {
				return false
			}
			obs.SetPath(path, true)
			committed[tc.id] = path
			usedPins[path[len(path)-1]] = true
			anyCommitted = true
			return true
		}
		if tryEscape() {
			continue // earlier rips already freed this valve
		}
		for _, b := range blockers {
			rip(b)
			if tryEscape() {
				break
			}
		}
	}
	// Re-route every ripped cluster around the committed escapes.
	rerouteRipped(ws, d, obs, fcsp, nextID, ripped)
	return anyCommitted || len(ripped) > 0
}

// buildTerminals assembles the escape terminals for every not-yet-committed
// cluster, in cluster order.
func buildTerminals(d *valve.Design, fcs []*flowCluster, committed map[int]grid.Path) []escape.Terminal {
	var terms []escape.Terminal
	for _, fc := range fcs {
		if _, done := committed[fc.id]; done {
			continue
		}
		cells := fc.takeoffs(d)
		terms = append(terms, escape.Terminal{
			ClusterID: fc.id,
			Cells:     cells,
			Costs:     fc.takeoffCosts(d, cells),
		})
	}
	return terms
}

// remarkValves re-blocks every valve cell (rip-up unmarks whole paths,
// including their valve endpoints).
func remarkValves(d *valve.Design, obs *grid.ObsMap) {
	for _, v := range d.Valves {
		obs.Set(v.Pos, true)
	}
}

// findBlockers flood-fills free cells from the take-offs and returns the
// distinct clusters owning the channel cells on the region's border,
// nearest-contact first.
func findBlockers(obs *grid.ObsMap, takeoffs []geom.Pt, owner map[geom.Pt]*flowCluster,
	self *flowCluster) []*flowCluster {
	g := obs.Grid()
	seen := map[geom.Pt]bool{}
	queue := append([]geom.Pt(nil), takeoffs...)
	for _, c := range takeoffs {
		seen[c] = true
	}
	contact := map[*flowCluster]int{}
	var order []*flowCluster
	var nbuf []geom.Pt
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		nbuf = g.Neighbors(p, nbuf)
		for _, q := range nbuf {
			if seen[q] {
				continue
			}
			seen[q] = true
			if obs.Blocked(q) {
				if fc := owner[q]; fc != nil && fc != self {
					if contact[fc] == 0 {
						order = append(order, fc)
					}
					contact[fc]++
				}
				continue
			}
			queue = append(queue, q)
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		return contact[order[i]] > contact[order[j]]
	})
	return order
}

// rerouteRipped re-routes the ripped clusters' internal channels with MST
// (their LM structure, if any, is forfeited — the paper's rip-up cost), one
// by one in rip order. When even MST routing fails, a cluster splits into
// bare singletons so that every valve can still escape on its own.
func rerouteRipped(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcsp *[]*flowCluster, nextID *int, ripped []*flowCluster) {
	for _, fc := range ripped {
		fc.net = nil
		fc.tree = nil
		fc.kind = kindOrd
		fc.demoted = true
		fc.paths = nil
		if len(fc.valves) <= 1 {
			continue
		}
		if paths, ok := routeMST(ws, obs, fc.positions(d)); ok {
			fc.paths = paths
			continue
		}
		rest := fc.valves[1:]
		fc.valves = fc.valves[:1]
		for _, v := range rest {
			*fcsp = append(*fcsp, &flowCluster{
				id: *nextID, valves: []int{v}, kind: kindOrd, demoted: true,
			})
			*nextID++
		}
	}
}

// takeoffs returns the cluster's permitted escape take-off cells.
func (fc *flowCluster) takeoffs(d *valve.Design) []geom.Pt {
	if (fc.kind == kindTree || fc.kind == kindPair) && !fc.demoted && fc.net != nil && !fc.relaxTap {
		return []geom.Pt{fc.tapCell()}
	}
	var cells []geom.Pt
	seen := map[geom.Pt]bool{}
	add := func(p geom.Pt) {
		if !seen[p] {
			seen[p] = true
			cells = append(cells, p)
		}
	}
	for _, v := range fc.valves {
		add(d.Valves[v].Pos)
	}
	for _, p := range fc.paths {
		for _, c := range p {
			add(c)
		}
	}
	return cells
}

// takeoffCosts returns per-cell take-off penalties: for an LM cluster with a
// relaxed tap, taking off at cell X re-roots the net at X, so the penalty is
// proportional to the resulting length spread (max-min tree distance from
// the valves to X). Ordinary clusters take off anywhere for free.
func (fc *flowCluster) takeoffCosts(d *valve.Design, cells []geom.Pt) []int {
	if fc.net == nil || fc.demoted || !fc.relaxTap {
		return nil
	}
	spread := netCellSpread(fc.net, fc.positions(d))
	costs := make([]int, len(cells))
	for i, c := range cells {
		if sp, ok := spread[c]; ok {
			// Weight 2: one unit of spread typically costs ~1 unit of later
			// detour wirelength per affected arm; bias the flow toward
			// low-spread take-offs without making completion impossible.
			costs[i] = 2 * sp
		}
	}
	return costs
}

// netCellSpread computes, for every channel cell of the net, the spread
// (max-min) of tree distances from the given leaves to that cell.
func netCellSpread(net *detour.Net, leaves []geom.Pt) map[geom.Pt]int {
	// Cell-level adjacency of the net's channel tree: consecutive segment
	// cells are adjacent; junction cells coincide across segments.
	adj := map[geom.Pt][]geom.Pt{}
	for _, seg := range net.Segments {
		for i := 1; i < len(seg); i++ {
			adj[seg[i-1]] = append(adj[seg[i-1]], seg[i])
			adj[seg[i]] = append(adj[seg[i]], seg[i-1])
		}
	}
	var mn, mx map[geom.Pt]int
	for _, leaf := range leaves {
		dist := map[geom.Pt]int{leaf: 0}
		queue := []geom.Pt{leaf}
		for len(queue) > 0 {
			c := queue[0]
			queue = queue[1:]
			for _, q := range adj[c] {
				if _, seen := dist[q]; !seen {
					dist[q] = dist[c] + 1
					queue = append(queue, q)
				}
			}
		}
		if mn == nil {
			mn = map[geom.Pt]int{}
			mx = map[geom.Pt]int{}
			for c, v := range dist {
				mn[c], mx[c] = v, v
			}
			continue
		}
		for c, v := range dist {
			if cur, ok := mn[c]; !ok || v < cur {
				mn[c] = v
			}
			if cur, ok := mx[c]; !ok || v > cur {
				mx[c] = v
			}
		}
	}
	out := make(map[geom.Pt]int, len(mx))
	for c := range mx {
		out[c] = mx[c] - mn[c]
	}
	return out
}

// assemble builds the public Result.
func assemble(d *valve.Design, fcs []*flowCluster, mode Mode, runtime time.Duration) *Result {
	r := &Result{Mode: mode, Runtime: runtime, TotalValves: len(d.Valves)}
	for _, fc := range fcs {
		cr := ClusterResult{
			ID:      fc.id,
			Valves:  fc.valves,
			LM:      fc.lm,
			Demoted: fc.demoted,
			Routed:  fc.routed,
			Paths:   fc.paths,
			Escape:  fc.escape,
			Pin:     fc.pin,
		}
		if fc.net != nil && !fc.demoted {
			cr.FullLens = make([]int, len(fc.net.FullPaths))
			for i := range fc.net.FullPaths {
				cr.FullLens[i] = fc.net.FullLen(i)
			}
			cr.Matched = fc.routed && fc.net.Matched(d.Delta)
		}
		if len(fc.valves) >= 2 {
			r.MultiClusters++
		}
		if cr.Matched && len(fc.valves) >= 2 {
			r.MatchedClusters++
			r.MatchedLen += cr.TotalLen()
		}
		r.TotalLen += cr.TotalLen()
		if fc.routed {
			r.RoutedValves += len(fc.valves)
		}
		r.Clusters = append(r.Clusters, cr)
	}
	sort.Slice(r.Clusters, func(i, j int) bool { return r.Clusters[i].ID < r.Clusters[j].ID })
	return r
}

// Verify checks the solution's design rules: every cluster valve in the
// design, every channel cell on-grid, no two channels of different clusters
// sharing a cell, no channel on an obstacle or foreign valve, every routed
// cluster's channels connected to its pin. It returns an error describing
// the first violation.
func Verify(d *valve.Design, r *Result) error {
	for ci := range r.Clusters {
		for _, v := range r.Clusters[ci].Valves {
			if v < 0 || v >= len(d.Valves) {
				return fmt.Errorf("cluster %d: valve %d not in design", r.Clusters[ci].ID, v)
			}
		}
	}
	g := grid.New(d.W, d.H)
	static := grid.NewObsMap(g)
	for _, o := range d.Obstacles {
		static.Set(o, true)
	}
	valveOwner := map[geom.Pt]int{}
	for ci := range r.Clusters {
		for _, v := range r.Clusters[ci].Valves {
			valveOwner[d.Valves[v].Pos] = ci
		}
	}
	owner := map[geom.Pt]int{}
	for ci := range r.Clusters {
		c := &r.Clusters[ci]
		paths := append([]grid.Path{}, c.Paths...)
		if len(c.Escape) > 0 {
			paths = append(paths, c.Escape)
		}
		for _, p := range paths {
			if !p.ValidOn(g) {
				return fmt.Errorf("cluster %d: invalid path %v", c.ID, p)
			}
			for _, cell := range p {
				if static.Blocked(cell) {
					return fmt.Errorf("cluster %d: channel on obstacle %v", c.ID, cell)
				}
				if vo, isValve := valveOwner[cell]; isValve && vo != ci {
					return fmt.Errorf("cluster %d: channel crosses foreign valve at %v", c.ID, cell)
				}
				if prev, used := owner[cell]; used && prev != ci {
					return fmt.Errorf("clusters %d and %d share cell %v",
						r.Clusters[prev].ID, c.ID, cell)
				}
				owner[cell] = ci
			}
		}
		// Connectivity: valves + internal paths + escape form one component
		// reaching the pin.
		if c.Routed && len(c.Valves) > 0 {
			pts := make([]geom.Pt, 0, len(c.Valves)+1)
			for _, v := range c.Valves {
				pts = append(pts, d.Valves[v].Pos)
			}
			pts = append(pts, c.Pin)
			if !mstroute.Connected(pts, paths) {
				return fmt.Errorf("cluster %d: valves and pin not connected", c.ID)
			}
		}
	}
	return nil
}
