package pacor

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
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

// debugEscape routes escape-stage tracing to stderr when enabled via
// SetDebugEscape (tests and debugging only); Params.Trace takes
// precedence and needs no global state.
var debugEscape = false

// tracef writes escape-stage diagnostics to w; a nil writer silences it.
func tracef(w io.Writer, format string, args ...any) {
	if w == nil {
		return
	}
	_, _ = fmt.Fprintf(w, format, args...) //pacor:allow liberrs trace output is best-effort diagnostics
}

// traceWriter resolves the effective trace destination for one flow run.
func traceWriter(params Params) io.Writer {
	if params.Trace != nil {
		return params.Trace
	}
	if debugEscape {
		return os.Stderr
	}
	return nil
}

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
	// The flow's sequential stages share one search workspace; the parallel
	// stages (negotiation rounds, per-cluster batches) draw one workspace per
	// worker from the grid-keyed pool inside route.RunScheduled. One
	// workspace per goroutine is the rule.
	ws := route.NewWorkspace(g)
	if params.Negotiate.Workers == 0 {
		params.Negotiate.Workers = params.Workers
	}
	if params.Negotiate.Hier == (route.HierParams{}) {
		params.Negotiate.Hier = params.Hier
	}

	stageTimes := map[string]time.Duration{}
	stage := func(name string, since time.Time) {
		stageTimes[name] += time.Since(since)
	}

	// Stage 1: valve clustering (Figure 2).
	t0 := time.Now()
	var part *cluster.Result
	if params.ExactClustering {
		part = cluster.PartitionExact(d)
	} else {
		part = cluster.Partition(d)
	}
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
	var lmStats LMReuseStats
	t0 = time.Now()
	routeLMClusters(ws, d, obs, fcs, params, &negStats, &lmStats)

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
	fcs = routeOrdinary(d, obs, fcs, params.Workers)
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
	res.LMReuse = lmStats
	res.EscapeHier = escHier
	return res, nil
}

// routeLMClusters computes candidate trees, selects one per cluster (per
// mode), and routes all LM clusters jointly with negotiation. Clusters whose
// edges cannot all be routed are demoted to ordinary MST routing.
func routeLMClusters(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, params Params, negStats *route.NegotiateStats, lmStats *LMReuseStats) {
	// Candidate construction per cluster is independent (read-only over the
	// static obstacle map), so it fans out across goroutines; results are
	// collected by index, keeping the flow deterministic.
	var pending []*flowCluster
	for _, fc := range fcs {
		if fc.kind == kindTree {
			pending = append(pending, fc)
		}
	}

	// Cross-run seeding of this sub-stage (lmseed.go): a usable seed replays
	// candidate construction per cluster (sink sequence match + clean read
	// cone) and the MWCP selection as a whole (instance fingerprint match).
	sig := lmParamsSig(params)
	seed := params.LMSeed
	if !seed.usable(d.W, d.H, sig) {
		seed = nil
	}
	capt := params.LMCapture
	var bits, diff []uint64
	if seed != nil || capt != nil {
		bits = obs.Bits(nil)
	}
	if seed != nil {
		diff = diffBitmaps(bits, seed.Bits)
	}
	if capt != nil {
		*capt = LMSeed{W: d.W, H: d.H, Sig: sig, Bits: bits}
	}

	candsByIdx := make([][]*dme.Tree, len(pending))
	hashes := make([]uint64, len(pending))
	cones := make([][]int32, len(pending))
	replayed := make([]bool, len(pending))
	var wg sync.WaitGroup
	for i, fc := range pending {
		wg.Add(1)
		go func(i int, fc *flowCluster) {
			defer wg.Done()
			sinks := fc.positions(d)
			if seed != nil {
				if ps := seed.lookup(sinks); ps != nil && coneClean(ps.Cone, diff) {
					candsByIdx[i] = ps.Cands
					hashes[i] = ps.Hash
					cones[i] = ps.Cone
					replayed[i] = true
					return
				}
			}
			if seed == nil && capt == nil {
				candsByIdx[i] = dme.Candidates(obs, sinks, params.MaxCandidates)
				return
			}
			var probe func(geom.Pt)
			if capt != nil {
				g := obs.Grid()
				probe = func(p geom.Pt) { cones[i] = append(cones[i], conePt(g, p)) }
			}
			candsByIdx[i] = dme.CandidatesTraced(obs, sinks, params.MaxCandidates, probe)
			hashes[i] = dme.Fingerprint(candsByIdx[i])
		}(i, fc)
	}
	wg.Wait()
	lmStats.CandClusters = len(pending)
	for _, r := range replayed {
		if r {
			lmStats.CandReplayed++
		}
	}
	if capt != nil {
		capt.Clusters = make([]LMClusterSeed, len(pending))
		for i, fc := range pending {
			capt.Clusters[i] = LMClusterSeed{
				Sinks: fc.positions(d), Cone: cones[i],
				Cands: candsByIdx[i], Hash: hashes[i],
			}
		}
	}
	var treeClusters []*flowCluster
	var cands [][]*dme.Tree
	var treeHashes []uint64
	for i, fc := range pending {
		if len(candsByIdx[i]) == 0 {
			fc.demoted = true
			fc.kind = kindOrd
			continue
		}
		treeClusters = append(treeClusters, fc)
		cands = append(cands, candsByIdx[i])
		treeHashes = append(treeHashes, hashes[i])
	}

	// Candidate selection (Section 4.2). "w/o Sel" takes the first.
	picks := make([]int, len(cands))
	selects := params.Mode != ModeWithoutSelection && len(cands) > 0
	var selKey uint64
	if selects && (seed != nil || capt != nil) {
		selKey = selInstanceKey(treeHashes)
	}
	if selects {
		if seed != nil && seed.HavePicks && seed.SelKey == selKey && len(seed.Picks) == len(picks) {
			copy(picks, seed.Picks)
			lmStats.SelectionReplayed = true
		} else {
			cfg := seltree.DefaultConfig()
			cfg.Lambda = params.Lambda
			cfg.Solver = params.Solver
			if p, err := seltree.Select(cands, cfg); err == nil {
				picks = p
			}
		}
	}
	if capt != nil && selects {
		capt.SelKey = selKey
		capt.Picks = append([]int(nil), picks...)
		capt.HavePicks = true
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
	// Only the main negotiation call carries the cross-run seed and capture:
	// rescue and refinement route different edge sets on different base maps,
	// where a parent transcript can't align.
	np := params.Negotiate
	np.Seed = params.NegSeed
	np.Capture = params.NegCapture
	paths, _ := ws.NegotiateTracked(obs, edges, np, negStats)

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
		if !rescueTreeCluster(ws, d, obs, fc, params, negStats) {
			fc.demoted = true
			fc.kind = kindOrd
			fc.tree = nil
		}
	}
}

// rescueTreeCluster tries every candidate of an unrealized tree cluster
// solo against the current obstacle map, committing the first that routes
// completely. Returns false when no candidate routes.
func rescueTreeCluster(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fc *flowCluster, params Params, negStats *route.NegotiateStats) bool {
	for _, cand := range fc.cands {
		blocked := false
		for ni, nd := range cand.Topo.Nodes {
			if nd.Sink < 0 && obs.Blocked(cand.Pos[ni]) {
				blocked = true
				break
			}
		}
		if blocked {
			continue
		}
		var edges []route.Edge
		for ei, e := range cand.Edges() {
			edges = append(edges, route.Edge{
				ID: ei, Sources: []geom.Pt{e.From}, Targets: []geom.Pt{e.To}})
		}
		paths, ok := ws.NegotiateTracked(obs, edges, params.Negotiate, negStats)
		if !ok {
			continue
		}
		segs := make([]grid.Path, len(edges))
		for ei := range edges {
			segs[ei] = paths[ei]
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
			// A candidate whose internal nodes sit on other clusters'
			// channels (or valves) would route into them: skip it.
			blockedNode := false
			for ni, nd := range cand.Topo.Nodes {
				if nd.Sink < 0 && base.Blocked(cand.Pos[ni]) {
					blockedNode = true
					break
				}
			}
			if blockedNode {
				continue
			}
			var edges []route.Edge
			for ei, e := range cand.Edges() {
				edges = append(edges, route.Edge{
					ID: ei, Sources: []geom.Pt{e.From}, Targets: []geom.Pt{e.To}})
			}
			paths, ok := ws.NegotiateTracked(base, edges, params.Negotiate, negStats)
			if !ok {
				continue
			}
			segs := make([]grid.Path, len(edges))
			for ei := range edges {
				segs[ei] = paths[ei]
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
		detour.MatchWS(ws, obs, fc.net, delta)
		fc.paths = fc.net.Segments
	}
}

// routeOrdinary routes every ordinary cluster with MST + A*, de-clustering
// on failure (Figure 2's "Declustering" box). It may append new clusters
// (split halves) and returns the updated slice.
//
// Each pass over the queue runs as one batch through the spatial-dependency
// scheduler: clusters whose windows are disjoint route concurrently, results
// commit onto obs in queue order, so the routed paths — and the split/retry
// cascade they trigger — are byte-identical to the sequential FIFO loop for
// every worker count. Split halves form the next batch, mirroring the
// sequential queue where they are appended behind all current entries.
func routeOrdinary(d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, workers int) []*flowCluster {
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
	g := obs.Grid()
	for len(queue) > 0 {
		batch := queue[:0:0]
		for _, fc := range queue {
			if len(fc.valves) > 1 { // singletons have no internal channels
				batch = append(batch, fc)
			}
		}
		queue = nil
		tasks := make([]route.ScheduledTask, len(batch))
		for i := range batch {
			tasks[i] = mstClusterTask(g, batch[i].positions(d))
		}
		route.RunScheduled(obs, tasks, workers, func(i int, out route.TaskOutcome) {
			fc := batch[i]
			if out.OK {
				fc.paths = out.Paths
				return
			}
			// De-cluster: split spatially and retry the halves next batch.
			halves := cluster.Split(d, cluster.Cluster{ID: fc.id, Valves: fc.valves})
			if len(halves) < 2 {
				return
			}
			fc.valves = halves[0].Valves
			fc.demoted = true
			other := &flowCluster{id: nextID, valves: halves[1].Valves, kind: kindOrd, demoted: true}
			nextID++
			fcs = append(fcs, other)
			queue = append(queue, fc, other)
		})
	}
	return fcs
}

// escapeRoute connects every cluster to a control pin via min-cost flow,
// retrying per the paper's de-clustering and path rip-up stage: an unrouted
// LM cluster first loses its root-only take-off restriction (demotion, the
// cheap rip-up), an unrouted multi-valve cluster is split into bare-valve
// singletons, and a trapped singleton triggers rip-up of the blocking
// clusters' channels: the trapped valve's escape is committed first and the
// blockers' internal channels re-route around it.
func escapeRoute(ws *route.Workspace, d *valve.Design, obs *grid.ObsMap, fcs []*flowCluster, params Params, escHier *route.HierStats) []*flowCluster {
	trace := traceWriter(params)
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
	retries := params.EscapeRetries
	if retries < 1 {
		retries = 1
	}
	// Escapes committed early by rip-up (already marked in obs).
	committed := map[int]grid.Path{}
	usedPins := map[geom.Pt]bool{}

	var res *escape.Result
	for round := 0; round < retries; round++ {
		terms := buildTerminals(d, fcs, committed, params.Workers)
		var pins []geom.Pt
		for _, p := range d.Pins {
			if !usedPins[p] {
				pins = append(pins, p)
			}
		}
		if params.Hier.On(obs.Grid().Cells()) {
			var hs route.HierStats
			res, hs = escape.RouteHier(obs, terms, pins, params.Hier, params.Workers)
			escHier.Add(hs)
		} else {
			res = escape.Route(obs, terms, pins)
		}
		tracef(trace, "escape round %d: %d terms, unrouted %v\n", round, len(terms), res.Unrouted)
		if len(res.Unrouted) == 0 {
			break
		}
		if round == retries-1 {
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
		if len(trapped) > 0 && ripAndCommit(ws, d, obs, &fcs, &nextID, trapped, usedPins, committed, trace, params.Workers) {
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
	trapped []*flowCluster, usedPins map[geom.Pt]bool, committed map[int]grid.Path, trace io.Writer, workers int) bool {
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
		done := false
		for _, b := range blockers {
			rip(b)
			if tryEscape() {
				done = true
				break
			}
		}
		if !done {
			tracef(trace, "ripAndCommit: cluster %d still trapped after %d blockers\n", tc.id, len(blockers))
		}
	}
	// Re-route every ripped cluster around the committed escapes.
	rerouteRipped(d, obs, fcsp, nextID, ripped, workers)
	return anyCommitted || len(ripped) > 0
}

// buildTerminals assembles the escape terminals for every not-yet-committed
// cluster. The per-cluster take-off cost (a BFS over the net's channel tree
// per valve, netCellSpread) reads no shared mutable state, so with workers
// > 1 the per-cluster computations fan out over a fixed worker pool; the
// indexed writes keep the output order identical to the sequential loop.
func buildTerminals(d *valve.Design, fcs []*flowCluster, committed map[int]grid.Path, workers int) []escape.Terminal {
	var pending []*flowCluster
	for _, fc := range fcs {
		if _, done := committed[fc.id]; !done {
			pending = append(pending, fc)
		}
	}
	if len(pending) == 0 {
		return nil
	}
	terms := make([]escape.Terminal, len(pending))
	build := func(i int) {
		fc := pending[i]
		cells := fc.takeoffs(d)
		terms[i] = escape.Terminal{
			ClusterID: fc.id,
			Cells:     cells,
			Costs:     fc.takeoffCosts(d, cells),
		}
	}
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		for i := range pending {
			build(i)
		}
		return terms
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(pending); i += workers {
				build(i)
			}
		}(w)
	}
	wg.Wait()
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

// mstClusterTask wraps one cluster's MST routing (mstroute.RouteClusterWS on
// a scratch snapshot) as a scheduler task. RouteClusterWS reads obstacles
// only through the workspace's searches, so the task qualifies for
// speculative execution under route.RunScheduled.
func mstClusterTask(g grid.Grid, pos []geom.Pt) route.ScheduledTask {
	return route.ScheduledTask{
		Window: route.SearchWindow(g, pos, nil),
		Run: func(ws *route.Workspace, scratch *grid.ObsMap) route.TaskOutcome {
			res, ok := mstroute.RouteClusterWS(ws, scratch, pos, nil)
			if !ok {
				return route.TaskOutcome{}
			}
			return route.TaskOutcome{OK: true, Paths: res.Paths}
		},
	}
}

// rerouteRipped re-routes the ripped clusters' internal channels with MST
// (their LM structure, if any, is forfeited — the paper's rip-up cost). The
// clusters route as one scheduler batch committing in rip order, so the
// outcome is byte-identical to rerouting them one by one. When even MST
// routing fails, a cluster splits into bare singletons so that every valve
// can still escape on its own.
func rerouteRipped(d *valve.Design, obs *grid.ObsMap, fcsp *[]*flowCluster, nextID *int, ripped []*flowCluster, workers int) {
	var active []*flowCluster
	for _, fc := range ripped {
		fc.net = nil
		fc.tree = nil
		fc.kind = kindOrd
		fc.demoted = true
		fc.paths = nil
		if len(fc.valves) > 1 {
			active = append(active, fc)
		}
	}
	g := obs.Grid()
	tasks := make([]route.ScheduledTask, len(active))
	for i := range active {
		tasks[i] = mstClusterTask(g, active[i].positions(d))
	}
	route.RunScheduled(obs, tasks, workers, func(i int, out route.TaskOutcome) {
		fc := active[i]
		if out.OK {
			fc.paths = out.Paths
			return
		}
		rest := fc.valves[1:]
		fc.valves = fc.valves[:1]
		for _, v := range rest {
			*fcsp = append(*fcsp, &flowCluster{
				id: *nextID, valves: []int{v}, kind: kindOrd, demoted: true,
			})
			*nextID++
		}
	})
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

// Verify checks the solution's design rules: every channel cell on-grid, no
// two channels of different clusters sharing a cell, no channel on an
// obstacle or foreign valve, every routed cluster's channels connected to
// its pin. It returns an error describing the first violation.
func Verify(d *valve.Design, r *Result) error {
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

// SetDebugEscape toggles escape-stage tracing (used by debugging tools).
func SetDebugEscape(v bool) { debugEscape = v }
