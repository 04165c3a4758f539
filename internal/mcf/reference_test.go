package mcf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The reference below is the adjacency-list graph and solver that the CSR
// Graph replaced, kept verbatim apart from its identifiers (Graph → refGraph,
// arc → refArc, NewGraph → newRefGraph, Solver → refSolver, nodeItem →
// refNodeItem). Each node keeps its own slice of arc indices and the arcs
// sit in one id-ordered slice. It is the oracle for TestReferenceRandom,
// TestReferenceEscapeGrid and TestSolverMatchesPerCallState: the CSR graph
// must return the same flow, cost, per-arc flows and unit paths, tie for
// tie.

// refGraph is a directed flow network over nodes 0..n-1.
type refGraph struct {
	n    int
	arcs []refArc  // forward/backward arcs interleaved: arc i pairs with i^1
	head [][]int32 // adjacency: arc indices per node
}

type refArc struct {
	to   int32
	cap  int32 // residual capacity
	cost int32
}

// newRefGraph returns an empty network with n nodes.
func newRefGraph(n int) *refGraph {
	if n <= 0 {
		panic(fmt.Sprintf("mcf: invalid node count %d", n))
	}
	return &refGraph{n: n, head: make([][]int32, n)}
}

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its identifier for later Flow queries. Capacity must be
// non-negative.
func (g *refGraph) AddArc(from, to, capacity, cost int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: arc %d->%d out of range (n=%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, refArc{to: int32(to), cap: int32(capacity), cost: int32(cost)})
	g.arcs = append(g.arcs, refArc{to: int32(from), cap: 0, cost: int32(-cost)})
	g.head[from] = append(g.head[from], int32(id))
	g.head[to] = append(g.head[to], int32(id+1))
	return id
}

// Flow returns the flow pushed through arc id (0 before solving).
func (g *refGraph) Flow(id int) int { return int(g.arcs[id^1].cap) }

// MinCostFlow pushes up to maxFlow units from s to t (maxFlow < 0 means
// maximum flow) along successive shortest paths and returns the flow value
// and total cost. Costs may be negative only on arcs out of s reachable in
// the first Bellman-Ford potential pass; the general case is handled by the
// initial Bellman-Ford.
//
// The call allocates fresh solver state; callers that solve repeatedly on
// the same (or equally sized) graphs should hold a refSolver and reuse it.
func (g *refGraph) MinCostFlow(s, t, maxFlow int) (flow, cost int) {
	var sv refSolver
	return sv.MinCostFlow(g, s, t, maxFlow)
}

// refSolver is a reusable arena for MinCostFlow runs: the potential, distance,
// and predecessor tables plus the Dijkstra frontier persist across calls, so
// repeated solves allocate nothing in steady state.
// A refSolver is not safe for concurrent use; the graph it runs on may change
// between calls (the arrays resize on demand).
//
// The frontier is a hand-rolled binary heap with the same sift order as
// container/heap over a d-ordered slice, so the node settle order — and with
// it every tie-break in the computed flow — is identical to the boxed
// implementation it replaced.
type refSolver struct {
	pot    []int64
	dist   []int64
	inqArc []int32
	heap   []refNodeItem
}

// MinCostFlow solves on g exactly like refGraph.MinCostFlow, reusing the
// solver's arrays.
func (s *refSolver) MinCostFlow(g *refGraph, src, dst, maxFlow int) (flow, cost int) {
	if src == dst {
		return 0, 0
	}
	if len(s.pot) < g.n {
		s.pot = make([]int64, g.n)
		s.dist = make([]int64, g.n)
		s.inqArc = make([]int32, g.n)
	}
	pot, dist, inqArc := s.pot[:g.n], s.dist[:g.n], s.inqArc[:g.n]
	s.initPotentials(g, src, pot)
	want := int64(inf)
	if maxFlow >= 0 {
		want = int64(maxFlow)
	}
	var totalFlow, totalCost int64
	for totalFlow < want {
		// Dijkstra with reduced costs.
		for i := range dist {
			dist[i] = inf
			inqArc[i] = -1
		}
		dist[src] = 0
		s.heap = s.heap[:0]
		s.hpush(refNodeItem{node: int32(src), d: 0})
		distT := int64(inf)
		for len(s.heap) > 0 {
			it := s.hpop()
			u := int(it.node)
			if it.d > dist[u] {
				continue
			}
			if u == dst {
				distT = it.d
				break // early exit: nodes beyond t keep dist >= distT
			}
			for _, ai := range g.head[u] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				v := int(a.to)
				nd := dist[u] + int64(a.cost) + pot[u] - pot[v]
				if nd < dist[v] {
					dist[v] = nd
					inqArc[v] = ai
					s.hpush(refNodeItem{node: int32(v), d: nd})
				}
			}
		}
		if distT >= inf {
			break // t unreachable: done
		}
		// Potential update with early exit: unvisited nodes (and nodes with
		// tentative distance beyond distT) clamp to distT, preserving
		// reduced-cost nonnegativity.
		for i := 0; i < g.n; i++ {
			d := dist[i]
			if d > distT {
				d = distT
			}
			pot[i] += d
		}
		// Bottleneck along the path.
		push := want - totalFlow
		for v := dst; v != src; {
			a := g.arcs[inqArc[v]]
			if int64(a.cap) < push {
				push = int64(a.cap)
			}
			v = int(g.arcs[inqArc[v]^1].to)
		}
		for v := dst; v != src; {
			ai := inqArc[v]
			g.arcs[ai].cap -= int32(push)
			g.arcs[ai^1].cap += int32(push)
			totalCost += push * int64(g.arcs[ai].cost)
			v = int(g.arcs[ai^1].to)
		}
		totalFlow += push
	}
	return int(totalFlow), int(totalCost)
}

// initPotentials fills pot via Bellman-Ford from src to support negative arc
// costs. With all-nonnegative costs it converges immediately.
func (s *refSolver) initPotentials(g *refGraph, src int, pot []int64) {
	hasNeg := false
	for i := 0; i < len(g.arcs); i += 2 {
		if g.arcs[i].cost < 0 && g.arcs[i].cap > 0 {
			hasNeg = true
			break
		}
	}
	if !hasNeg {
		for i := range pot {
			pot[i] = 0
		}
		return
	}
	for i := range pot {
		pot[i] = inf
	}
	pot[src] = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if pot[u] >= inf {
				continue
			}
			for _, ai := range g.head[u] {
				a := g.arcs[ai]
				if a.cap <= 0 {
					continue
				}
				if nd := pot[u] + int64(a.cost); nd < pot[int(a.to)] {
					pot[int(a.to)] = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range pot {
		if pot[i] >= inf {
			pot[i] = 0 // unreachable: potential irrelevant
		}
	}
}

// refNodeItem is one frontier entry: a node and its tentative distance.
type refNodeItem struct {
	node int32
	d    int64
}

// hpush appends it and sifts up, mirroring container/heap's up().
func (s *refSolver) hpush(it refNodeItem) {
	h := append(s.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

// hpop removes and returns the minimum, mirroring container/heap's Pop()
// (swap root with last, sift down over the shortened slice).
func (s *refSolver) hpop() refNodeItem {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].d < h[j1].d {
			j = j2
		}
		if !(h[j].d < h[i].d) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	it := h[n]
	s.heap = h[:n]
	return it
}

// DecomposeUnitPaths decomposes the current flow from s to t into unit-flow
// paths (each a node sequence s..t). It consumes a copy of the flow, leaving
// the graph state untouched. Cycles in the flow (possible in principle, not
// produced by successive shortest paths with nonnegative costs) are dropped.
func (g *refGraph) DecomposeUnitPaths(s, t int) [][]int {
	residFlow := make([]int32, len(g.arcs))
	for i := 0; i < len(g.arcs); i += 2 {
		residFlow[i] = g.arcs[i^1].cap // flow on forward arc i
	}
	var paths [][]int
	for {
		// Walk from s following arcs with positive flow.
		path := []int{s}
		arcsUsed := []int{}
		u := s
		visited := map[int]bool{s: true}
		found := true
		for u != t {
			next := -1
			for _, ai := range g.head[u] {
				if ai&1 == 1 { // backward arc
					continue
				}
				if residFlow[ai] > 0 && !visited[int(g.arcs[ai].to)] {
					next = int(ai)
					break
				}
			}
			if next == -1 {
				found = false
				break
			}
			u = int(g.arcs[next].to)
			visited[u] = true
			path = append(path, u)
			arcsUsed = append(arcsUsed, next)
		}
		if !found {
			break
		}
		for _, ai := range arcsUsed {
			residFlow[ai]--
		}
		paths = append(paths, path)
	}
	return paths
}

// arcSpec is one AddArc call.
type arcSpec struct{ from, to, cap, cost int }

// arcHalves returns, for each arc of g in the order the test added them,
// the indices of its forward and backward halves. It replays layout's
// stable counting sort, so the graph keeps no arc-id index for tests.
func arcHalves(t *testing.T, g *Graph, arcs []arcSpec) [][2]int32 {
	t.Helper()
	g.layout()
	next := append([]int32(nil), g.start...)
	out := make([][2]int32, len(arcs))
	for id, a := range arcs {
		f := next[a.from]
		next[a.from]++
		b := next[a.to]
		next[a.to]++
		if g.rev[f] != b {
			t.Fatalf("arc %d: halves %d and %d are not a pair", id, f, b)
		}
		out[id] = [2]int32{f, b}
	}
	return out
}

// arcFlows returns the flow on each arc of g, in the order the test added
// them: the residual capacity of the arc's backward half.
func arcFlows(t *testing.T, g *Graph, arcs []arcSpec) []int {
	t.Helper()
	flows := make([]int, len(arcs))
	for id, h := range arcHalves(t, g, arcs) {
		flows[id] = int(g.arcs[h[1]].cap)
	}
	return flows
}

// instance is a network with a source, a sink and a flow bound (-1: max).
type instance struct {
	n, s, t, maxFlow int
	arcs             []arcSpec
}

// randomInstance draws a small network with parallel and zero-capacity
// arcs. Every third instance prices some arcs out of s below zero, so the
// solver's Bellman-Ford potential pass runs; those instances have no arc
// into s, which keeps the network free of negative cycles.
func randomInstance(rng *rand.Rand) instance {
	n := 2 + rng.Intn(30)
	in := instance{n: n, s: rng.Intn(n), t: rng.Intn(n), maxFlow: -1}
	for in.t == in.s {
		in.t = rng.Intn(n)
	}
	if rng.Intn(2) == 0 {
		in.maxFlow = rng.Intn(6)
	}
	neg := rng.Intn(3) == 0
	m := rng.Intn(4*n + 1)
	for len(in.arcs) < m {
		a := arcSpec{rng.Intn(n), rng.Intn(n), rng.Intn(4), rng.Intn(9)}
		switch {
		case neg && a.to == in.s:
			continue
		case rng.Intn(8) == 0 && len(in.arcs) > 0:
			// A parallel arc: same endpoints as an earlier one, own price.
			p := in.arcs[rng.Intn(len(in.arcs))]
			a.from, a.to = p.from, p.to
		}
		if neg && a.from == in.s && rng.Intn(2) == 0 {
			a.cost = -1 - rng.Intn(6)
		}
		in.arcs = append(in.arcs, a)
	}
	return in
}

// escapeInstance builds a node-split grid shaped like escape.Route's
// network: in(c) = 2c and out(c) = 2c+1 joined by a capacity-1 arc on usable
// cells, unit-cost arcs from out(c) to each usable neighbor's in-node, some
// boundary cells as pins draining to T, and cluster nodes fed by S that
// inject into several blocked take-off cells at a penalty each. Obstacles
// and non-pin boundary cells carry no flow.
func escapeInstance(rng *rand.Rand) instance {
	w, h := 5+rng.Intn(16), 5+rng.Intn(16)
	cells := w * h
	blocked := make([]bool, cells)
	pin := make([]bool, cells)
	takeoff := make([]bool, cells)
	onBoundary := func(c int) bool {
		x, y := c%w, c/w
		return x == 0 || y == 0 || x == w-1 || y == h-1
	}
	for c := range blocked {
		blocked[c] = rng.Intn(6) == 0
		pin[c] = onBoundary(c) && rng.Intn(3) == 0
	}
	clusters := make([][]int, 1+rng.Intn(8))
	for k := range clusters {
		for i := 1 + rng.Intn(4); i > 0; i-- {
			c := (1+rng.Intn(h-2))*w + 1 + rng.Intn(w-2)
			if rng.Intn(10) == 0 {
				c = rng.Intn(w) // a take-off on a pin: a zero-length escape
				pin[c] = true
			}
			blocked[c], takeoff[c] = true, true
			clusters[k] = append(clusters[k], c)
		}
	}
	usable := func(c int) bool { return !blocked[c] && (!onBoundary(c) || pin[c]) }
	S, T := 2*cells, 2*cells+1
	in := instance{n: T + 1 + len(clusters), s: S, t: T, maxFlow: -1}
	add := func(from, to, cap, cost int) { in.arcs = append(in.arcs, arcSpec{from, to, cap, cost}) }
	for c := 0; c < cells; c++ {
		if !usable(c) && !takeoff[c] {
			continue
		}
		if usable(c) {
			add(2*c, 2*c+1, 1, 0)
		}
		x, y := c%w, c/w
		for _, d := range [][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx >= 0 && ny >= 0 && nx < w && ny < h && usable(ny*w+nx) {
				add(2*c+1, 2*(ny*w+nx), 1, 1)
			}
		}
	}
	for c := 0; c < cells; c++ {
		if pin[c] && (!blocked[c] || takeoff[c]) {
			add(2*c+1, T, 1, 0)
		}
	}
	for k, cs := range clusters {
		add(S, T+1+k, 1, 0)
		for _, c := range cs {
			add(T+1+k, 2*c+1, 1, rng.Intn(7))
		}
	}
	return in
}

// build adds the instance's arcs to a CSR graph and to the reference.
func (in instance) build(t *testing.T) (*Graph, *refGraph) {
	g, ref := NewGraph(in.n, len(in.arcs)), newRefGraph(in.n)
	for id, a := range in.arcs {
		g.AddArc(a.from, a.to, a.cap, a.cost)
		// The reference numbers half-arcs, so arc id k is its 2k.
		if rid := ref.AddArc(a.from, a.to, a.cap, a.cost); rid != 2*id {
			t.Fatalf("arc %d has reference id %d", id, rid)
		}
	}
	return g, ref
}

// matchReference solves in on both graphs and fails on the first
// difference in flow, cost, an arc's flow or the unit paths. A max-flow
// instance is then solved again, which must push nothing on either.
func matchReference(t *testing.T, name string, in instance) {
	t.Helper()
	g, ref := in.build(t)
	for round := 0; round < 2; round++ {
		f, c := g.MinCostFlow(in.s, in.t, in.maxFlow)
		rf, rc := ref.MinCostFlow(in.s, in.t, in.maxFlow)
		if f != rf || c != rc {
			t.Fatalf("%s solve %d: flow/cost %d/%d, reference %d/%d", name, round, f, c, rf, rc)
		}
		for id, fl := range arcFlows(t, g, in.arcs) {
			if fl != ref.Flow(2*id) {
				t.Fatalf("%s solve %d: arc %d flow %d, reference %d", name, round, id, fl, ref.Flow(2*id))
			}
		}
		p, rp := g.DecomposeUnitPaths(in.s, in.t), ref.DecomposeUnitPaths(in.s, in.t)
		if !reflect.DeepEqual(p, rp) {
			t.Fatalf("%s solve %d: unit paths\n%v\nreference\n%v", name, round, p, rp)
		}
		if in.maxFlow >= 0 {
			return
		}
	}
}

// TestReferenceRandom checks the CSR graph against the adjacency-list
// reference on random networks: bounded and unbounded flow, parallel and
// zero-capacity arcs, and negative costs out of s.
func TestReferenceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for trial := 0; trial < 600; trial++ {
		matchReference(t, fmt.Sprintf("trial %d", trial), randomInstance(rng))
	}
}

// TestReferenceEscapeGrid checks the CSR graph against the reference on
// escape-shaped node-split grids, where unit costs make equal-cost ties the
// rule: they must break the same way.
func TestReferenceEscapeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 80; trial++ {
		matchReference(t, fmt.Sprintf("grid %d", trial), escapeInstance(rng))
	}
}

// BenchmarkMinCostFlowReference builds and solves one escape-shaped grid
// per iteration, on the CSR graph and on the reference.
func BenchmarkMinCostFlowReference(b *testing.B) {
	in := escapeInstance(rand.New(rand.NewSource(3)))
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewGraph(in.n, len(in.arcs))
			for _, a := range in.arcs {
				g.AddArc(a.from, a.to, a.cap, a.cost)
			}
			g.MinCostFlow(in.s, in.t, -1)
			g.DecomposeUnitPaths(in.s, in.t)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := newRefGraph(in.n)
			for _, a := range in.arcs {
				g.AddArc(a.from, a.to, a.cap, a.cost)
			}
			g.MinCostFlow(in.s, in.t, -1)
			g.DecomposeUnitPaths(in.s, in.t)
		}
	})
}
