// Package mcf implements integer min-cost max-flow by successive shortest
// paths with Johnson potentials (Dijkstra on reduced costs). It solves the
// escape-routing formulation of Section 5 of the paper: the paper writes the
// problem as an LP over grid flows, but its constraint matrix is a network
// matrix, so the integral min-cost flow optimum coincides with the LP
// optimum (Theorem 1's "optimal routing solution with minimized total
// cost") while directly yielding unit paths.
package mcf

import (
	"fmt"
	"math"
)

// Graph is a directed flow network over nodes 0..n-1.
type Graph struct {
	n    int
	arcs []arc     // forward/backward arcs interleaved: arc i pairs with i^1
	head [][]int32 // adjacency: arc indices per node
}

type arc struct {
	to   int32
	cap  int32 // residual capacity
	cost int32
}

// NewGraph returns an empty network with n nodes.
func NewGraph(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("mcf: invalid node count %d", n))
	}
	return &Graph{n: n, head: make([][]int32, n)}
}

// AddArc adds a directed arc with the given capacity and per-unit cost and
// returns its identifier for later Flow queries. Capacity must be
// non-negative.
func (g *Graph) AddArc(from, to, capacity, cost int) int {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: arc %d->%d out of range (n=%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	id := len(g.arcs)
	g.arcs = append(g.arcs, arc{to: int32(to), cap: int32(capacity), cost: int32(cost)})
	g.arcs = append(g.arcs, arc{to: int32(from), cap: 0, cost: int32(-cost)})
	g.head[from] = append(g.head[from], int32(id))
	g.head[to] = append(g.head[to], int32(id+1))
	return id
}

// Flow returns the flow pushed through arc id (0 before solving).
func (g *Graph) Flow(id int) int { return int(g.arcs[id^1].cap) }

const inf = math.MaxInt64 / 4

// MinCostFlow pushes up to maxFlow units from s to t (maxFlow < 0 means
// maximum flow) along successive shortest paths and returns the flow value
// and total cost. Costs may be negative only on arcs out of s reachable in
// the first Bellman-Ford potential pass; the general case is handled by the
// initial Bellman-Ford.
//
// The call allocates fresh solver state; callers that solve repeatedly on
// the same (or equally sized) graphs should hold a Solver and reuse it.
func (g *Graph) MinCostFlow(s, t, maxFlow int) (flow, cost int) {
	var sv Solver
	return sv.MinCostFlow(g, s, t, maxFlow)
}

// Solver is a reusable arena for MinCostFlow runs: the potential, distance,
// and predecessor tables plus the Dijkstra frontier persist across calls, so
// repeated solves allocate nothing in steady state.
// A Solver is not safe for concurrent use; the graph it runs on may change
// between calls (the arrays resize on demand).
//
// The frontier is a hand-rolled binary heap with the same sift order as
// container/heap over a d-ordered slice, so the node settle order — and with
// it every tie-break in the computed flow — is identical to the boxed
// implementation it replaced.
type Solver struct {
	pot    []int64
	dist   []int64
	inqArc []int32
	heap   []nodeItem
}

// MinCostFlow solves on g exactly like Graph.MinCostFlow, reusing the
// solver's arrays.
func (s *Solver) MinCostFlow(g *Graph, src, dst, maxFlow int) (flow, cost int) {
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
		s.hpush(nodeItem{node: int32(src), d: 0})
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
					s.hpush(nodeItem{node: int32(v), d: nd})
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
func (s *Solver) initPotentials(g *Graph, src int, pot []int64) {
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

// nodeItem is one frontier entry: a node and its tentative distance.
type nodeItem struct {
	node int32
	d    int64
}

// hpush appends it and sifts up, mirroring container/heap's up().
func (s *Solver) hpush(it nodeItem) {
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
func (s *Solver) hpop() nodeItem {
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
func (g *Graph) DecomposeUnitPaths(s, t int) [][]int {
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
