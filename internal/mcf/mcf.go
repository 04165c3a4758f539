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

// Graph is a directed flow network over nodes 0..n-1. It is built in two
// phases: AddArc records arcs into a buffer sized by NewGraph, and the first
// MinCostFlow lays them out in compressed-sparse-row form — every node's
// half-arcs stored together, in the order AddArc created them — and sizes
// the solver state with the graph. After that the graph takes no more arcs;
// only the Dijkstra frontier grows while solving, and it keeps its capacity
// from one Dijkstra and one solve to the next.
//
// The per-node arc order is the tie-break contract: Dijkstra relaxes, pushes
// and settles equal-cost alternatives in it, so it fixes which of several
// optimal flows a solve returns and the order of DecomposeUnitPaths.
type Graph struct {
	n     int
	added []addedArc // arcs in id order; dropped once laid out

	start []int32 // node u's half-arcs are arcs[start[u]:start[u+1]]
	arcs  []half
	rev   []int32 // index of each half's pair; complemented (^i) on a backward half

	// Solver state, sized with the graph.
	node    []nodeState
	pred    []int32 // half-arc that reached each node
	touched []int32 // nodes whose dist is not inf
	heap    []nodeItem
}

// nodeState keeps a node's potential and tentative distance together, so a
// relaxation reads both from one cache line.
type nodeState struct{ pot, dist int64 }

type addedArc struct{ from, to, cap, cost int32 }

// half is one direction of an arc, stored in its tail node's row.
type half struct {
	to   int32
	cap  int32 // residual capacity
	cost int32
}

// pair returns the index of half i's paired half.
func (g *Graph) pair(i int32) int32 {
	r := g.rev[i]
	if r < 0 {
		r = ^r
	}
	return r
}

// NewGraph returns an empty network with n nodes that holds at most arcs
// arcs.
func NewGraph(n, arcs int) *Graph {
	if n <= 0 || n >= math.MaxInt32 {
		panic(fmt.Sprintf("mcf: invalid node count %d", n))
	}
	if arcs < 0 || arcs > math.MaxInt32/2 {
		panic(fmt.Sprintf("mcf: invalid arc count %d", arcs))
	}
	return &Graph{n: n, added: make([]addedArc, 0, arcs)}
}

// AddArc adds a directed arc with the given capacity and per-unit cost.
// Capacity must be non-negative, the arc count must stay within NewGraph's,
// and the graph must not have been solved.
func (g *Graph) AddArc(from, to, capacity, cost int) {
	if from < 0 || from >= g.n || to < 0 || to >= g.n {
		panic(fmt.Sprintf("mcf: arc %d->%d out of range (n=%d)", from, to, g.n))
	}
	if capacity < 0 {
		panic("mcf: negative capacity")
	}
	if g.arcs != nil {
		panic("mcf: arc added to a solved graph")
	}
	if len(g.added) == cap(g.added) {
		panic(fmt.Sprintf("mcf: more than %d arcs", cap(g.added)))
	}
	g.added = append(g.added, addedArc{int32(from), int32(to), int32(capacity), int32(cost)})
}

// layout moves the added arcs into rows by a stable counting sort on the
// tail node, so each row keeps the order AddArc created its half-arcs in,
// and allocates the solver state.
func (g *Graph) layout() {
	if g.arcs != nil {
		return
	}
	// Count each row's size into start[u+2], so that after the prefix sum
	// start[u+1] is row u's first slot; filling advances it to row u's end,
	// which is row u+1's start.
	start := make([]int32, g.n+2)
	for _, a := range g.added {
		start[a.from+2]++
		start[a.to+2]++
	}
	for u := 2; u < len(start); u++ {
		start[u] += start[u-1]
	}
	g.arcs = make([]half, 2*len(g.added))
	g.rev = make([]int32, 2*len(g.added))
	for _, a := range g.added {
		f := start[a.from+1]
		start[a.from+1]++
		b := start[a.to+1]
		start[a.to+1]++
		g.arcs[f] = half{to: a.to, cap: a.cap, cost: a.cost}
		g.arcs[b] = half{to: a.from, cost: -a.cost}
		g.rev[f], g.rev[b] = b, ^f
	}
	g.start = start[:g.n+1]
	g.added = nil
	g.node = make([]nodeState, g.n)
	for i := range g.node {
		g.node[i].dist = inf
	}
	g.pred = make([]int32, g.n)
	g.touched = make([]int32, 0, g.n)
}

const inf = math.MaxInt64 / 4

// MinCostFlow pushes up to maxFlow units from s to t (maxFlow < 0 means
// maximum flow) along successive shortest paths and returns the flow value
// and total cost. Costs may be negative only on arcs out of s reachable in
// the first Bellman-Ford potential pass; the general case is handled by the
// initial Bellman-Ford.
//
// The frontier is a hand-rolled binary heap with the same sift order as
// container/heap over a d-ordered slice, so the node settle order — and with
// it every tie-break in the computed flow — is identical to the boxed
// implementation it replaced.
func (g *Graph) MinCostFlow(src, dst, maxFlow int) (flow, cost int) {
	if src == dst {
		return 0, 0
	}
	g.layout()
	node, pred, arcs := g.node, g.pred, g.arcs
	g.initPotentials(src)
	want := int64(inf)
	if maxFlow >= 0 {
		want = int64(maxFlow)
	}
	var totalFlow, totalCost int64
	for totalFlow < want {
		// Dijkstra with reduced costs.
		for _, v := range g.touched {
			node[v].dist = inf
		}
		node[src].dist = 0
		g.touched = append(g.touched[:0], int32(src))
		g.heap = g.heap[:0]
		g.hpush(nodeItem{node: int32(src), d: 0})
		distT := int64(inf)
		for len(g.heap) > 0 {
			it := g.hpop()
			u := it.node
			nu := &node[u]
			if it.d > nu.dist {
				continue
			}
			if int(u) == dst {
				distT = it.d
				break // early exit: nodes beyond t keep dist >= distT
			}
			du := it.d + nu.pot
			first := g.start[u]
			for k, a := range arcs[first:g.start[u+1]] {
				if a.cap <= 0 {
					continue
				}
				v := a.to
				nv := &node[v]
				nd := du + int64(a.cost) - nv.pot
				if nd < nv.dist {
					if nv.dist == inf {
						g.touched = append(g.touched, v)
					}
					nv.dist = nd
					pred[v] = first + int32(k)
					g.hpush(nodeItem{node: v, d: nd})
				}
			}
		}
		if distT >= inf {
			break // t unreachable: done
		}
		// Potential update with early exit: nodes with a tentative distance
		// beyond distT clamp to distT, preserving reduced-cost nonnegativity.
		// Every potential is stored minus distT, a shift common to all nodes
		// that leaves each reduced cost unchanged; so only the touched nodes
		// move, and the others, which would gain exactly distT, stay put.
		for _, v := range g.touched {
			if nv := &node[v]; nv.dist < distT {
				nv.pot += nv.dist - distT
			}
		}
		// Bottleneck along the path.
		push := want - totalFlow
		for v := int32(dst); int(v) != src; {
			a := &arcs[pred[v]]
			if int64(a.cap) < push {
				push = int64(a.cap)
			}
			v = arcs[g.pair(pred[v])].to
		}
		for v := int32(dst); int(v) != src; {
			a := &arcs[pred[v]]
			r := &arcs[g.pair(pred[v])]
			a.cap -= int32(push)
			r.cap += int32(push)
			totalCost += push * int64(a.cost)
			v = r.to
		}
		totalFlow += push
	}
	return int(totalFlow), int(totalCost)
}

// initPotentials fills pot via Bellman-Ford from src to support negative arc
// costs. With all-nonnegative costs it converges immediately.
func (g *Graph) initPotentials(src int) {
	node := g.node
	hasNeg := false
	for i, a := range g.arcs {
		if g.rev[i] >= 0 && a.cost < 0 && a.cap > 0 { // a forward half
			hasNeg = true
			break
		}
	}
	if !hasNeg {
		for i := range node {
			node[i].pot = 0
		}
		return
	}
	for i := range node {
		node[i].pot = inf
	}
	node[src].pot = 0
	for iter := 0; iter < g.n; iter++ {
		changed := false
		for u := 0; u < g.n; u++ {
			if node[u].pot >= inf {
				continue
			}
			for _, a := range g.arcs[g.start[u]:g.start[u+1]] {
				if a.cap <= 0 {
					continue
				}
				if nd := node[u].pot + int64(a.cost); nd < node[a.to].pot {
					node[a.to].pot = nd
					changed = true
				}
			}
		}
		if !changed {
			break
		}
	}
	for i := range node {
		if node[i].pot >= inf {
			node[i].pot = 0 // unreachable: potential irrelevant
		}
	}
}

// nodeItem is one frontier entry: a node and its tentative distance.
type nodeItem struct {
	node int32
	d    int64
}

// hpush appends it and sifts up, mirroring container/heap's up(): the
// parents it passes move down one level each, and it lands in the slot
// container/heap's swaps would leave it in.
func (g *Graph) hpush(it nodeItem) {
	h := append(g.heap, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(it.d < h[i].d) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = it
	g.heap = h
}

// hpop removes and returns the minimum, mirroring container/heap's Pop():
// the last item replaces the root and sifts down over the shortened slice,
// with the same moves as container/heap's swaps.
func (g *Graph) hpop() nodeItem {
	h := g.heap
	n := len(h) - 1
	top, x := h[0], h[n]
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
		if !(h[j].d < x.d) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	g.heap = h[:n]
	return top
}

// DecomposeUnitPaths decomposes the current flow from s to t into unit-flow
// paths (each a node sequence s..t). Each walk leaves a node by its first
// forward arc that still carries undecomposed flow into a node the walk has
// not visited, and the decomposition ends at the first walk that gets stuck,
// so cycles in the flow (possible in principle, not produced by successive
// shortest paths with nonnegative costs) are dropped. The graph's flow is
// the same afterwards.
func (g *Graph) DecomposeUnitPaths(s, t int) [][]int {
	if g.arcs == nil || s == t {
		return nil
	}
	// pred doubles as the walk's visited mark: -1 on unvisited nodes, the
	// half-arc that entered the node on visited ones (any value >= 0 on s).
	// A walk never backtracks, so a successful walk visits exactly its
	// path's nodes, which are unmarked again as the path is taken.
	pred, arcs, rev := g.pred, g.arcs, g.rev
	for i := range pred {
		pred[i] = -1
	}
	pred[s] = 0
	var paths [][]int
	for {
		u, steps := int32(s), 0
		for int(u) != t {
			next := int32(-1)
			for i := g.start[u]; i < g.start[u+1]; i++ {
				if r := rev[i]; r >= 0 && arcs[r].cap > 0 && pred[arcs[i].to] < 0 {
					next = i
					break
				}
			}
			if next < 0 {
				// Give the flow back and turn each path's arcs into nodes.
				for _, p := range paths {
					for k := 1; k < len(p); k++ {
						arcs[rev[p[k]]].cap++
						p[k] = int(arcs[p[k]].to)
					}
				}
				return paths
			}
			u = arcs[next].to
			pred[u] = next
			steps++
		}
		// Take one unit off each arc of the path, kept as arc indices until
		// the decomposition ends.
		p := make([]int, steps+1)
		p[0] = s
		for v, k := int32(t), steps; k > 0; k-- {
			ai := pred[v]
			pred[v] = -1
			p[k] = int(ai)
			r := &arcs[rev[ai]]
			r.cap--
			v = r.to
		}
		paths = append(paths, p)
	}
}
