package mcf

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// randomNetwork draws a random layered-ish network from 0 to n-1 out of
// arcs arc draws, skipping self-loops.
func randomNetwork(rng *rand.Rand, n, arcs int) instance {
	in := instance{n: n, s: 0, t: n - 1, maxFlow: -1}
	for i := 0; i < arcs; i++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		in.arcs = append(in.arcs, arcSpec{from, to, 1 + rng.Intn(3), rng.Intn(8)})
	}
	return in
}

// randomGraph builds a random layered-ish network and returns it with its
// source and sink.
func randomGraph(rng *rand.Rand, n, arcs int) (*Graph, int, int) {
	in := randomNetwork(rng, n, arcs)
	g := NewGraph(n, len(in.arcs))
	for _, a := range in.arcs {
		g.AddArc(a.from, a.to, a.cap, a.cost)
	}
	return g, in.s, in.t
}

// TestResetRestoresCapacities checks that a solve depends only on how the
// graph was built: two graphs built from the same arc sequence give the same
// flow, cost and unit-path decomposition.
func TestResetRestoresCapacities(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.Intn(8)
		seed := rng.Int63()
		ga, s, tt := randomGraph(rand.New(rand.NewSource(seed)), n, 30)
		gb, _, _ := randomGraph(rand.New(rand.NewSource(seed)), n, 30)
		f1, c1 := ga.MinCostFlow(s, tt, -1)
		f2, c2 := gb.MinCostFlow(s, tt, -1)
		if f1 != f2 || c1 != c2 {
			t.Fatalf("trial %d: identical graphs gave %d/%d and %d/%d", trial, f1, c1, f2, c2)
		}
		pa, pb := ga.DecomposeUnitPaths(s, tt), gb.DecomposeUnitPaths(s, tt)
		if !reflect.DeepEqual(pa, pb) {
			t.Fatalf("trial %d: decompositions differ\n%v\n%v", trial, pa, pb)
		}
		if len(pa) != f1 {
			t.Fatalf("trial %d: %d unit paths for flow %d", trial, len(pa), f1)
		}
	}
}

// TestCommitHidesAndProtectsFlow solves two units on a diamond of two
// disjoint paths and checks that the decomposition returns both, cheap path
// first.
func TestCommitHidesAndProtectsFlow(t *testing.T) {
	// Two disjoint unit paths 0->1->3 (cost 2) and 0->2->3 (cost 4).
	g := NewGraph(4, 4)
	g.AddArc(0, 1, 1, 1)
	g.AddArc(1, 3, 1, 1)
	g.AddArc(0, 2, 1, 2)
	g.AddArc(2, 3, 1, 2)
	if f, c := g.MinCostFlow(0, 3, 2); f != 2 || c != 6 {
		t.Fatalf("flow=%d cost=%d, want 2/6", f, c)
	}
	got := g.DecomposeUnitPaths(0, 3)
	want := [][]int{{0, 1, 3}, {0, 2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decomposition %v, want %v", got, want)
	}
}

// TestSetCostReprices checks that each arc keeps its head and cost as
// built, for the forward half and its paired backward half, once laid out
// and after a solve.
func TestSetCostReprices(t *testing.T) {
	arcs := []arcSpec{{0, 1, 1, 7}, {1, 2, 2, 3}}
	g := NewGraph(3, len(arcs))
	for _, a := range arcs {
		g.AddArc(a.from, a.to, a.cap, a.cost)
	}
	check := func(when string) {
		t.Helper()
		for id, h := range arcHalves(t, g, arcs) {
			c, f, r := arcs[id], g.arcs[h[0]], g.arcs[h[1]]
			if int(f.to) != c.to || int(f.cost) != c.cost || int(r.to) != c.from || int(r.cost) != -c.cost {
				t.Errorf("%s: arc %d halves to=%d cost=%d / to=%d cost=%d, want %d/%d / %d/%d",
					when, id, f.to, f.cost, r.to, r.cost, c.to, c.cost, c.from, -c.cost)
			}
		}
	}
	g.layout()
	check("laid out")
	if f, c := g.MinCostFlow(0, 2, -1); f != 1 || c != 10 {
		t.Fatalf("flow=%d cost=%d, want 1/10", f, c)
	}
	check("solved")
}

// TestSetCostPanicsOnFlow checks that AddArc rejects an arc it cannot
// represent: an endpoint out of range or a negative capacity.
func TestSetCostPanicsOnFlow(t *testing.T) {
	for _, c := range []struct {
		name               string
		from, to, capacity int
	}{
		{"from out of range", 2, 0, 1},
		{"to out of range", 0, -1, 1},
		{"negative capacity", 0, 1, -1},
	} {
		t.Run(c.name, func(t *testing.T) {
			g := NewGraph(2, 1)
			defer func() {
				if recover() == nil {
					t.Fatal("AddArc did not panic")
				}
			}()
			g.AddArc(c.from, c.to, c.capacity, 1)
		})
	}
}

// TestSolverMatchesPerCallState checks that the solver state sized once
// with the graph, whose distances are reset and potentials moved only on the
// nodes each Dijkstra touched, produces bit-identical flow state to the
// reference solver, which allocates fresh state per call and resets every
// node.
func TestSolverMatchesPerCallState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 40; trial++ {
		matchReference(t, fmt.Sprintf("trial %d", trial), randomNetwork(rng, 6+rng.Intn(12), 40))
	}
}

// TestSolverSteadyStateAllocs pins that the solver state is sized with the
// graph: once a solve has laid the graph out, another solve on it (which
// finds nothing left to push) allocates nothing, and DecomposeUnitPaths
// allocates its paths and the slice holding them, nothing per node or arc.
func TestSolverSteadyStateAllocs(t *testing.T) {
	g, s, tt := randomGraph(rand.New(rand.NewSource(7)), 24, 120)
	flow, _ := g.MinCostFlow(s, tt, -1)
	if flow == 0 {
		t.Fatal("instance carries no flow; the solver state was never exercised")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if f, c := g.MinCostFlow(s, tt, -1); f != 0 || c != 0 {
			t.Fatalf("re-solve pushed %d/%d on a max-flow graph", f, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state MinCostFlow allocates %.1f per run, want 0", allocs)
	}
	allocs = testing.AllocsPerRun(50, func() {
		if p := g.DecomposeUnitPaths(s, tt); len(p) != flow {
			t.Fatalf("%d unit paths for flow %d", len(p), flow)
		}
	})
	if allocs > float64(2*flow) {
		t.Fatalf("DecomposeUnitPaths allocates %.1f per run for %d paths, want at most %d", allocs, flow, 2*flow)
	}
}

// BenchmarkMinCostFlowFresh builds and solves the benchmark instance, a
// random 256-node graph with 2048 arcs, once per iteration.
func BenchmarkMinCostFlowFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, s, tt := randomGraph(rand.New(rand.NewSource(7)), 256, 2048)
		g.MinCostFlow(s, tt, -1)
	}
}
