package mcf

import (
	"math/rand"
	"reflect"
	"testing"
)

// randomGraph builds a random layered-ish network and returns it with its
// source and sink.
func randomGraph(rng *rand.Rand, n, arcs int) (*Graph, int, int) {
	g := NewGraph(n)
	for i := 0; i < arcs; i++ {
		from := rng.Intn(n)
		to := rng.Intn(n)
		if from == to {
			continue
		}
		g.AddArc(from, to, 1+rng.Intn(3), rng.Intn(8))
	}
	return g, 0, n - 1
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
	g := NewGraph(4)
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
// built, for the forward arc and its paired backward arc, before and after a
// solve.
func TestSetCostReprices(t *testing.T) {
	g := NewGraph(3)
	a := g.AddArc(0, 1, 1, 7)
	b := g.AddArc(1, 2, 2, 3)
	check := func(when string) {
		t.Helper()
		for _, c := range []struct{ id, to, cost int }{
			{a, 1, 7}, {a ^ 1, 0, -7}, {b, 2, 3}, {b ^ 1, 1, -3},
		} {
			if to, cost := int(g.arcs[c.id].to), int(g.arcs[c.id].cost); to != c.to || cost != c.cost {
				t.Errorf("%s: arc %d to=%d cost=%d, want %d/%d", when, c.id, to, cost, c.to, c.cost)
			}
		}
	}
	check("built")
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
			g := NewGraph(2)
			defer func() {
				if recover() == nil {
					t.Fatal("AddArc did not panic")
				}
			}()
			g.AddArc(c.from, c.to, c.capacity, 1)
		})
	}
}

// TestSolverMatchesPerCallState checks that a reused Solver produces
// bit-identical flow state to fresh per-call solves across many graphs.
func TestSolverMatchesPerCallState(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	sv := &Solver{}
	for trial := 0; trial < 40; trial++ {
		n := 6 + rng.Intn(12)
		seed := rng.Int63()
		ga, s, tt := randomGraph(rand.New(rand.NewSource(seed)), n, 40)
		gb, _, _ := randomGraph(rand.New(rand.NewSource(seed)), n, 40)
		fa, ca := ga.MinCostFlow(s, tt, -1)
		fb, cb := sv.MinCostFlow(gb, s, tt, -1)
		if fa != fb || ca != cb {
			t.Fatalf("trial %d: reused solver %d/%d, fresh %d/%d", trial, fb, cb, fa, ca)
		}
		for id := 0; id < len(ga.arcs); id += 2 {
			if ga.Flow(id) != gb.Flow(id) {
				t.Fatalf("trial %d: arc %d flow %d vs %d", trial, id, ga.Flow(id), gb.Flow(id))
			}
		}
	}
}

// TestSolverSteadyStateAllocs pins the arena behavior: once a solve has
// sized the arrays, another solve on the same graph (which finds nothing
// left to push) allocates nothing.
func TestSolverSteadyStateAllocs(t *testing.T) {
	g, s, tt := randomGraph(rand.New(rand.NewSource(7)), 24, 120)
	sv := &Solver{}
	if f, _ := sv.MinCostFlow(g, s, tt, -1); f == 0 {
		t.Fatal("instance carries no flow; the arena was never exercised")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if f, c := sv.MinCostFlow(g, s, tt, -1); f != 0 || c != 0 {
			t.Fatalf("re-solve pushed %d/%d on a max-flow graph", f, c)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state MinCostFlow allocates %.1f per run, want 0", allocs)
	}
}

// benchGraph rebuilds the benchmark instance, so both benchmarks below pay
// the same construction cost and differ only in the solver state.
func benchGraph() (*Graph, int, int) {
	return randomGraph(rand.New(rand.NewSource(7)), 256, 2048)
}

// BenchmarkSolverReuse solves fresh graphs with one held Solver.
func BenchmarkSolverReuse(b *testing.B) {
	sv := &Solver{}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, s, tt := benchGraph()
		sv.MinCostFlow(g, s, tt, -1)
	}
}

// BenchmarkMinCostFlowFresh is the per-call baseline for the same instance.
func BenchmarkMinCostFlowFresh(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, s, tt := benchGraph()
		g.MinCostFlow(s, tt, -1)
	}
}
