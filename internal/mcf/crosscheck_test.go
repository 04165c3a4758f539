package mcf

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/lp"
)

// TestMinCostFlowMatchesLP cross-checks the successive-shortest-paths solver
// against the LP formulation of min-cost flow solved by internal/lp: for
// random small networks, fix the flow value at the max flow found by the
// combinatorial solver and compare optimal costs. Network matrices are
// totally unimodular, so the LP optimum equals the integral optimum — the
// same argument as the paper's Theorem 1.
func TestMinCostFlowMatchesLP(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		n := 4 + rng.Intn(4)
		type arcRec struct{ from, to, cap, cost int }
		var arcs []arcRec
		for i := 0; i < 2*n; i++ {
			from, to := rng.Intn(n), rng.Intn(n)
			if from == to {
				continue
			}
			arcs = append(arcs, arcRec{from, to, 1 + rng.Intn(3), rng.Intn(6)})
		}
		if len(arcs) == 0 {
			continue
		}
		g := NewGraph(n, len(arcs))
		for _, a := range arcs {
			g.AddArc(a.from, a.to, a.cap, a.cost)
		}
		s, sink := 0, n-1
		flow, cost := g.MinCostFlow(s, sink, -1)
		if flow == 0 {
			continue
		}

		// LP: variables f_a; minimize sum cost_a f_a; conservation at every
		// non-terminal node; net outflow at s equals the target flow;
		// capacities as upper bounds.
		nv := len(arcs)
		c := make([]float64, nv)
		upper := make([]float64, nv)
		for i, a := range arcs {
			c[i] = -float64(a.cost) // lp maximizes; negate for min
			upper[i] = float64(a.cap)
		}
		var cons []lp.Constraint
		for v := 0; v < n; v++ {
			row := make([]float64, nv)
			for i, a := range arcs {
				if a.from == v {
					row[i] += 1
				}
				if a.to == v {
					row[i] -= 1
				}
			}
			switch v {
			case s:
				cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: float64(flow)})
			case sink:
				cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: -float64(flow)})
			default:
				cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: 0})
			}
		}
		sol, err := lp.Solve(&lp.Problem{C: c, Constraints: cons, Upper: upper})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if sol.Status != lp.Optimal {
			t.Fatalf("trial %d: LP status %v for feasible flow", trial, sol.Status)
		}
		lpCost := -sol.Obj
		if math.Abs(lpCost-float64(cost)) > 1e-6 {
			t.Errorf("trial %d: SSP cost %d, LP cost %v (flow %d)", trial, cost, lpCost, flow)
		}
	}
}

// TestMaxFlowMatchesLP: the max flow value itself must match the LP with a
// free flow variable.
func TestMaxFlowMatchesLP(t *testing.T) {
	// Fixed layered network with parallel routes.
	type arcRec struct{ from, to, cap int }
	arcs := []arcRec{
		{0, 1, 3}, {0, 2, 2}, {1, 3, 2}, {1, 4, 2}, {2, 4, 2},
		{3, 5, 2}, {4, 5, 3}, {2, 3, 1},
	}
	g := NewGraph(6, len(arcs))
	for _, a := range arcs {
		g.AddArc(a.from, a.to, a.cap, 1)
	}
	flow, _ := g.MinCostFlow(0, 5, -1)

	nv := len(arcs)
	c := make([]float64, nv)
	upper := make([]float64, nv)
	for i, a := range arcs {
		if a.from == 0 {
			c[i] = 1 // maximize outflow of source
		}
		upper[i] = float64(a.cap)
	}
	var cons []lp.Constraint
	for v := 1; v < 5; v++ {
		row := make([]float64, nv)
		for i, a := range arcs {
			if a.from == v {
				row[i] += 1
			}
			if a.to == v {
				row[i] -= 1
			}
		}
		cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: 0})
	}
	sol, err := lp.Solve(&lp.Problem{C: c, Constraints: cons, Upper: upper})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Obj-float64(flow)) > 1e-6 {
		t.Errorf("SSP max flow %d, LP max flow %v", flow, sol.Obj)
	}
}
