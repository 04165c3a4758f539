package mwcp

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// small fixed instance: 2 groups x 2 candidates.
func fixedSel() *Selection {
	// candidates: 0,1 (group 0), 2,3 (group 1)
	pw := make([][]float64, 4)
	for i := range pw {
		pw[i] = make([]float64, 4)
	}
	set := func(a, b int, w float64) { pw[a][b] = w; pw[b][a] = w }
	set(0, 2, -5)
	set(0, 3, -1)
	set(1, 2, 0)
	set(1, 3, -4)
	return &Selection{
		Groups: [][]int{{0, 1}, {2, 3}},
		NodeW:  []float64{-1, -2, -1, -3},
		PairW:  pw,
	}
}

func TestSolveExactFixed(t *testing.T) {
	s := fixedSel()
	pick, val, err := SolveExact(s)
	if err != nil {
		t.Fatal(err)
	}
	// Enumerate: (0,2): -1-1-5=-7; (0,3): -1-3-1=-5; (1,2): -2-1+0=-3; (1,3): -2-3-4=-9.
	if !approx(val, -3) {
		t.Fatalf("val = %v, want -3 (pick %v)", val, pick)
	}
	if pick[0] != 1 || pick[1] != 2 {
		t.Errorf("pick = %v, want [1 2]", pick)
	}
	if !approx(s.Value(pick), val) {
		t.Error("Value disagrees with returned val")
	}
}

func TestSolveILPFixed(t *testing.T) {
	pick, val, err := SolveILP(fixedSel())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(val, -3) || pick[0] != 1 || pick[1] != 2 {
		t.Fatalf("ILP pick = %v val = %v, want [1 2] at -3", pick, val)
	}
}

func TestSolveLocalFixed(t *testing.T) {
	pick, val, err := SolveLocal(fixedSel())
	if err != nil {
		t.Fatal(err)
	}
	if !approx(val, -3) || pick[0] != 1 || pick[1] != 2 {
		t.Fatalf("local pick = %v val = %v, want [1 2] at -3", pick, val)
	}
}

func TestPositivePairWeights(t *testing.T) {
	pw := make([][]float64, 4)
	for i := range pw {
		pw[i] = make([]float64, 4)
	}
	pw[0][2], pw[2][0] = 3, 3
	s := &Selection{
		Groups: [][]int{{0, 1}, {2, 3}},
		NodeW:  []float64{0, 1, 0, 1},
		PairW:  pw,
	}
	// (0,2): 3; (1,3): 2; (0,3): 1; (1,2): 1. Optimum 3.
	for name, solver := range map[string]func(*Selection) ([]int, float64, error){
		"exact": SolveExact, "ilp": SolveILP, "local": SolveLocal,
	} {
		pick, val, err := solver(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !approx(val, 3) || pick[0] != 0 || pick[1] != 2 {
			t.Errorf("%s: pick %v val %v, want [0 2] at 3", name, pick, val)
		}
	}
}

// TestSolversAgreeRandom checks the solvers against brute-force
// enumeration on small random instances of three shapes. PACOR-shaped ones
// have NodeW in [-lambda, 0] and sparse PairW <= 0 (Eqs. 2-4); on them
// SolveExact must return SolveILP's pick, not just its value, including
// where local search is not optimal. Dense negative ones, where most
// candidates conflict with a whole group, and mixed-sign ones check that
// SolveExact's half-weight bound never cuts off the optimum.
func TestSolversAgreeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	localMissed := 0
	for trial := 0; trial < 120; trial++ {
		shape := trial % 3
		density, mixed := []float64{0.3, 0.8, 1}[shape], shape == 2
		s := randomSelection(rng, 3+rng.Intn(5), 4, density, mixed)
		want := bruteForce(s)
		pe, ve, err := SolveExact(s)
		if err != nil {
			t.Fatal(err)
		}
		_, vl, err := SolveLocal(s)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(ve, want) {
			t.Errorf("trial %d (density %v, mixed %v): exact %v, brute force %v", trial, density, mixed, ve, want)
		}
		if vl > want+1e-9 {
			t.Errorf("trial %d: local %v beats brute force %v", trial, vl, want)
		}
		if shape != 0 {
			// The ILP takes seconds on dense instances;
			// TestPositivePairWeights covers its positive-weight rows.
			continue
		}
		if vl < want-1e-6 {
			localMissed++
		}
		pi, vi, err := SolveILP(s)
		if err != nil {
			t.Fatal(err)
		}
		if !approx(vi, want) || !slices.Equal(pe, pi) {
			t.Errorf("trial %d: exact pick %v at %v, ilp pick %v at %v", trial, pe, ve, pi, vi)
		}
	}
	if localMissed == 0 {
		t.Error("local search was optimal on every PACOR-shaped instance; the pick comparison never left the warm start")
	}
}

// randomSelection returns nGroups groups of 1..maxPer candidates with
// weights on about density of the cross-group pairs. A mixed instance has
// NodeW in [-1, 1] and PairW in [-2, 2]; otherwise NodeW is in [-0.1, 0]
// and PairW in [-2, 0].
func randomSelection(rng *rand.Rand, nGroups, maxPer int, density float64, mixed bool) *Selection {
	var groups [][]int
	var gOf []int
	for g := 0; g < nGroups; g++ {
		var grp []int
		for k := rng.Intn(maxPer); k >= 0; k-- {
			grp = append(grp, len(gOf))
			gOf = append(gOf, g)
		}
		groups = append(groups, grp)
	}
	n := len(gOf)
	nodeW := make([]float64, n)
	pw := make([][]float64, n)
	for i := range pw {
		pw[i] = make([]float64, n)
		if mixed {
			nodeW[i] = 2*rng.Float64() - 1
		} else {
			nodeW[i] = -0.1 * rng.Float64()
		}
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if gOf[a] == gOf[b] || rng.Float64() >= density {
				continue
			}
			w := -2 * rng.Float64()
			if mixed {
				w = 4*rng.Float64() - 2
			}
			pw[a][b], pw[b][a] = w, w
		}
	}
	return &Selection{Groups: groups, NodeW: nodeW, PairW: pw}
}

// bruteForce returns the best objective over every pick.
func bruteForce(s *Selection) float64 {
	best := math.Inf(-1)
	pick := make([]int, len(s.Groups))
	var rec func(gi int)
	rec = func(gi int) {
		if gi == len(s.Groups) {
			best = math.Max(best, s.Value(pick))
			return
		}
		for _, c := range s.Groups[gi] {
			pick[gi] = c
			rec(gi + 1)
		}
	}
	rec(0)
	return best
}

// TestSolversKeepTiedWarmStart gives an instance two optimal picks, (0,2)
// and (1,3), where local search finds (1,3) and a search with no incumbent in
// either solver's visit order meets (0,2) first. Both exact solvers must
// keep the warm start: a pick replaces it only when strictly better.
func TestSolversKeepTiedWarmStart(t *testing.T) {
	pw := make([][]float64, 5)
	for i := range pw {
		pw[i] = make([]float64, 5)
	}
	set := func(a, b int, w float64) { pw[a][b], pw[b][a] = w, w }
	set(0, 3, -2)
	set(0, 4, -2)
	set(1, 2, -3)
	set(1, 3, -1)
	set(1, 4, -3)
	s := &Selection{
		Groups: [][]int{{0, 1}, {2, 3, 4}},
		NodeW:  []float64{-1, -0.5, -0.5, 0, 0},
		PairW:  pw,
	}
	// (0,2) = -1-0.5+0 = -1.5 and (1,3) = -0.5+0-1 = -1.5; every other pick
	// is at most -3.
	if !approx(bruteForce(s), -1.5) {
		t.Fatalf("optimum %v, want -1.5", bruteForce(s))
	}
	want := []int{1, 3}
	if pick, _, err := SolveLocal(s); err != nil || !slices.Equal(pick, want) {
		t.Fatalf("local pick %v (%v), want %v", pick, err, want)
	}
	for name, solver := range map[string]func(*Selection) ([]int, float64, error){
		"exact": SolveExact, "ilp": SolveILP,
	} {
		pick, val, err := solver(s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !slices.Equal(pick, want) || !approx(val, -1.5) {
			t.Errorf("%s: pick %v val %v, want the warm start %v at -1.5", name, pick, val, want)
		}
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Selection{
		{Groups: [][]int{{0}}, NodeW: []float64{0}, PairW: [][]float64{}},
		{Groups: [][]int{{}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{5}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{0}, {0}}, NodeW: []float64{0}, PairW: [][]float64{{0}}},
		{Groups: [][]int{{0}}, NodeW: []float64{0, 0}, PairW: [][]float64{{0}, {0, 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestMaxWeightCliqueTriangle(t *testing.T) {
	g := NewCliqueGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	clique, w := MaxWeightClique(g)
	if !approx(w, 3) || len(clique) != 3 {
		t.Fatalf("clique = %v w=%v, want triangle 0-1-2", clique, w)
	}
	if clique[0] != 0 || clique[1] != 1 || clique[2] != 2 {
		t.Errorf("clique = %v", clique)
	}
}

func TestMaxWeightCliqueWeighted(t *testing.T) {
	// A heavy isolated vertex beats a light triangle.
	g := NewCliqueGraph(4)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.W[3] = 10
	clique, w := MaxWeightClique(g)
	if !approx(w, 10) || len(clique) != 1 || clique[0] != 3 {
		t.Fatalf("clique = %v w=%v, want [3] at 10", clique, w)
	}
}

func TestMaxWeightCliqueEmpty(t *testing.T) {
	clique, w := MaxWeightClique(NewCliqueGraph(0))
	if len(clique) != 0 || w != 0 {
		t.Error("empty graph should give empty clique")
	}
}

func TestMaxWeightCliqueVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 25; trial++ {
		n := 3 + rng.Intn(8)
		g := NewCliqueGraph(n)
		for i := range g.W {
			g.W[i] = rng.Float64() * 5
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if rng.Float64() < 0.5 {
					g.AddEdge(a, b)
				}
			}
		}
		_, got := MaxWeightClique(g)
		// Brute force.
		best := 0.0
		for mask := 0; mask < 1<<n; mask++ {
			ok := true
			w := 0.0
			for a := 0; a < n && ok; a++ {
				if mask&(1<<a) == 0 {
					continue
				}
				w += g.W[a]
				for b := a + 1; b < n; b++ {
					if mask&(1<<b) != 0 && !g.Adj[a][b] {
						ok = false
						break
					}
				}
			}
			if ok && w > best {
				best = w
			}
		}
		if !approx(got, best) {
			t.Errorf("trial %d: B&B %v, brute force %v", trial, got, best)
		}
	}
}

func TestCliqueSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on self-loop")
		}
	}()
	NewCliqueGraph(2).AddEdge(1, 1)
}
