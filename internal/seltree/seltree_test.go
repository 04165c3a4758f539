package seltree

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/mwcp"
)

func candsFor(t *testing.T, obs *grid.ObsMap, clusters [][]geom.Pt, maxCand int) [][]*dme.Tree {
	t.Helper()
	var out [][]*dme.Tree
	for _, sinks := range clusters {
		c := dme.Candidates(obs, sinks, maxCand)
		if len(c) == 0 {
			t.Fatalf("no candidates for %v", sinks)
		}
		out = append(out, c)
	}
	return out
}

func TestSelectSingleCluster(t *testing.T) {
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 17, Y: 11}, {X: 5, Y: 25}, {X: 17, Y: 31}},
	}, 6)
	for _, solver := range []Solver{SolverILP, SolverExact, SolverLocal} {
		cfg := DefaultConfig()
		cfg.Solver = solver
		pick, err := Select(cands, cfg)
		if err != nil {
			t.Fatalf("solver %d: %v", solver, err)
		}
		if len(pick) != 1 || pick[0] < 0 || pick[0] >= len(cands[0]) {
			t.Fatalf("solver %d: pick = %v", solver, pick)
		}
	}
}

func TestSelectAvoidsOverlap(t *testing.T) {
	// Two clusters side by side; candidates overlapping the neighbor's
	// territory must be penalized, so the selected pair should have less
	// overlap cost than the worst pair.
	g := grid.New(60, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 21, Y: 13}, {X: 5, Y: 25}, {X: 21, Y: 33}},
		{{X: 35, Y: 5}, {X: 51, Y: 13}, {X: 35, Y: 25}, {X: 51, Y: 33}},
	}, 6)
	pick, err := Select(cands, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sel := buildSelection(cands, 0.1)
	// Compare the chosen assignment's objective to all single-candidate
	// alternatives; it must be the maximum (the default solver is exact).
	flatPick := []int{pick[0], len(cands[0]) + pick[1]}
	chosen := sel.Value(flatPick)
	for a := 0; a < len(cands[0]); a++ {
		for b := 0; b < len(cands[1]); b++ {
			v := sel.Value([]int{a, len(cands[0]) + b})
			if v > chosen+1e-9 {
				t.Fatalf("selection suboptimal: (%d,%d) has %v > chosen %v", a, b, v, chosen)
			}
		}
	}
}

func TestSelectEmpty(t *testing.T) {
	pick, err := Select(nil, DefaultConfig())
	if err != nil || pick != nil {
		t.Error("empty input should return nil, nil")
	}
}

func TestSelectMissingCandidates(t *testing.T) {
	if _, err := Select([][]*dme.Tree{{}}, DefaultConfig()); err == nil {
		t.Error("cluster with no candidates must error")
	}
}

func TestSelectLocalFallbackOnSize(t *testing.T) {
	g := grid.New(120, 120)
	obs := grid.NewObsMap(g)
	var clusters [][]geom.Pt
	for i := 0; i < 8; i++ {
		bx, by := (i%4)*30+4, (i/4)*60+4
		clusters = append(clusters, []geom.Pt{
			{X: bx, Y: by}, {X: bx + 12, Y: by + 6}, {X: bx, Y: by + 20}, {X: bx + 12, Y: by + 26},
		})
	}
	cands := candsFor(t, obs, clusters, 8)
	cfg := DefaultConfig()
	cfg.LocalFallbackSize = 10 // force the fallback path
	pick, err := Select(cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(pick) != 8 {
		t.Fatalf("picks = %d", len(pick))
	}
	for i, p := range pick {
		if p < 0 || p >= len(cands[i]) {
			t.Errorf("pick[%d] = %d out of range", i, p)
		}
	}
}

// TestSelectFallsBackPastNodeCap routes a selection too dense for the
// branch and bound to certify within its node cap: 16 clusters of 6
// candidates (96, not above LocalFallbackSize) with overlap weights on 60%
// of the cross-cluster pairs. SolveExact gives up with an error, and the
// selection must take local search's pick rather than fail or fall to
// every cluster's first candidate.
func TestSelectFallsBackPastNodeCap(t *testing.T) {
	const groups, per = 16, 6
	rng := rand.New(rand.NewSource(1))
	n := groups * per
	sel := &mwcp.Selection{NodeW: make([]float64, n), PairW: make([][]float64, n)}
	for g := 0; g < groups; g++ {
		var grp []int
		for k := 0; k < per; k++ {
			grp = append(grp, g*per+k)
		}
		sel.Groups = append(sel.Groups, grp)
	}
	for i := range sel.PairW {
		sel.PairW[i] = make([]float64, n)
		sel.NodeW[i] = -0.1 * rng.Float64()
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if a/per != b/per && rng.Float64() < 0.6 {
				w := -rng.Float64()
				sel.PairW[a][b], sel.PairW[b][a] = w, w
			}
		}
	}
	cfg := DefaultConfig()
	if n > cfg.LocalFallbackSize {
		t.Fatalf("%d candidates skip the exact solver", n)
	}
	if _, _, err := mwcp.SolveExact(sel); err == nil {
		t.Fatal("SolveExact certified the dense instance; it no longer exercises the node cap")
	}
	want, _, err := mwcp.SolveLocal(sel)
	if err != nil {
		t.Fatal(err)
	}
	got, err := solve(sel, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Errorf("pick %v, want local search's %v", got, want)
	}
}

func TestBuildSelectionWeights(t *testing.T) {
	g := grid.New(40, 40)
	obs := grid.NewObsMap(g)
	cands := candsFor(t, obs, [][]geom.Pt{
		{{X: 5, Y: 5}, {X: 17, Y: 11}},
		{{X: 5, Y: 25}, {X: 17, Y: 31}},
	}, 3)
	sel := buildSelection(cands, 0.1)
	if err := sel.Validate(); err != nil {
		t.Fatal(err)
	}
	for i, w := range sel.NodeW {
		if w > 0 || w < -0.1 {
			t.Errorf("NodeW[%d] = %v outside [-lambda, 0]", i, w)
		}
	}
	for i := range sel.PairW {
		for j := range sel.PairW[i] {
			if sel.PairW[i][j] > 0 {
				t.Errorf("PairW[%d][%d] = %v positive", i, j, sel.PairW[i][j])
			}
			if sel.PairW[i][j] != sel.PairW[j][i] {
				t.Errorf("PairW not symmetric at %d,%d", i, j)
			}
		}
	}
}
