// Package mwcp solves the maximum-weight clique problems that arise when
// selecting one candidate Steiner tree per cluster (Section 4.2 of the
// paper). Candidates of the same cluster are pairwise non-adjacent, so the
// underlying graph is complete multipartite and a clique contains at most
// one candidate per cluster; the paper further requires every cluster to be
// covered, which turns the problem into "pick exactly one node per group,
// maximizing node weights plus induced edge weights".
//
// Mirroring the paper, three solvers are provided: an exact branch and
// bound (SolveExact, the flow's default), an ILP-based method on top of
// internal/ilp (SolveILP — the variant the paper adopted, kept as its
// ablation and as SolveExact's reference in tests), and an unconstrained-
// quadratic-programming-style local search (SolveLocal), whose pick
// warm-starts both exact solvers. A generic maximum-weight-clique routine
// (MaxWeightClique) is exposed for the clustering formulation and for
// cross-validation in tests.
//
// SolveExact bounds each open group by its best candidate's node weight,
// exact pair weights to the picks so far, and half the best pair weight
// into every other open group. The bound holds for pair weights of either
// sign; PACOR's overlap weights are all zero or negative (Eqs. 3-4), so a
// bound that ignores negative weights would prove nothing. The two exact
// solvers share one tie rule: a pick replaces the incumbent only when it
// is better by more than 1e-6, ilp's integrality tolerance. So both return
// an optimal warm start unchanged, which is why they pick alike on PACOR's
// selections. Both return an error past ilp.MaxNodes search nodes.
package mwcp

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"repro/internal/ilp"
	"repro/internal/lp"
)

// Selection is a grouped quadratic selection problem: pick exactly one
// candidate from each group to maximize
//
//	sum_i NodeW[pick_i] + sum_{i<j} PairW[pick_i][pick_j].
//
// NodeW is indexed by candidate; PairW must be symmetric with a zero
// diagonal, and entries between candidates of the same group are ignored.
type Selection struct {
	Groups [][]int
	NodeW  []float64
	PairW  [][]float64
}

// Validate checks structural consistency.
func (s *Selection) Validate() error {
	n := len(s.NodeW)
	if len(s.PairW) != n {
		return fmt.Errorf("mwcp: PairW has %d rows, want %d", len(s.PairW), n)
	}
	for i, row := range s.PairW {
		if len(row) != n {
			return fmt.Errorf("mwcp: PairW row %d has %d cols, want %d", i, len(row), n)
		}
	}
	seen := make([]bool, n)
	for gi, g := range s.Groups {
		if len(g) == 0 {
			return fmt.Errorf("mwcp: group %d is empty", gi)
		}
		for _, c := range g {
			if c < 0 || c >= n {
				return fmt.Errorf("mwcp: group %d references candidate %d (n=%d)", gi, c, n)
			}
			if seen[c] {
				return fmt.Errorf("mwcp: candidate %d in multiple groups", c)
			}
			seen[c] = true
		}
	}
	return nil
}

// Value computes the objective of a complete pick (one candidate index per
// group).
func (s *Selection) Value(pick []int) float64 {
	v := 0.0
	for i, c := range pick {
		v += s.NodeW[c]
		for _, d := range pick[i+1:] {
			v += s.PairW[c][d]
		}
	}
	return v
}

// tieTol is the margin by which a pick must beat the incumbent to replace
// it, and by which a bound must beat the incumbent to be explored. It is
// internal/ilp's integrality tolerance, so SolveExact keeps an optimal warm
// start exactly when SolveILP does.
const tieTol = 1e-6

// maxNodes caps SolveExact's search tree at the ILP's node limit.
const maxNodes = ilp.MaxNodes

// SolveExact finds an optimal pick by depth-first branch and bound over
// groups, starting from SolveLocal's pick as the incumbent.
//
// The bound of an open group g is the maximum over its candidates c of
// NodeW[c], plus the exact PairW from c to every candidate picked so far,
// plus, for each other open group h, half the best PairW[c][d] over d in h.
// A node's bound is the value accumulated so far plus the sum of its open
// groups' bounds. A pair of future picks (c in g, d in h) adds PairW[c][d],
// which is at most half of g's best weight into h plus half of h's best
// weight into g, so the bound holds for weights of either sign.
//
// It branches on the smallest open group, the lowest index on ties, and
// visits that group's candidates in descending order of their term in the
// group's bound. A node is pruned when its bound is at most the incumbent
// plus 1e-6, and a pick replaces the incumbent only when it is better by
// more than that. So an optimal warm start is returned as it is, as
// SolveILP returns it. Past ilp.MaxNodes nodes SolveExact returns an
// error, as SolveILP does.
func SolveExact(s *Selection) ([]int, float64, error) {
	warm, warmVal, err := SolveLocal(s)
	if err != nil {
		return nil, 0, err
	}
	b := newSearch(s, warm, warmVal)
	if err := b.branch(0, 0); err != nil {
		return nil, 0, err
	}
	return b.best, s.Value(b.best), nil
}

// search is SolveExact's state. At depth d the groups order[:d] are
// picked, and for every candidate x of an open group picked[d][x] is the
// exact PairW from x to those picks and future[d][x] is the sum of
// half[x][h] over the open groups h other than x's own.
type search struct {
	s      *Selection
	order  []int
	half   [][]float64 // half[x][h]: half the best PairW from x into group h
	picked [][]float64
	future [][]float64
	// term[x] is x's term in its group's bound at the node that last
	// bounded x's group; the node branching on that group reads it.
	term    []float64
	kids    [][]int // per depth: the branching group's visit order
	pick    []int   // by group
	best    []int
	bestVal float64
	nodes   int
}

func newSearch(s *Selection, warm []int, warmVal float64) *search {
	n, ng := len(s.NodeW), len(s.Groups)
	order := make([]int, ng)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(x, y int) int { return cmp.Compare(len(s.Groups[x]), len(s.Groups[y])) })
	b := &search{
		s: s, order: order,
		half:    make([][]float64, n),
		picked:  make([][]float64, ng+1),
		future:  make([][]float64, ng+1),
		term:    make([]float64, n),
		kids:    make([][]int, ng),
		pick:    make([]int, ng),
		best:    append([]int(nil), warm...),
		bestVal: warmVal,
	}
	for d := range b.picked {
		b.picked[d] = make([]float64, n)
		b.future[d] = make([]float64, n)
	}
	for gi, g := range s.Groups {
		for _, x := range g {
			b.half[x] = make([]float64, ng)
			for hi, h := range s.Groups {
				if hi == gi {
					continue
				}
				best := math.Inf(-1)
				for _, d := range h {
					best = math.Max(best, s.PairW[x][d])
				}
				b.half[x][hi] = best / 2
				b.future[0][x] += best / 2
			}
		}
	}
	return b
}

// branch explores the node at depth d, whose picks are worth acc.
func (b *search) branch(d int, acc float64) error {
	b.nodes++
	if b.nodes > maxNodes {
		return fmt.Errorf("mwcp: branch and bound exceeded %d nodes", maxNodes)
	}
	s := b.s
	if d == len(b.order) {
		if acc > b.bestVal+tieTol {
			b.bestVal = acc
			copy(b.best, b.pick)
		}
		return nil
	}
	picked, future := b.picked[d], b.future[d]
	groupBound := func(g int) float64 {
		gb := math.Inf(-1)
		for _, x := range s.Groups[g] {
			b.term[x] = s.NodeW[x] + picked[x] + future[x]
			gb = math.Max(gb, b.term[x])
		}
		return gb
	}
	g := b.order[d]
	rest := acc
	for _, h := range b.order[d+1:] {
		rest += groupBound(h)
	}
	if rest+groupBound(g) <= b.bestVal+tieTol {
		return nil
	}
	kids := append(b.kids[d][:0], s.Groups[g]...)
	b.kids[d] = kids
	slices.SortStableFunc(kids, func(x, y int) int { return cmp.Compare(b.term[y], b.term[x]) })
	for _, c := range kids {
		// The child's bound is at most rest+term[c] (docs/ALGORITHMS.md),
		// and the later children's terms are no higher.
		if rest+b.term[c] <= b.bestVal+tieTol {
			break
		}
		nextPicked, nextFuture := b.picked[d+1], b.future[d+1]
		for _, h := range b.order[d+1:] {
			for _, x := range s.Groups[h] {
				nextPicked[x] = picked[x] + s.PairW[x][c]
				nextFuture[x] = future[x] - b.half[x][g]
			}
		}
		b.pick[g] = c
		if err := b.branch(d+1, acc+s.NodeW[c]+picked[c]); err != nil {
			return err
		}
	}
	return nil
}

// SolveILP solves the selection with the linearized 0-1 program the paper
// feeds to Gurobi: x_c per candidate with one-per-group equality rows, and a
// product variable y_{cd} per nonzero pair weight, linearized according to
// the weight's sign.
func SolveILP(s *Selection) ([]int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	n := len(s.NodeW)
	group := make([]int, n)
	for i := range group {
		group[i] = -1
	}
	for gi, g := range s.Groups {
		for _, c := range g {
			group[c] = gi
		}
	}
	type pair struct{ a, b int }
	var pairs []pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if group[a] == -1 || group[b] == -1 || group[a] == group[b] {
				continue
			}
			if s.PairW[a][b] != 0 {
				pairs = append(pairs, pair{a, b})
			}
		}
	}
	nv := n + len(pairs)
	c := make([]float64, nv)
	binary := make([]bool, nv)
	upper := make([]float64, nv)
	for i := 0; i < n; i++ {
		c[i] = s.NodeW[i]
		binary[i] = true
		upper[i] = 1
	}
	var cons []lp.Constraint
	for _, g := range s.Groups {
		row := make([]float64, nv)
		for _, cand := range g {
			row[cand] = 1
		}
		cons = append(cons, lp.Constraint{Coef: row, Op: lp.EQ, RHS: 1})
	}
	for pi, pr := range pairs {
		yi := n + pi
		w := s.PairW[pr.a][pr.b]
		c[yi] = w
		upper[yi] = 1
		if w < 0 {
			// Maximization pushes y down; force y >= xa + xb - 1.
			row := make([]float64, nv)
			row[pr.a], row[pr.b], row[yi] = 1, 1, -1
			cons = append(cons, lp.Constraint{Coef: row, Op: lp.LE, RHS: 1})
		} else {
			// Maximization pushes y up; force y <= xa and y <= xb.
			ra := make([]float64, nv)
			ra[yi], ra[pr.a] = 1, -1
			cons = append(cons, lp.Constraint{Coef: ra, Op: lp.LE, RHS: 0})
			rb := make([]float64, nv)
			rb[yi], rb[pr.b] = 1, -1
			cons = append(cons, lp.Constraint{Coef: rb, Op: lp.LE, RHS: 0})
		}
	}
	// Warm-start the branch and bound with the local-search solution: its
	// objective usually prunes most of the tree immediately.
	var warm []float64
	if lpick, _, lerr := SolveLocal(s); lerr == nil {
		warm = make([]float64, nv)
		for _, cand := range lpick {
			warm[cand] = 1
		}
		for pi, pr := range pairs {
			if warm[pr.a] > 0.5 && warm[pr.b] > 0.5 {
				warm[n+pi] = 1
			} else if s.PairW[pr.a][pr.b] < 0 {
				warm[n+pi] = 0
			}
		}
	}
	sol, err := ilp.Solve(&ilp.Problem{C: c, Constraints: cons, Binary: binary, Upper: upper, Warm: warm})
	if err != nil {
		return nil, 0, err
	}
	if sol.Status != lp.Optimal {
		return nil, 0, fmt.Errorf("mwcp: ILP status %v", sol.Status)
	}
	pick := make([]int, len(s.Groups))
	for gi, g := range s.Groups {
		pick[gi] = -1
		for _, cand := range g {
			if sol.X[cand] > 0.5 {
				pick[gi] = cand
				break
			}
		}
		if pick[gi] == -1 {
			return nil, 0, fmt.Errorf("mwcp: ILP left group %d unassigned", gi)
		}
	}
	return pick, s.Value(pick), nil
}

// SolveLocal runs a deterministic greedy construction followed by
// steepest-descent single-candidate swaps — the unconstrained quadratic
// programming flavor from the paper's reference [25], adapted to the
// one-per-group constraint by searching over feasible swaps only.
func SolveLocal(s *Selection) ([]int, float64, error) {
	if err := s.Validate(); err != nil {
		return nil, 0, err
	}
	pick := make([]int, len(s.Groups))
	// Greedy: assign groups in size order, choosing the candidate with the
	// best marginal value against already-picked candidates.
	order := make([]int, len(s.Groups))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return len(s.Groups[order[a]]) < len(s.Groups[order[b]])
	})
	done := make([]bool, len(s.Groups))
	for _, gi := range order {
		best, bestVal := -1, math.Inf(-1)
		for _, cand := range s.Groups[gi] {
			v := s.NodeW[cand]
			for gj, p := range pick {
				if done[gj] {
					v += s.PairW[cand][p]
				}
			}
			if v > bestVal {
				best, bestVal = cand, v
			}
		}
		pick[gi] = best
		done[gi] = true
	}
	// Steepest-descent over single-group swaps, escalating to simultaneous
	// two-group swaps when no single swap improves (escapes the shallow
	// local optima that pairwise interaction terms create).
	const maxRounds = 1000
	for round := 0; round < maxRounds; round++ {
		if s.improveSingle(pick) {
			continue
		}
		if !s.improvePair(pick) {
			break
		}
	}
	return pick, s.Value(pick), nil
}

// marginal returns the objective contribution of placing cand in group gi
// against the current pick of all other groups.
func (s *Selection) marginal(pick []int, gi, cand int) float64 {
	v := s.NodeW[cand]
	for gj, p := range pick {
		if gj != gi {
			v += s.PairW[cand][p]
		}
	}
	return v
}

func (s *Selection) improveSingle(pick []int) bool {
	bestGain := 1e-12
	bestGroup, bestCand := -1, -1
	for gi, g := range s.Groups {
		curVal := s.marginal(pick, gi, pick[gi])
		for _, cand := range g {
			if cand == pick[gi] {
				continue
			}
			if gain := s.marginal(pick, gi, cand) - curVal; gain > bestGain {
				bestGain, bestGroup, bestCand = gain, gi, cand
			}
		}
	}
	if bestGroup == -1 {
		return false
	}
	pick[bestGroup] = bestCand
	return true
}

func (s *Selection) improvePair(pick []int) bool {
	base := s.Value(pick)
	for gi := 0; gi < len(s.Groups); gi++ {
		for gj := gi + 1; gj < len(s.Groups); gj++ {
			for _, a := range s.Groups[gi] {
				for _, b := range s.Groups[gj] {
					if a == pick[gi] && b == pick[gj] {
						continue
					}
					oa, ob := pick[gi], pick[gj]
					pick[gi], pick[gj] = a, b
					if s.Value(pick) > base+1e-12 {
						return true
					}
					pick[gi], pick[gj] = oa, ob
				}
			}
		}
	}
	return false
}
