// Package pacor orchestrates the complete control-layer routing flow of the
// paper (Figure 2): valve clustering, length-matching-aware cluster routing
// (DME candidates -> MWCP selection -> negotiation routing), MST-based
// routing for ordinary clusters, min-cost-flow escape routing to control
// pins with de-clustering retries, and final path detouring for the
// length-matching constraint.
package pacor

import (
	"repro/internal/route"
	"repro/internal/seltree"
)

// Mode selects the flow variant, matching the self-comparison columns of
// Table 2.
type Mode int

// Flow variants.
const (
	// ModePACOR is the full flow: candidate selection, escape routing, and
	// final-stage detouring.
	ModePACOR Mode = iota
	// ModeWithoutSelection ("w/o Sel") skips the MWCP candidate-tree
	// selection and takes each cluster's first candidate.
	ModeWithoutSelection
	// ModeDetourFirst detours for length matching immediately after the
	// negotiation-based routing stage, before escape routing.
	ModeDetourFirst
)

func (m Mode) String() string {
	switch m {
	case ModePACOR:
		return "PACOR"
	case ModeWithoutSelection:
		return "w/o Sel"
	case ModeDetourFirst:
		return "Detour First"
	}
	return "unknown"
}

// Params are the flow's tuning knobs; defaults mirror the paper.
type Params struct {
	Mode Mode
	// MaxCandidates bounds candidate Steiner trees per cluster.
	MaxCandidates int
	// Lambda weighs mismatch vs overlap in selection (Eq. 2-3).
	Lambda float64
	// Negotiate holds Algorithm 1's bg/alpha/gamma, and the cross-run
	// Seed and Capture (designcache sets both). Only the main
	// length-matching negotiation uses Seed and Capture: rescue and
	// refinement negotiate one cluster's edges on a different base map,
	// where the transcript does not apply, and run with both cleared. A
	// seed never changes routed output (route/seed.go's cone-disjointness
	// gate), and a capture receives the main call's transcript for a later
	// run's Seed.
	Negotiate route.NegotiateParams
	// Hier selects the hierarchical two-stage escape router
	// (escape.RouteHier). It is approximate: pin assignment and total
	// length may differ from the flat flow network; Result.EscapeHier
	// reports the stage's work. The zero value is auto: hierarchical only
	// above route.DefaultHierAutoCells, so every Table 1 design routes
	// flat.
	Hier route.HierMode
	// Solver picks the MWCP selection solver. The default is the exact
	// branch and bound (mwcp.SolveExact). The paper adopted an ILP;
	// seltree.SolverILP runs it as the paper-fidelity ablation, and it
	// returns the same picks, only slower.
	Solver seltree.Solver
}

// escapeRetries bounds the de-clustering/rip-up escape rounds.
const escapeRetries = 6

// DefaultParams returns the paper's settings, with the exact branch and
// bound in place of its ILP for candidate selection.
func DefaultParams() Params {
	return Params{
		Mode:          ModePACOR,
		MaxCandidates: 6,
		Lambda:        0.1,
		Negotiate:     route.DefaultNegotiateParams(),
		Solver:        seltree.SolverExact,
	}
}
