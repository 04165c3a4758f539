package pacor

import (
	"time"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// ClusterResult reports one cluster's routing outcome.
type ClusterResult struct {
	ID     int
	Valves []int
	// LM records whether the cluster carried the length-matching constraint
	// as given (before any de-clustering).
	LM bool
	// Matched is true when the final per-valve channel lengths to the shared
	// point agree within the design's delta.
	Matched bool
	// Demoted is true when the LM constraint had to be abandoned (failed
	// negotiation routing or escape de-clustering).
	Demoted bool
	// Routed is true when the cluster reached a control pin.
	Routed bool
	// Paths are the cluster-internal channel segments.
	Paths []grid.Path
	// Escape is the channel from the cluster's take-off to its pin.
	Escape grid.Path
	// Pin is the assigned control pin (valid when Routed).
	Pin geom.Pt
	// FullLens are the per-valve channel lengths to the shared point
	// (tree root or pair tap); nil for ordinary clusters.
	FullLens []int
}

// InternalLen sums the cluster-internal channel length.
func (c *ClusterResult) InternalLen() int {
	n := 0
	for _, p := range c.Paths {
		n += p.Len()
	}
	return n
}

// TotalLen sums internal and escape channel length.
func (c *ClusterResult) TotalLen() int { return c.InternalLen() + c.Escape.Len() }

// Result is the outcome of one full flow run — the row data of Table 2.
type Result struct {
	Mode     Mode
	Clusters []ClusterResult
	// MultiClusters counts clusters with >= 2 valves ("#Clusters").
	MultiClusters int
	// MatchedClusters counts multi-valve clusters routed with the
	// length-matching constraint satisfied ("#Matched Clusters").
	MatchedClusters int
	// MatchedLen is the summed channel length of matched clusters
	// ("Total matched channel length").
	MatchedLen int
	// TotalLen is the summed channel length of all channels
	// ("Total channel length").
	TotalLen int
	// RoutedValves / TotalValves give the routing completion rate.
	RoutedValves, TotalValves int
	Runtime                   time.Duration
	// StageTimes records wall time per flow stage (clustering, lmrouting,
	// mstrouting, escape, detour) for profiling and the runtime columns.
	StageTimes map[string]time.Duration
	// Negotiate aggregates Algorithm 1's work and cross-run seeding counters
	// across every negotiation call of the run (LM routing, rescue, refine).
	// The counters are deterministic, and a seeded replay replaces exactly
	// one search (a cold run's Searches equals a seeded run's Searches +
	// SeededHits).
	Negotiate route.NegotiateStats
	// LMReuse is always zero; see LMReuseStats.
	LMReuse LMReuseStats
	// EscapeHier aggregates the hierarchical escape router's per-stage work
	// across the escape retries (zero when the hierarchy is off or the grid
	// is below its auto threshold; see Params.Hier).
	EscapeHier route.HierStats
}

// LMReuseStats is always zero: nothing replays the DME candidates or the
// MWCP selection across runs. It remains only because cmd/pacorbench reads
// its fields.
type LMReuseStats struct {
	CandClusters      int
	CandReplayed      int
	SelectionReplayed bool
}

// CompletionRate returns the fraction of valves connected to a control pin.
func (r *Result) CompletionRate() float64 {
	if r.TotalValves == 0 {
		return 1
	}
	return float64(r.RoutedValves) / float64(r.TotalValves)
}

// AllPaths returns every channel path of the solution (for rendering and
// design-rule verification).
func (r *Result) AllPaths() []grid.Path {
	var out []grid.Path
	for i := range r.Clusters {
		out = append(out, r.Clusters[i].Paths...)
		if len(r.Clusters[i].Escape) > 0 {
			out = append(out, r.Clusters[i].Escape)
		}
	}
	return out
}
