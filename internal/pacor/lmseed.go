package pacor

// Cross-run reuse of the candidate-generation and selection sub-stage of
// routeLMClusters. It was written when the MWCP ILP was over half of a cold
// S5 route; with the branch-and-bound default, selection takes well under a
// millisecond there.
//
// Soundness rests on two determinism arguments:
//
//  1. Candidate replay (per cluster). dme.CandidatesTraced reads the
//     obstacle map only through freeNear probes; everything else it computes
//     is pure geometry of the sink sequence. The recorded probe cone is
//     therefore the construction's entire external read set, and the probe
//     sequence itself is determined by the obstacle content at the probed
//     cells (each probe's position depends only on earlier probe outcomes
//     and the sinks). So if a new run has the same sink sequence and its
//     obstacle map agrees with the captured run's on every recorded cell,
//     re-running would reproduce the capture exactly — the seed returns the
//     captured candidate trees without running it. The cone test is a
//     bitmap intersection against the diff of the two runs' obstacle
//     bitmaps, both taken at stage entry (static obstacles plus valves).
//
//  2. Selection replay (whole instance). seltree.Select is a deterministic
//     function of the ordered candidate lists and its config. The seed
//     fingerprints the ordered lists (dme.Fingerprint) and replays the
//     captured picks when the fingerprint, cluster count, and config (baked
//     into the seed's params signature) all match — whether the individual
//     lists were themselves replayed or regenerated to identical content.
//
// Both replays return exactly what recomputation would, so routed output is
// byte-identical with and without a seed for every hit/miss combination.
// LM clusters come from the design's explicit LMClusters list, so editing an
// ordinary valve leaves every sink sequence untouched: the common
// interactive edit replays candidate generation and selection wholesale and
// pays only for the stages that genuinely depend on the moved cell.

import (
	"fmt"

	"repro/internal/dme"
	"repro/internal/geom"
	"repro/internal/grid"
)

// LMClusterSeed is one captured tree cluster: its sink sequence (the cluster
// identity — candidate construction is order-sensitive), the read cone of
// its candidate construction, and the constructed candidates. Cands aliases
// the capturing run's trees; they are immutable after construction.
type LMClusterSeed struct {
	Sinks []geom.Pt
	Cone  []int32 // in-grid cells probed during construction (may repeat)
	Cands []*dme.Tree
	Hash  uint64 // dme.Fingerprint(Cands)
}

// LMSeed is a captured run of the candidate/selection sub-stage, usable to
// seed a later run on the same grid with the same stage parameters.
type LMSeed struct {
	W, H int
	Sig  string   // lmParamsSig of the capturing run
	Bits []uint64 // obstacle bitmap (static + valves) at stage entry

	// Clusters holds one entry per tree cluster, in flow order.
	Clusters []LMClusterSeed

	// SelKey fingerprints the selection instance (ordered candidate lists of
	// the non-demoted clusters); Picks is seltree.Select's output for it.
	// HavePicks distinguishes a captured selection from a mode that never
	// selects (w/o Sel) or an instance with no tree clusters.
	SelKey    uint64
	Picks     []int
	HavePicks bool
}

// SizeBytes estimates the seed's resident size (for cache accounting).
func (s *LMSeed) SizeBytes() int64 {
	if s == nil {
		return 0
	}
	n := int64(96) + int64(len(s.Bits))*8 + int64(len(s.Picks))*8
	for i := range s.Clusters {
		c := &s.Clusters[i]
		n += 64 + int64(len(c.Sinks))*16 + int64(len(c.Cone))*4
		for _, t := range c.Cands {
			n += 64 + int64(len(t.Sinks)+len(t.Pos))*16 + int64(len(t.Req)+len(t.Topo.Nodes))*8
		}
	}
	return n
}

// LMReuseStats reports what the LM-stage seed replayed in one run.
type LMReuseStats struct {
	// CandClusters counts tree clusters; CandReplayed of them took their
	// candidate lists from the seed instead of running construction.
	CandClusters int
	CandReplayed int
	// SelectionReplayed is true when the MWCP selection was served from the
	// seed (the solver did not run).
	SelectionReplayed bool
}

// lmParamsSig captures every parameter the candidate/selection sub-stage
// depends on. Hier and the negotiation knobs are excluded: they do not
// reach this stage.
func lmParamsSig(p Params) string {
	return fmt.Sprintf("m=%d;mc=%d;l=%g;sv=%d;ec=%t", p.Mode, p.MaxCandidates, p.Lambda, p.Solver, p.ExactClustering)
}

// usable reports whether s can seed a run on grid w x h with signature sig.
func (s *LMSeed) usable(w, h int, sig string) bool {
	return s != nil && s.W == w && s.H == h && s.Sig == sig &&
		len(s.Bits) == (w*h+63)/64
}

// lookup returns the captured cluster with exactly the given sink sequence.
// Linear scan: tree-cluster counts are small (single digits on the paper
// benchmarks) and the scan runs once per cluster per route.
func (s *LMSeed) lookup(sinks []geom.Pt) *LMClusterSeed {
	for i := range s.Clusters {
		c := &s.Clusters[i]
		if len(c.Sinks) != len(sinks) {
			continue
		}
		same := true
		for j := range sinks {
			if c.Sinks[j] != sinks[j] {
				same = false
				break
			}
		}
		if same {
			return c
		}
	}
	return nil
}

// coneClean reports whether none of the probed cells changed between the
// captured and the current run (diff is the XOR of the two obstacle
// bitmaps). A nil diff means no seed — never clean.
func coneClean(cone []int32, diff []uint64) bool {
	if diff == nil {
		return false
	}
	for _, c := range cone {
		if diff[c>>6]&(1<<(uint(c)&63)) != 0 {
			return false
		}
	}
	return true
}

// diffBitmaps returns a XOR b (length-checked by the caller via usable).
func diffBitmaps(a, b []uint64) []uint64 {
	out := make([]uint64, len(a))
	for i := range a {
		out[i] = a[i] ^ b[i]
	}
	return out
}

// selInstanceKey fingerprints the whole selection instance from the ordered
// per-cluster candidate fingerprints.
func selInstanceKey(hashes []uint64) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	mix := func(v uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (v >> s) & 0xff
			h *= prime64
		}
	}
	mix(uint64(len(hashes)))
	for _, v := range hashes {
		mix(v)
	}
	return h
}

// conePt converts a probed cell to its bitmap index.
func conePt(g grid.Grid, p geom.Pt) int32 {
	return int32(p.Y*g.W + p.X)
}
