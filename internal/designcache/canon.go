// Package designcache is the cross-run routing cache: a content-addressed
// store of fully routed results keyed by a canonical hash of the valve
// design, with near-hit warm seeding of the negotiation stage for designs
// that differ only slightly from a cached parent (the interactive
// nudge-one-valve-and-reroute loop).
//
// Two key granularities coexist. The canonical key identifies designs up to
// semantically irrelevant JSON presentation — valve order, obstacle order,
// field order, whitespace — by fully sorting the canonical form. The raw key
// additionally preserves valve, pin, and LM-cluster order, because the
// routing flow is *not* permutation-equivariant: greedy clustering iterates
// valves by ID, so two valve orderings of one chip may route differently.
// Exact-hit replay therefore requires the raw forms to match; a
// canonical-key sibling with a different raw form is still a perfect warm
// parent (Jaccard 1.0) for a near-hit run.
package designcache

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/geom"
	"repro/internal/pacor"
	"repro/internal/valve"
)

// Key is a sha256 content hash of a design form plus the flow parameter
// signature.
type Key [sha256.Size]byte

// String renders the key as hex (the on-disk file name).
func (k Key) String() string { return fmt.Sprintf("%x", k[:]) }

// ParamsSig fingerprints every pacor parameter that can change routed
// output. Wall-clock-only knobs — Workers, Trace, and the seed/capture
// wiring itself — are deliberately excluded, so one cache entry serves every
// execution strategy (the byte-identity sweeps pin exactly this property).
func ParamsSig(p pacor.Params) string {
	return fmt.Sprintf("m=%d;mc=%d;l=%g;sv=%d;er=%d;ec=%t;bh=%g;a=%g;g=%d;hm=%d;ht=%d;ha=%d",
		p.Mode, p.MaxCandidates, p.Lambda, p.Solver, p.EscapeRetries, p.ExactClustering,
		p.Negotiate.BaseHist, p.Negotiate.Alpha, p.Negotiate.Gamma,
		p.Hier.Mode, p.Hier.TileSize, p.Hier.AutoCells)
}

// canonVersion stamps the serialization layout; bump on any format change so
// stale on-disk entries can never alias a new-format key.
const canonVersion = 1

type hasher struct {
	buf []byte
}

func (w *hasher) word(v int) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(int64(v)))
}

func (w *hasher) pt(p geom.Pt) { w.word(p.X); w.word(p.Y) }

func (w *hasher) str(s string) {
	w.word(len(s))
	w.buf = append(w.buf, s...)
}

// sortedPts returns a sorted copy of pts (Y-major, then X).
func sortedPts(pts []geom.Pt) []geom.Pt {
	s := append([]geom.Pt(nil), pts...)
	sort.Slice(s, func(i, j int) bool {
		if s[i].Y != s[j].Y {
			return s[i].Y < s[j].Y
		}
		return s[i].X < s[j].X
	})
	return s
}

// designHash serializes d deterministically and hashes it together with sig.
// When canonical is set, valves are visited in position-sorted order, LM
// clusters are remapped to position-sorted valve ranks and fully sorted, and
// pins are sorted; otherwise the design's own order is preserved for valves,
// pins, and clusters. Obstacles are always sorted: they populate a set (the
// ObsMap) and their order can never reach the routed result. Name is always
// excluded — it labels the instance, it is not part of it.
func designHash(d *valve.Design, sig string, canonical bool) Key {
	w := &hasher{buf: make([]byte, 0, 1024)}
	w.word(canonVersion)
	w.str(sig)
	w.word(d.W)
	w.word(d.H)
	w.word(d.Delta)

	order := make([]int, len(d.Valves))
	for i := range order {
		order[i] = i
	}
	if canonical {
		sort.Slice(order, func(a, b int) bool {
			pa, pb := d.Valves[order[a]].Pos, d.Valves[order[b]].Pos
			if pa.Y != pb.Y {
				return pa.Y < pb.Y
			}
			return pa.X < pb.X
		})
	}
	w.word(len(d.Valves))
	rank := make([]int, len(d.Valves))
	for ci, vi := range order {
		rank[vi] = ci
		v := &d.Valves[vi]
		w.pt(v.Pos)
		w.word(len(v.Seq))
		w.buf = append(w.buf, v.Seq.String()...)
	}

	obs := sortedPts(d.Obstacles)
	w.word(len(obs))
	for _, p := range obs {
		w.pt(p)
	}

	pins := d.Pins
	if canonical {
		pins = sortedPts(d.Pins)
	}
	w.word(len(pins))
	for _, p := range pins {
		w.pt(p)
	}

	clusters := d.LMClusters
	if canonical {
		clusters = make([][]int, len(d.LMClusters))
		for ci, c := range d.LMClusters {
			cc := make([]int, len(c))
			for i, id := range c {
				cc[i] = rank[id]
			}
			sort.Ints(cc)
			clusters[ci] = cc
		}
		sort.Slice(clusters, func(a, b int) bool {
			x, y := clusters[a], clusters[b]
			for i := 0; i < len(x) && i < len(y); i++ {
				if x[i] != y[i] {
					return x[i] < y[i]
				}
			}
			return len(x) < len(y)
		})
	}
	w.word(len(clusters))
	for _, c := range clusters {
		w.word(len(c))
		for _, id := range c {
			w.word(id)
		}
	}

	return sha256.Sum256(w.buf)
}

// CanonKey returns the canonical content key of d under sig: invariant to
// valve order, obstacle order, pin order, LM-cluster order, and any JSON
// presentation detail; sensitive to everything that defines the instance.
func CanonKey(d *valve.Design, sig string) Key { return designHash(d, sig, true) }

// RawKey returns the order-preserving content key of d under sig: the
// identity under which routed output is provably reproducible.
func RawKey(d *valve.Design, sig string) Key { return designHash(d, sig, false) }

// cellBits returns the design's occupied-cell bitmap (valves ∪ obstacles) —
// the geometry term of the Jaccard similarity that picks near-hit parents.
func cellBits(d *valve.Design) []uint64 {
	words := (d.W*d.H + 63) / 64
	bits := make([]uint64, words)
	set := func(p geom.Pt) {
		i := p.Y*d.W + p.X
		bits[i>>6] |= 1 << (uint(i) & 63)
	}
	for i := range d.Valves {
		set(d.Valves[i].Pos)
	}
	for _, p := range d.Obstacles {
		set(p)
	}
	return bits
}

// jaccard returns |a∩b| / |a∪b| over equal-length bitmaps (1.0 for two empty
// sets: identical geometry).
func jaccard(a, b []uint64) float64 {
	inter, union := 0, 0
	for i := range a {
		inter += bits.OnesCount64(a[i] & b[i])
		union += bits.OnesCount64(a[i] | b[i])
	}
	if union == 0 {
		return 1.0
	}
	return float64(inter) / float64(union)
}
