// Package designcache is the cross-run routing cache: a content-addressed
// store of fully routed results keyed by a hash of the valve design and the
// flow parameters, with near-hit warm seeding of the negotiation stage for
// designs that differ only slightly from a cached parent (the interactive
// nudge-one-valve-and-reroute loop).
//
// One key, RawKey, names both the memory entry and the disk record. It
// ignores what cannot reach the routed result — the design name, obstacle
// order, JSON layout — and keeps valve, pin and LM-cluster order, because
// the routing flow is not permutation-equivariant: greedy clustering
// iterates valves by ID, so two valve orderings of one chip may route
// differently. An exact hit therefore serves stored bytes only for the same
// ordered form. A reordered presentation of a cached chip misses, but finds
// the cached one as a Jaccard-1.0 warm parent. A near hit reuses exactly one
// thing from its parent: the negotiation transcript (route/seed.go).
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
// output. The output-invariant seed/capture wiring is deliberately
// excluded, so one cache entry serves cold, seeded and capturing runs alike
// (the byte-identity tests pin exactly this property).
func ParamsSig(p pacor.Params) string {
	return fmt.Sprintf("m=%d;mc=%d;l=%g;sv=%d;bh=%g;a=%g;g=%d;hm=%d;ht=%d",
		p.Mode, p.MaxCandidates, p.Lambda, p.Solver,
		p.Negotiate.BaseHist, p.Negotiate.Alpha, p.Negotiate.Gamma,
		p.Hier.Mode, p.Hier.TileSize)
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

// RawKey returns the content key of d under sig: the identity under which
// routed output is provably reproducible. It serializes d deterministically
// and hashes it together with sig. Valves, pins and LM clusters keep the
// design's own order. Obstacles are sorted: they populate a set (the
// ObsMap) and their order can never reach the routed result. Name is
// excluded — it labels the instance, it is not part of it.
func RawKey(d *valve.Design, sig string) Key {
	w := &hasher{buf: make([]byte, 0, 1024)}
	w.word(canonVersion)
	w.str(sig)
	w.word(d.W)
	w.word(d.H)
	w.word(d.Delta)

	w.word(len(d.Valves))
	for i := range d.Valves {
		v := &d.Valves[i]
		w.pt(v.Pos)
		w.word(len(v.Seq))
		w.buf = append(w.buf, v.Seq.String()...)
	}

	obs := sortedPts(d.Obstacles)
	w.word(len(obs))
	for _, p := range obs {
		w.pt(p)
	}

	w.word(len(d.Pins))
	for _, p := range d.Pins {
		w.pt(p)
	}

	w.word(len(d.LMClusters))
	for _, c := range d.LMClusters {
		w.word(len(c))
		for _, id := range c {
			w.word(id)
		}
	}

	return sha256.Sum256(w.buf)
}

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
