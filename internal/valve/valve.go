// Package valve models the control-layer inputs of a flow-based microfluidic
// biochip: microvalves with their positions and "0-1-X" activation sequences
// (Definitions 1-4 of the paper), the valve compatibility relation that
// governs which valves may share a control pin under broadcast addressing,
// and the whole-chip Design that the PACOR flow consumes.
package valve

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/geom"
)

// Status is one activation status at a single time step.
type Status byte

// The three activation statuses of Definition 1.
const (
	Open   Status = '0' // valve open
	Closed Status = '1' // valve closed
	DontC  Status = 'X' // don't care: either open or closed
)

// Valid reports whether s is one of the three legal statuses.
func (s Status) Valid() bool { return s == Open || s == Closed || s == DontC }

// Compatible implements Definition 2: two statuses are compatible iff they
// are equal or either is X.
func (s Status) Compatible(t Status) bool {
	return s == t || s == DontC || t == DontC
}

// Seq is an activation sequence (Definition 1): the status of a valve at
// each time step of the scheduled bioassay.
type Seq []Status

// ParseSeq parses a "0-1-X" string such as "01X10".
func ParseSeq(s string) (Seq, error) {
	seq := make(Seq, len(s))
	for i := 0; i < len(s); i++ {
		st := Status(s[i])
		if !st.Valid() {
			return nil, fmt.Errorf("valve: invalid activation status %q at position %d", s[i], i)
		}
		seq[i] = st
	}
	return seq, nil
}

// String renders the sequence as a "0-1-X" string.
func (q Seq) String() string {
	var b strings.Builder
	for _, s := range q {
		b.WriteByte(byte(s))
	}
	return b.String()
}

// Compatible implements Definition 3: sequences are compatible iff they have
// equal length and are elementwise compatible.
func (q Seq) Compatible(r Seq) bool {
	if len(q) != len(r) {
		return false
	}
	for i := range q {
		if !q[i].Compatible(r[i]) {
			return false
		}
	}
	return true
}

// Merge returns the most constrained sequence compatible with both q and r:
// X entries are resolved by the other sequence. It reports ok=false when the
// sequences are incompatible. Merging is how a cluster's combined switching
// pattern is derived when valves share one pressure source.
func (q Seq) Merge(r Seq) (Seq, bool) {
	if len(q) != len(r) {
		return nil, false
	}
	out := make(Seq, len(q))
	for i := range q {
		switch {
		case q[i] == r[i]:
			out[i] = q[i]
		case q[i] == DontC:
			out[i] = r[i]
		case r[i] == DontC:
			out[i] = q[i]
		default:
			return nil, false
		}
	}
	return out, true
}

// Valve is a microvalve on the control layer.
type Valve struct {
	ID  int     // dense identifier, index into Design.Valves
	Pos geom.Pt // routing-grid cell of the valve's control terminal
	Seq Seq     // activation sequence
}

// Compatible implements Definition 4.
func (v Valve) Compatible(w Valve) bool { return v.Seq.Compatible(w.Seq) }

// Design is one control-layer routing instance: the "Given" part of the
// problem formulation in Section 2.
type Design struct {
	Name string

	// W, H are the chip dimensions in routing grid cells.
	W, H int

	Valves []Valve

	// Obstacles are blocked routing cells (flow-layer punch-throughs etc.).
	Obstacles []geom.Pt

	// Pins are the feasible control pin positions CP, on the chip boundary.
	Pins []geom.Pt

	// LMClusters are the pre-specified clusters of valves (by valve ID) that
	// carry the length-matching constraint.
	LMClusters [][]int

	// Delta is the length-matching threshold δ.
	Delta int
}

// maxCells bounds W·H, so every accepted design's per-cell arrays fit in
// memory and its cell indices cannot overflow. It is 4× the largest shipped
// design (the full ChipXL, 1000×1000).
const maxCells = 1 << 22

// Validate checks structural sanity of the design: dimensions within the
// cell budget, on-grid valve and obstacle positions, boundary pins,
// equal-length sequences, no valve on an obstacle, LM clusters referencing
// real and pairwise-compatible valves.
func (d *Design) Validate() error {
	if d.W <= 0 || d.H <= 0 {
		return fmt.Errorf("valve: design %q has invalid size %dx%d", d.Name, d.W, d.H)
	}
	if d.W > maxCells/d.H { // W·H > maxCells, without overflowing
		return fmt.Errorf("valve: design %q size %dx%d exceeds the %d-cell budget", d.Name, d.W, d.H, maxCells)
	}
	if d.Delta < 0 {
		return fmt.Errorf("valve: design %q has negative delta %d", d.Name, d.Delta)
	}
	in := func(p geom.Pt) bool { return p.X >= 0 && p.X < d.W && p.Y >= 0 && p.Y < d.H }
	onBoundary := func(p geom.Pt) bool {
		return in(p) && (p.X == 0 || p.Y == 0 || p.X == d.W-1 || p.Y == d.H-1)
	}
	obs := make(map[geom.Pt]bool, len(d.Obstacles))
	for _, o := range d.Obstacles {
		if !in(o) {
			return fmt.Errorf("valve: obstacle %v off-grid", o)
		}
		obs[o] = true
	}
	seqLen := -1
	occupied := make(map[geom.Pt]int, len(d.Valves))
	for i, v := range d.Valves {
		if v.ID != i {
			return fmt.Errorf("valve: valve at index %d has ID %d", i, v.ID)
		}
		if !in(v.Pos) {
			return fmt.Errorf("valve %d: position %v off-grid", i, v.Pos)
		}
		if obs[v.Pos] {
			return fmt.Errorf("valve %d: position %v is an obstacle", i, v.Pos)
		}
		if prev, dup := occupied[v.Pos]; dup {
			return fmt.Errorf("valve %d: position %v already occupied by valve %d", i, v.Pos, prev)
		}
		occupied[v.Pos] = i
		for j, s := range v.Seq {
			if !s.Valid() {
				return fmt.Errorf("valve %d: invalid status at step %d", i, j)
			}
		}
		if seqLen == -1 {
			seqLen = len(v.Seq)
		} else if len(v.Seq) != seqLen {
			return fmt.Errorf("valve %d: sequence length %d, want %d", i, len(v.Seq), seqLen)
		}
	}
	if len(d.Pins) == 0 {
		return errors.New("valve: design has no candidate control pins")
	}
	for _, p := range d.Pins {
		if !onBoundary(p) {
			return fmt.Errorf("valve: control pin %v not on chip boundary", p)
		}
	}
	seen := make(map[int]int)
	for ci, c := range d.LMClusters {
		if len(c) < 2 {
			return fmt.Errorf("valve: LM cluster %d has fewer than 2 valves", ci)
		}
		for _, id := range c {
			if id < 0 || id >= len(d.Valves) {
				return fmt.Errorf("valve: LM cluster %d references unknown valve %d", ci, id)
			}
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("valve: valve %d in LM clusters %d and %d", id, prev, ci)
			}
			seen[id] = ci
		}
		// The paper requires LM-constrained valves to be pairwise compatible
		// (end of Section 2).
		for i := 0; i < len(c); i++ {
			for j := i + 1; j < len(c); j++ {
				if !d.Valves[c[i]].Compatible(d.Valves[c[j]]) {
					return fmt.Errorf("valve: LM cluster %d valves %d and %d are incompatible",
						ci, c[i], c[j])
				}
			}
		}
	}
	return nil
}

// CompatGraph returns the valve compatibility graph as an adjacency matrix:
// adj[i][j] == true iff valves i and j are compatible (i != j).
func (d *Design) CompatGraph() [][]bool {
	n := len(d.Valves)
	adj := make([][]bool, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d.Valves[i].Compatible(d.Valves[j]) {
				adj[i][j] = true
				adj[j][i] = true
			}
		}
	}
	return adj
}
