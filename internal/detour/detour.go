// Package detour implements the final length-matching stage (Section 6,
// Algorithm 2): after a length-matching cluster is routed, its shorter full
// paths are detoured until every valve's channel length to the shared point
// lies within [maxL-δ, maxL]. Segments are detoured in path-sequence order
// (sink side first — Definition 6) because sink-side segments are not shared
// with other full paths; rerouting uses the minimum-length bounded A* with a
// U-turn extension fallback.
package detour

import (
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// Net is one routed length-matching cluster: a set of channel segments and,
// per valve, the ordered list of segment indices from the valve up to the
// root/tap (the full path PF_i as a path sequence Ps_i).
type Net struct {
	Segments []grid.Path
	// FullPaths[i] lists segment indices sink-side first for valve i.
	FullPaths [][]int
}

// Clone deep-copies the net.
func (n *Net) Clone() *Net {
	c := &Net{
		Segments:  make([]grid.Path, len(n.Segments)),
		FullPaths: make([][]int, len(n.FullPaths)),
	}
	for i, s := range n.Segments {
		c.Segments[i] = s.Clone()
	}
	for i, f := range n.FullPaths {
		c.FullPaths[i] = append([]int(nil), f...)
	}
	return c
}

// FullLen returns valve i's channel length to the root.
func (n *Net) FullLen(i int) int {
	l := 0
	for _, s := range n.FullPaths[i] {
		l += n.Segments[s].Len()
	}
	return l
}

// Spread returns the min and max full-path lengths.
func (n *Net) Spread() (mn, mx int) {
	if len(n.FullPaths) == 0 {
		return 0, 0
	}
	mn, mx = n.FullLen(0), n.FullLen(0)
	for i := 1; i < len(n.FullPaths); i++ {
		l := n.FullLen(i)
		mn = geom.Min(mn, l)
		mx = geom.Max(mx, l)
	}
	return mn, mx
}

// Matched reports whether every pair of full paths differs by at most delta.
func (n *Net) Matched(delta int) bool {
	mn, mx := n.Spread()
	return mx-mn <= delta
}

// maxRounds is the paper's θ: the iteration bound of Algorithm 2.
const maxRounds = 10

// Match detours the net's short full paths until matched within delta.
// obs must contain every channel cell of the chip INCLUDING this net's own
// segments. On success the net's segments are updated in place and obs
// reflects the new geometry; on failure both are restored (Algorithm 2
// steps 22-24) and ok is false. Every bounded-length reroute search runs on
// ws, the caller's workspace.
func Match(ws *route.Workspace, obs *grid.ObsMap, net *Net, delta int) bool {
	if net.Matched(delta) {
		return true
	}
	backupNet := net.Clone()
	// The all-or-nothing restore (Algorithm 2 steps 22-24) rewinds a change
	// journal on obs instead of keeping an O(cells) clone: detours touch a
	// handful of cells per round, so undoing them is proportional to the work
	// actually done.
	matched := false
	obs.Journal(nil, func() {
		if matched = detourRounds(ws, obs, net, delta); !matched {
			obs.RewindJournal(0)
		}
	})
	if !matched {
		*net = *backupNet
	}
	return matched
}

// detourRounds runs Algorithm 2's rounds (steps 3-21) on net and obs and
// reports whether the net ended matched within delta. It stops early when a
// short full path cannot be lengthened (steps 22-24 are the caller's) or a
// round makes no progress.
func detourRounds(ws *route.Workspace, obs *grid.ObsMap, net *Net, delta int) bool {
	for r := 0; r < maxRounds; r++ { // Steps 3-6
		if net.Matched(delta) {
			return true
		}
		_, maxL := net.Spread()
		detoured := make([]bool, len(net.Segments)) // Fd, step 7
		progress := false
		for i := range net.FullPaths { // Steps 8-21
			l := net.FullLen(i)
			if l >= maxL-delta {
				continue
			}
			success := false
			for _, si := range net.FullPaths[i] { // Steps 12-21
				if detoured[si] {
					// An earlier detour this round already lengthened a
					// shared segment of this full path.
					success = true
					break
				}
				seg := net.Segments[si]
				need := l - seg.Len() // length contributed by other segments
				ltMin := (maxL - delta) - need
				ltMax := maxL - need
				if newSeg, ok := rerouteSegment(ws, obs, net, si, ltMin, ltMax); ok {
					obs.SetPath(net.Segments[si], false)
					obs.SetPath(newSeg, true)
					net.Segments[si] = newSeg
					detoured[si] = true
					success = true
					progress = true
					break
				}
			}
			if !success {
				return false // Steps 22-24: restore and give up.
			}
		}
		if !progress && !net.Matched(delta) {
			break
		}
	}
	return net.Matched(delta)
}

// rerouteSegment searches for a replacement of segment si with length in
// [ltMin, ltMax], keeping its endpoints. The segment's own interior cells
// are freed for the search; everything else in obs blocks.
//
// The segment is freed on obs itself under a journal mark (it runs inside
// Match's journal) and the mark is rewound before returning, so obs is left
// exactly as it came in — the caller commits the swap.
func rerouteSegment(ws *route.Workspace, obs *grid.ObsMap, net *Net, si, ltMin, ltMax int) (grid.Path, bool) {
	seg := net.Segments[si]
	if len(seg) < 2 || ltMin > ltMax {
		return nil, false
	}
	if seg.Len() >= ltMin && seg.Len() <= ltMax {
		return seg, true
	}
	if seg.Len() > ltMax {
		// Shortening is the ordinary router's job, not the detour stage's.
		return nil, false
	}
	g := obs.Grid()
	mk := obs.JournalLen()
	defer obs.RewindJournal(mk)
	obs.SetPath(seg, false)
	// Keep the endpoints blocked against *other* nets but exempt for this
	// search via Sources/Targets.
	src := seg[0]
	dst := seg[len(seg)-1]
	// Any path of length <= ltMax between the endpoints stays within their
	// bounding box expanded by half the slack; windowing the search there
	// keeps the detour local and cheap.
	window := seg.BBox().Union(geom.RectOf(src, dst)).Expand((ltMax-geom.Dist(src, dst))/2 + 2)
	// For very large windows the bounded search gets expensive when it
	// fails; the cheap U-turn extension goes first there.
	cheapFirst := window.Area() > 10000
	if cheapFirst {
		if p, ok := route.ExtendPath(obs, seg, ltMin, ltMax); ok {
			return p, true
		}
	}
	if p, ok := ws.BoundedAStar(g, route.Request{
		Sources: []geom.Pt{src},
		Targets: []geom.Pt{dst},
		Obs:     obs,
		Bounds:  &window,
	}, ltMin, ltMax); ok {
		return p, true
	}
	if !cheapFirst {
		// Fallback: stack U-turn extensions onto the existing geometry.
		if p, ok := route.ExtendPath(obs, seg, ltMin, ltMax); ok {
			return p, true
		}
	}
	return nil, false
}
