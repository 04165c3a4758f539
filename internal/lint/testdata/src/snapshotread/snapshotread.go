// Package snapshotread is a fixture for the snapshotread analyzer. The
// pkgpath directive places it inside internal/route so the hot-package
// gate applies; the local Workspace/ObsMap stand-ins carry the method
// names the analyzer matches.
package snapshotread

//pacor:pkgpath fixture/internal/route

// Pt stands in for geom.Pt.
type Pt struct{ X, Y int }

// Grid stands in for grid.Grid.
type Grid struct{ W, H int }

// Index mirrors the real grid API.
func (g Grid) Index(p Pt) int { return p.Y*g.W + p.X }

// ObsMap stands in for grid.ObsMap.
type ObsMap struct{ bits []bool }

// Blocked mirrors the real obstacle query.
func (o *ObsMap) Blocked(p Pt) bool { return len(o.bits) > 0 && o.bits[0] }

// Workspace stands in for route.Workspace.
type Workspace struct{ track bool }

// StartVisitTracking mirrors the tracking switch.
func (w *Workspace) StartVisitTracking() { w.track = true }

// touch mirrors the per-cell stamp; it reports prior membership.
func (w *Workspace) touch(i int) bool { return w.track && i >= 0 }

// visit mirrors the unconditional stamp.
func (w *Workspace) visit(i int) { w.track = i >= 0 }

// stampedRead follows the protocol: the touch guards every path into the
// read.
func stampedRead(w *Workspace, g Grid, obs *ObsMap, p Pt) bool {
	if w.touch(g.Index(p)) {
		return true
	}
	return obs.Blocked(p)
}

// unstampedRead reads obstacle state with no stamp anywhere: a captured
// search cone would miss this read.
func unstampedRead(w *Workspace, g Grid, obs *ObsMap, p Pt) bool {
	w.track = g.Cells() > 0
	return obs.Blocked(p) // want `ObsMap.Blocked read is reachable before any workspace visit stamp`
}

// Cells mirrors the real grid API.
func (g Grid) Cells() int { return g.W * g.H }

// branchRead stamps on one branch only: the read is reachable unstamped
// through the other — visible only to the must-analysis join.
func branchRead(w *Workspace, g Grid, obs *ObsMap, p Pt, fast bool) bool {
	if fast {
		w.touch(g.Index(p))
	}
	return obs.Blocked(p) // want `ObsMap.Blocked read is reachable before any workspace visit stamp`
}

// readBeforeStamp stamps too late: order within the straight line counts.
func readBeforeStamp(w *Workspace, g Grid, obs *ObsMap, p Pt) bool {
	blocked := obs.Blocked(p) // want `ObsMap.Blocked read is reachable before any workspace visit stamp`
	w.touch(g.Index(p))
	return blocked
}

// loopRead stamps in the same condition, before the read, on every
// iteration.
func loopRead(w *Workspace, g Grid, obs *ObsMap, pts []Pt) int {
	n := 0
	for _, p := range pts {
		if w.touch(g.Index(p)) && obs.Blocked(p) {
			n++
		}
	}
	return n
}

// trackedRead switches tracking on up front: everything after is covered.
func trackedRead(w *Workspace, obs *ObsMap, pts []Pt) int {
	w.StartVisitTracking()
	n := 0
	for _, p := range pts {
		if obs.Blocked(p) {
			n++
		}
	}
	return n
}

// visitRead uses the unconditional stamp.
func visitRead(w *Workspace, g Grid, obs *ObsMap, p Pt) bool {
	w.visit(g.Index(p))
	return obs.Blocked(p)
}

// noWorkspace has no workspace in scope: helpers outside any search read
// obstacle state freely.
func noWorkspace(obs *ObsMap, p Pt) bool {
	return obs.Blocked(p)
}

// suppressed opts out with a justification.
func suppressed(w *Workspace, g Grid, obs *ObsMap, p Pt) bool {
	blocked := obs.Blocked(p) //pacor:allow snapshotread diagnostic read outside the speculative protocol
	w.touch(g.Index(p))
	return blocked
}
