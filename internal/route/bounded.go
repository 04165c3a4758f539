package route

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// bnode is one state of the bounded-length search: a cell reached with a
// specific path length, linked to its predecessor state. States live in the
// workspace arena (per-cell parent arrays do not suffice because states are
// (cell, length) pairs).
type bnode struct {
	cell   int32
	g      int32
	parent int32
}

// simpleChain reports whether the arena chain ending at state idx visits no
// cell twice, and its length in cells. Each state extends its parent by one
// grid step, so a chain without a repeated cell is exactly a path that
// grid.Path.Valid accepts. The cells are marked in closed, which the bounded
// search never reads: one walk clears the chain's marks, and a second sets
// them and stops at the first cell already set.
func (w *Workspace) simpleChain(idx int) (int, bool) {
	n := 0
	for i := idx; i >= 0; i = int(w.arena[i].parent) {
		w.closed[w.arena[i].cell] = false
		n++
	}
	for i := idx; i >= 0; i = int(w.arena[i].parent) {
		c := w.arena[i].cell
		if w.closed[c] {
			return n, false
		}
		w.closed[c] = true
	}
	return n, true
}

// reconstructArena returns the n-cell chain ending at state idx as a path,
// allocating it exactly once.
//
//pacor:allow hotalloc single exact-size allocation for the result path returned to the caller
func reconstructArena(g grid.Grid, arena []bnode, idx, n int) grid.Path {
	path := make(grid.Path, n)
	i := idx
	for k := n - 1; k >= 0; k-- {
		path[k] = g.Pt(int(arena[i].cell))
		i = int(arena[i].parent)
	}
	return path
}

// ExtendPath lengthens an existing path by repeatedly inserting unit U-turn
// detours (each adding exactly 2 to the length) until the length reaches
// [minLen, maxLen]. Because the endpoints are fixed, every path between them
// has the same length parity, so a window of width >= 1 always contains a
// reachable target when free space admits the detours. The path's own cells
// count as blocked for the detour cells; obs blocks as usual. It returns the
// extended path and whether the window was reached.
//
//pacor:allow hotalloc detour post-pass runs once per net, not per search step; paths are value results
func ExtendPath(obs *grid.ObsMap, path grid.Path, minLen, maxLen int) (grid.Path, bool) {
	if path.Len() > maxLen {
		return path, false
	}
	if path.Len() >= minLen {
		return path, true
	}
	g := obs.Grid()
	cur := path.Clone()
	for cur.Len() < minLen {
		if cur.Len()+2 > maxLen {
			return cur, false // parity gap: +2 would overshoot
		}
		on := make(map[geom.Pt]bool, len(cur))
		for _, c := range cur {
			on[c] = true
		}
		applied := false
		for i := 0; i+1 < len(cur) && !applied; i++ {
			a, b := cur[i], cur[i+1]
			d := b.Sub(a)
			for _, s := range []geom.Pt{{X: -d.Y, Y: d.X}, {X: d.Y, Y: -d.X}} {
				ca, cb := a.Add(s), b.Add(s)
				if !g.In(ca) || !g.In(cb) || obs.Blocked(ca) || obs.Blocked(cb) || on[ca] || on[cb] {
					continue
				}
				ext := make(grid.Path, 0, len(cur)+2)
				ext = append(ext, cur[:i+1]...)
				ext = append(ext, ca, cb)
				ext = append(ext, cur[i+1:]...)
				cur = ext
				applied = true
				break
			}
		}
		if !applied {
			return cur, false
		}
	}
	return cur, cur.Len() >= minLen && cur.Len() <= maxLen
}
