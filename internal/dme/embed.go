package dme

import (
	"repro/internal/geom"
	"repro/internal/grid"
)

// Bias selects where on a merging region an internal node is embedded,
// yielding the distinct candidate trees of Figure 3.
type Bias int

// Embedding biases: nearest to the parent, or toward either core endpoint
// of the merging region.
const (
	BiasNearest Bias = iota
	BiasLow
	BiasHigh
)

// Embed runs the top-down merging-node embedding phase for one choice of
// root position and one placement bias, producing a candidate tree.
// rootPick must lie inside (or near) the root merging region; it is snapped
// to a free grid cell first. Obstacle-blocked merging nodes are displaced by
// an expanding-loop search around the ideal position (the paper's
// workaround), and edge required lengths absorb the displacement with
// parity-correct slack.
func Embed(obs *grid.ObsMap, sinks []geom.Pt, topo *Topo, info []mergeInfo, rootPick geom.Pt, bias Bias) *Tree {
	t := &Tree{
		Sinks: sinks,
		Topo:  topo,
		Pos:   make([]geom.Pt, len(topo.Nodes)),
		Req:   make([]int, len(topo.Nodes)),
	}
	used := make(map[geom.Pt]bool)
	for _, s := range sinks {
		used[s] = true
	}

	var place func(n int, pos geom.Pt)
	place = func(n int, pos geom.Pt) {
		nd := topo.Nodes[n]
		t.Pos[n] = pos
		used[pos] = true
		if nd.Sink >= 0 {
			return
		}
		for _, side := range []struct {
			child, e int
		}{{nd.Left, info[n].ea}, {nd.Right, info[n].eb}} {
			cn := topo.Nodes[side.child]
			var q geom.Pt
			if cn.Sink >= 0 {
				q = sinks[cn.Sink] // leaves are fixed at the valves
			} else {
				// Ideal position: on the child's merging region, at edge
				// length from the parent, as close to the parent as allowed.
				region := info[side.child].ms.Intersect(geom.TRRFromPoint(pos, side.e))
				if region.Empty() {
					region = info[side.child].ms
				}
				ref := pos
				switch bias {
				case BiasLow:
					ref, _ = region.Core()
				case BiasHigh:
					_, ref = region.Core()
				}
				// ok is deliberately dropped: when the region has no grid
				// point (odd-parity degenerate arc), NearestGridPt returns
				// the nearest outside point and freeNear absorbs the +-1
				// slack along with occupancy (Lemma 1).
				q, _ = region.NearestGridPt(ref)
				q = freeNear(obs, used, q)
			}
			req := side.e
			d := geom.Dist(pos, q)
			if req < d {
				req = d
			}
			if (req-d)%2 != 0 {
				req++
			}
			t.Req[side.child] = req
			place(side.child, q)
		}
	}
	if topo.Root >= 0 {
		root := rootPick
		if nd := topo.Nodes[topo.Root]; nd.Sink < 0 {
			root = freeNear(obs, used, rootPick)
		} else {
			root = sinks[nd.Sink]
		}
		place(topo.Root, root)
	}
	return t
}

// freeNear returns the first in-grid, unblocked, unused cell found on
// expanding Manhattan rings around q (the paper's encircling-loop search).
// If the whole chip is exhausted it returns q unchanged — the routing stage
// will then fail this candidate, which is the correct signal upstream.
func freeNear(obs *grid.ObsMap, used map[geom.Pt]bool, q geom.Pt) geom.Pt {
	g := obs.Grid()
	free := func(p geom.Pt) bool { return g.In(p) && !obs.Blocked(p) && !used[p] }
	if free(q) {
		return q
	}
	maxR := g.W + g.H
	for r := 1; r <= maxR; r++ {
		// Walk the Manhattan ring of radius r in deterministic order.
		for dx := -r; dx <= r; dx++ {
			dy := r - geom.Abs(dx)
			p := geom.Pt{X: q.X + dx, Y: q.Y + dy}
			if free(p) {
				return p
			}
			if dy != 0 {
				p = geom.Pt{X: q.X + dx, Y: q.Y - dy}
				if free(p) {
					return p
				}
			}
		}
	}
	return q
}

// Candidates computes up to maxCand distinct candidate Steiner trees for the
// cluster by sampling root embeddings from the root merging region: the two
// core endpoints, the core midpoint, and further grid points of the region.
// Every returned tree satisfies Tree.Validate.
func Candidates(obs *grid.ObsMap, sinks []geom.Pt, maxCand int) []*Tree {
	if len(sinks) == 0 || maxCand <= 0 {
		return nil
	}
	topo := BalancedBipartition(sinks)
	info := mergeSegments(sinks, topo)
	if len(sinks) == 1 {
		return []*Tree{Embed(obs, sinks, topo, info, sinks[0], BiasNearest)}
	}
	rootMS := info[topo.Root].ms

	var picks []geom.Pt
	addPick := func(p geom.Pt) {
		for _, q := range picks {
			if q == p {
				return
			}
		}
		picks = append(picks, p)
	}
	// NearestGridPt's fallback (nearest point off the region by one unit,
	// Lemma 1) is acceptable for a root pick: the edge slack absorbs it.
	c0, c1 := rootMS.Core()
	p0, _ := rootMS.NearestGridPt(c0)
	addPick(p0)
	p1, _ := rootMS.NearestGridPt(c1)
	addPick(p1)
	pm, _ := rootMS.NearestGridPt(geom.Pt{X: (c0.X + c1.X) / 2, Y: (c0.Y + c1.Y) / 2})
	addPick(pm)
	for _, p := range rootMS.GridPoints(2 * maxCand) {
		if len(picks) >= 3*maxCand {
			break
		}
		addPick(p)
	}

	var trees []*Tree
	seen := map[string]bool{}
	for _, bias := range []Bias{BiasNearest, BiasLow, BiasHigh} {
		for _, p := range picks {
			if len(trees) >= maxCand {
				return trees
			}
			tr := Embed(obs, sinks, topo, info, p, bias)
			if tr.Validate() != nil {
				continue
			}
			key := treeKey(tr)
			if seen[key] {
				continue
			}
			seen[key] = true
			trees = append(trees, tr)
		}
	}
	return trees
}

func treeKey(t *Tree) string {
	b := make([]byte, 0, 8*len(t.Pos))
	for _, p := range t.Pos {
		b = append(b, byte(p.X), byte(p.X>>8), byte(p.Y), byte(p.Y>>8))
	}
	for _, r := range t.Req {
		b = append(b, byte(r), byte(r>>8))
	}
	return string(b)
}
