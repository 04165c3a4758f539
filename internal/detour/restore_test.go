package detour

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
)

// sealedNet builds a net whose short arm can be extended a little but not
// enough to match: one U-turn fits before the corridor closes.
func sealedNet(t *testing.T) (*grid.ObsMap, *Net) {
	t.Helper()
	g := grid.New(30, 9)
	obs := grid.NewObsMap(g)
	// Long arm: 20 cells to the tap. Short arm: 4 cells, in a corridor that
	// has room for exactly one U-turn next to its first edge.
	long := hPath(2, 22, 4)
	short := hPath(26, 22, 4)
	// Seal above/below the short arm except one 2-cell niche at x=25,26, y=3.
	for x := 23; x <= 28; x++ {
		if x != 25 && x != 26 {
			obs.Set(geom.Pt{X: x, Y: 3}, true)
		}
		obs.Set(geom.Pt{X: x, Y: 5}, true)
	}
	obs.Set(geom.Pt{X: 24, Y: 2}, true)
	obs.Set(geom.Pt{X: 25, Y: 2}, true)
	obs.Set(geom.Pt{X: 26, Y: 2}, true)
	obs.Set(geom.Pt{X: 27, Y: 2}, true)
	net := &Net{
		Segments:  []grid.Path{long, short},
		FullPaths: [][]int{{0}, {1}},
	}
	markNet(obs, net)
	return obs, net
}

func TestMatchRestoresOnPartialFailure(t *testing.T) {
	obs, net := sealedNet(t)
	before0, before1 := net.Segments[0].Len(), net.Segments[1].Len()
	if Match(route.NewWorkspace(obs.Grid()), obs, net, 1) {
		t.Fatal("sealed short arm cannot fully match")
	}
	if net.Segments[0].Len() != before0 || net.Segments[1].Len() != before1 {
		t.Error("Match must restore the original geometry on failure")
	}
}
