package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestBucketCertifiedHistIdentity drives AStar with caller-certified integral
// history costs (HistScale/HistMax, as the hierarchical escape stage supplies
// them) through the heap and the bucket queue and requires byte-identical
// outcomes.
func TestBucketCertifiedHistIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		g := grid.Grid{W: 40 + rng.Intn(20), H: 40 + rng.Intn(20)}
		obs := grid.NewObsMap(g)
		for i := 0; i < g.Cells()/6; i++ {
			obs.Set(geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}, true)
		}
		hist := make([]float64, g.Cells())
		maxH := int64(0)
		for i := range hist {
			switch rng.Intn(5) {
			case 0:
				hist[i] = 4
			case 1:
				hist[i] = 16
			case 2:
				hist[i] = 20
			}
			if int64(hist[i]) > maxH {
				maxH = int64(hist[i])
			}
		}
		src := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
		dst := geom.Pt{X: rng.Intn(g.W), Y: rng.Intn(g.H)}
		req := Request{
			Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs,
			Hist: hist, HistScale: 1, HistMax: 1 + maxH,
		}
		wh := NewWorkspace(g)
		wh.heapOnly = true
		ph, okh := wh.AStar(g, req)
		wb := NewWorkspace(g)
		pb, okb := wb.AStar(g, req)
		if !wb.lastBucket {
			continue // ring infeasible; heap fallback is identity by construction
		}
		if okh != okb || !pathsEqual(ph, pb) {
			t.Fatalf("trial %d: heap ok=%v len=%d vs bucket ok=%v len=%d (src=%v dst=%v)",
				trial, okh, ph.Len(), okb, pb.Len(), src, dst)
		}
	}
}
