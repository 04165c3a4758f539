package pacor

import (
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/route"
	"repro/internal/valve"
)

// testDesign builds a 30x30 chip: one 4-valve LM cluster, one 2-valve LM
// pair, two ordinary valves, a few obstacles, pins along the boundary.
func testDesign(t *testing.T) *valve.Design {
	t.Helper()
	seq := func(s string) valve.Seq {
		q, err := valve.ParseSeq(s)
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	d := &valve.Design{
		Name: "unit", W: 30, H: 30, Delta: 1,
		Valves: []valve.Valve{
			// LM cluster of four (diagonal pairs for non-degenerate DME).
			{ID: 0, Pos: geom.Pt{X: 6, Y: 6}, Seq: seq("0101")},
			{ID: 1, Pos: geom.Pt{X: 14, Y: 10}, Seq: seq("0101")},
			{ID: 2, Pos: geom.Pt{X: 6, Y: 18}, Seq: seq("010X")},
			{ID: 3, Pos: geom.Pt{X: 14, Y: 22}, Seq: seq("0101")},
			// LM pair.
			{ID: 4, Pos: geom.Pt{X: 22, Y: 8}, Seq: seq("1010")},
			{ID: 5, Pos: geom.Pt{X: 26, Y: 14}, Seq: seq("1010")},
			// Ordinary valves (mutually incompatible with everything).
			{ID: 6, Pos: geom.Pt{X: 22, Y: 22}, Seq: seq("0011")},
			{ID: 7, Pos: geom.Pt{X: 10, Y: 26}, Seq: seq("1100")},
		},
		Obstacles: []geom.Pt{
			{X: 18, Y: 14}, {X: 18, Y: 15}, {X: 18, Y: 16}, {X: 3, Y: 12},
		},
		LMClusters: [][]int{{0, 1, 2, 3}, {4, 5}},
	}
	for x := 2; x < 28; x += 2 {
		d.Pins = append(d.Pins, geom.Pt{X: x, Y: 0}, geom.Pt{X: x, Y: 29})
	}
	for y := 2; y < 28; y += 2 {
		d.Pins = append(d.Pins, geom.Pt{X: 0, Y: y}, geom.Pt{X: 29, Y: y})
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestRouteFullFlow(t *testing.T) {
	d := testDesign(t)
	for _, mode := range []Mode{ModePACOR, ModeWithoutSelection, ModeDetourFirst} {
		params := DefaultParams()
		params.Mode = mode
		res, err := Route(d, params)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if res.CompletionRate() != 1.0 {
			t.Errorf("%v: completion %.2f, want 1.0", mode, res.CompletionRate())
		}
		if err := Verify(d, res); err != nil {
			t.Errorf("%v: verification failed: %v", mode, err)
		}
		if res.MultiClusters != 2 {
			t.Errorf("%v: MultiClusters = %d, want 2", mode, res.MultiClusters)
		}
		if res.TotalLen <= 0 {
			t.Errorf("%v: TotalLen = %d", mode, res.TotalLen)
		}
	}
}

func TestRoutePACORMatchesClusters(t *testing.T) {
	d := testDesign(t)
	res, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.MatchedClusters != 2 {
		t.Fatalf("matched = %d, want 2 (ample space)", res.MatchedClusters)
	}
	for _, c := range res.Clusters {
		if !c.LM || c.Demoted {
			continue
		}
		if len(c.FullLens) == 0 {
			t.Errorf("cluster %d: no full lengths", c.ID)
			continue
		}
		mn, mx := c.FullLens[0], c.FullLens[0]
		for _, l := range c.FullLens {
			if l < mn {
				mn = l
			}
			if l > mx {
				mx = l
			}
		}
		if mx-mn > d.Delta {
			t.Errorf("cluster %d: spread %d exceeds delta %d (lens %v)",
				c.ID, mx-mn, d.Delta, c.FullLens)
		}
	}
	if res.MatchedLen <= 0 || res.MatchedLen > res.TotalLen {
		t.Errorf("MatchedLen = %d, TotalLen = %d", res.MatchedLen, res.TotalLen)
	}
}

func TestRouteDeterministic(t *testing.T) {
	d := testDesign(t)
	a, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalLen != b.TotalLen || a.MatchedClusters != b.MatchedClusters ||
		a.MatchedLen != b.MatchedLen {
		t.Errorf("non-deterministic: (%d,%d,%d) vs (%d,%d,%d)",
			a.TotalLen, a.MatchedClusters, a.MatchedLen,
			b.TotalLen, b.MatchedClusters, b.MatchedLen)
	}
}

func TestRouteSingletonOnly(t *testing.T) {
	seq := func(s string) valve.Seq { q, _ := valve.ParseSeq(s); return q }
	d := &valve.Design{
		Name: "solo", W: 10, H: 10, Delta: 1,
		Valves: []valve.Valve{
			{ID: 0, Pos: geom.Pt{X: 5, Y: 5}, Seq: seq("01")},
			{ID: 1, Pos: geom.Pt{X: 3, Y: 7}, Seq: seq("10")},
		},
		Pins: []geom.Pt{{X: 0, Y: 5}, {X: 9, Y: 5}, {X: 5, Y: 0}},
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletionRate() != 1.0 {
		t.Fatalf("completion %.2f", res.CompletionRate())
	}
	if res.MultiClusters != 0 || res.MatchedClusters != 0 {
		t.Error("no multi-valve clusters expected")
	}
	if err := Verify(d, res); err != nil {
		t.Error(err)
	}
}

func TestRouteInvalidDesign(t *testing.T) {
	d := &valve.Design{Name: "bad", W: 0, H: 5}
	if _, err := Route(d, DefaultParams()); err == nil {
		t.Error("invalid design must error")
	}
}

func TestVerifyCatchesOverlap(t *testing.T) {
	d := testDesign(t)
	res, err := Route(d, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: make one cluster's escape path overlap another's channel.
	var donor, victim *ClusterResult
	for i := range res.Clusters {
		if len(res.Clusters[i].Escape) > 0 {
			if donor == nil {
				donor = &res.Clusters[i]
			} else {
				victim = &res.Clusters[i]
				break
			}
		}
	}
	if donor == nil || victim == nil {
		t.Skip("need two escape paths")
	}
	victim.Escape = donor.Escape.Clone()
	if err := Verify(d, res); err == nil {
		t.Error("Verify accepted overlapping channels")
	}
}

// TestVerifyValveOutOfRange: a result naming a valve the design lacks is an
// error, not an index panic.
func TestVerifyValveOutOfRange(t *testing.T) {
	d := testDesign(t)
	for _, v := range []int{len(d.Valves), -1} {
		res, err := Route(d, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		res.Clusters[0].Valves = append(res.Clusters[0].Valves, v)
		if err := Verify(d, res); err == nil {
			t.Errorf("Verify accepted valve %d of a %d-valve design", v, len(d.Valves))
		}
	}
}

// TestRouteMSTRollback: a cluster with a walled-off valve fails after
// committing a partial path, and routeMST rewinds it so obs is left
// byte-identical; a routable cluster leaves obs carrying exactly the paths
// it returns. Either way the journal is closed again.
func TestRouteMSTRollback(t *testing.T) {
	g := grid.New(12, 12)
	obs := grid.NewObsMap(g)
	for _, c := range []geom.Pt{{X: 9, Y: 9}, {X: 10, Y: 9}, {X: 11, Y: 9}, {X: 9, Y: 10}, {X: 9, Y: 11}} {
		obs.Set(c, true) // seals (10,10)..(11,11) into a pocket
	}
	valves := []geom.Pt{{X: 1, Y: 1}, {X: 5, Y: 1}, {X: 10, Y: 10}}
	for _, v := range valves {
		obs.Set(v, true)
	}
	ws := route.NewWorkspace(g)

	before := obs.Bits(nil)
	if paths, ok := routeMST(ws, obs, valves); ok || paths != nil {
		t.Fatalf("walled-off cluster: ok=%v paths=%v, want a failure", ok, paths)
	}
	if !reflect.DeepEqual(obs.Bits(nil), before) {
		t.Fatal("failed cluster left partial paths on obs")
	}
	obs.Journal(nil, func() {}) // panics if routeMST left the journal open after a failure

	expect := obs.Clone()
	paths, ok := routeMST(ws, obs, valves[:2])
	if !ok || len(paths) != 1 {
		t.Fatalf("routable cluster: ok=%v, %d paths", ok, len(paths))
	}
	for _, p := range paths {
		expect.SetPath(p, true)
	}
	if !reflect.DeepEqual(obs.Bits(nil), expect.Bits(nil)) {
		t.Fatal("routed cluster's obs differs from the start state plus its returned paths")
	}
	obs.Journal(nil, func() {}) // panics if routeMST left the journal open after a success
}
