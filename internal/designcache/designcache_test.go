package designcache

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/pacor"
	"repro/internal/route"
	"repro/internal/valve"
)

func testDesign(t *testing.T, name string) *valve.Design {
	t.Helper()
	d, err := bench.Generate(name)
	if err != nil {
		t.Fatalf("generate %s: %v", name, err)
	}
	return d
}

// permuteValves returns d with its valves in reversed order, IDs re-densified
// and LM clusters remapped — a semantically identical presentation.
func permuteValves(d *valve.Design) *valve.Design {
	n := len(d.Valves)
	perm := &valve.Design{
		Name:       d.Name + "-perm",
		W:          d.W,
		H:          d.H,
		Delta:      d.Delta,
		Obstacles:  append([]geom.Pt(nil), d.Obstacles...),
		Pins:       append([]geom.Pt(nil), d.Pins...),
		Valves:     make([]valve.Valve, n),
		LMClusters: make([][]int, len(d.LMClusters)),
	}
	for i, v := range d.Valves {
		perm.Valves[n-1-i] = valve.Valve{ID: n - 1 - i, Pos: v.Pos, Seq: v.Seq}
	}
	for ci, c := range d.LMClusters {
		cc := make([]int, len(c))
		for i, id := range c {
			cc[i] = n - 1 - id
		}
		perm.LMClusters[ci] = cc
	}
	return perm
}

// routedOutput strips the wall-clock and counter fields, leaving exactly the
// routed solution — the bytes the byte-identity gates compare.
func routedOutput(res *pacor.Result) pacor.Result {
	out := *res
	out.Runtime = 0
	out.StageTimes = nil
	out.Negotiate = route.NegotiateStats{}
	out.LMReuse = pacor.LMReuseStats{}
	out.EscapeHier = route.HierStats{}
	return out
}

func sameRouted(t *testing.T, label string, got, want *pacor.Result) {
	t.Helper()
	g, w := routedOutput(got), routedOutput(want)
	if !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: routed output differs\n got: %+v\nwant: %+v", label, g, w)
	}
}

// TestKeys: the canonical key is invariant to valve-order permutation while
// the raw key is not; a semantic change (one valve moved) shifts both; the
// params signature partitions the key space.
func TestKeys(t *testing.T) {
	d := testDesign(t, "S1")
	sig := ParamsSig(pacor.DefaultParams())

	perm := permuteValves(d)
	if err := perm.Validate(); err != nil {
		t.Fatalf("permuted design invalid: %v", err)
	}
	if CanonKey(d, sig) != CanonKey(perm, sig) {
		t.Fatal("valve permutation changed the canonical key")
	}
	if RawKey(d, sig) == RawKey(perm, sig) {
		t.Fatal("valve permutation left the raw key unchanged; exact-hit replay would mis-serve a permuted design")
	}

	nudged, err := bench.NudgeAny(d)
	if err != nil {
		t.Fatalf("nudge: %v", err)
	}
	if CanonKey(d, sig) == CanonKey(nudged, sig) {
		t.Fatal("moving a valve did not change the canonical key")
	}
	if RawKey(d, sig) == RawKey(nudged, sig) {
		t.Fatal("moving a valve did not change the raw key")
	}

	p2 := pacor.DefaultParams()
	p2.Lambda *= 2
	if CanonKey(d, sig) == CanonKey(d, ParamsSig(p2)) {
		t.Fatal("parameter change did not change the key")
	}

	named := *d
	named.Name = "same-chip-different-label"
	if RawKey(d, sig) != RawKey(&named, sig) {
		t.Fatal("the design name leaked into the content key")
	}
}

// TestExactHit: the second identical request is served from memory — same
// result pointer, no second route — and a permuted presentation of the same
// chip is NOT served from the raw entry (routing is not permutation-
// equivariant), but still parents it as a near hit.
func TestExactHit(t *testing.T) {
	d := testDesign(t, "S1")
	var routes atomic.Int32
	r := New(Options{RouteFn: func(d *valve.Design, p pacor.Params) (*pacor.Result, error) {
		routes.Add(1)
		return pacor.Route(d, p)
	}})

	res1, err := r.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Fatal("exact hit returned a different result pointer")
	}
	if got := routes.Load(); got != 1 {
		t.Fatalf("exact hit re-routed: %d routes", got)
	}
	s := r.Snapshot()
	if s.Hits != 1 || s.Misses != 1 || s.NearHits != 0 {
		t.Fatalf("counters: %+v", s)
	}

	perm := permuteValves(d)
	res3, err := r.Route(perm, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if routes.Load() != 2 {
		t.Fatal("permuted design must route (raw keys differ)")
	}
	s = r.Snapshot()
	if s.NearHits != 1 {
		t.Fatalf("permuted sibling (Jaccard 1.0) not treated as near hit: %+v", s)
	}
	// Permuted valve order changes cluster iteration, so the routed output
	// may legitimately differ; correctness means it equals that ordering's
	// own cold route.
	cold, err := pacor.Route(perm, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "permuted near hit", res3, cold)
}

// TestNearHitByteIdentity: a nudged design routed through the cache is
// byte-identical to its cold route, with the negotiation counters proving
// searches were actually skipped.
func TestNearHitByteIdentity(t *testing.T) {
	d := testDesign(t, "S1")
	nudged, err := bench.NudgeAny(d)
	if err != nil {
		t.Fatalf("nudge: %v", err)
	}

	params := pacor.DefaultParams()
	r := New(Options{})
	if _, err := r.Route(d, params); err != nil {
		t.Fatal(err)
	}
	warm, err := r.Route(nudged, params)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pacor.Route(nudged, params)
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "near hit", warm, cold)

	s := r.Snapshot()
	if s.NearHits != 1 {
		t.Fatalf("nudge was not a near hit: %+v", s)
	}
	if s.SeededEdges == 0 || s.SeededHits == 0 {
		t.Fatalf("seeding skipped no searches: %+v", s)
	}
	if warm.Negotiate.Searches+warm.Negotiate.SeededHits != cold.Negotiate.Searches {
		t.Fatalf("counters invariant broken: warm %+v cold %+v", warm.Negotiate, cold.Negotiate)
	}
	if warm.Negotiate.Searches >= cold.Negotiate.Searches {
		t.Fatalf("seeding saved nothing: warm %d >= cold %d searches",
			warm.Negotiate.Searches, cold.Negotiate.Searches)
	}
}

// ordinaryNudges returns every valid unit nudge of a valve outside all LM
// clusters — the edit class whose candidate/selection sub-stage replays
// wholesale from a cached parent.
func ordinaryNudges(t *testing.T, d *valve.Design) []*valve.Design {
	t.Helper()
	inLM := make(map[int]bool)
	for _, c := range d.LMClusters {
		for _, id := range c {
			inLM[id] = true
		}
	}
	var out []*valve.Design
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	for i := range d.Valves {
		if inLM[d.Valves[i].ID] {
			continue
		}
		for _, dir := range dirs {
			if nd, err := bench.Nudge(d, i, dir[0], dir[1]); err == nil {
				out = append(out, nd)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("design has no nudgeable ordinary valve")
	}
	return out
}

// TestLMSeedReplay: an ordinary-valve nudge replays the LM candidate/
// selection sub-stage from the parent (the sink sequences are untouched),
// byte-identically to a cold route; a nudge of an LM-cluster valve refuses
// the replay for its own cluster and still routes byte-identically. The
// disk leg re-opens the cache directory in a fresh Router — the
// cross-process path — and must replay the same way.
func TestLMSeedReplay(t *testing.T) {
	d := testDesign(t, "S3")
	params := pacor.DefaultParams()

	var full *valve.Design // first variant achieving whole-stage replay
	replayed := 0
	for _, nd := range ordinaryNudges(t, d) {
		r := New(Options{})
		if _, err := r.Route(d, params); err != nil {
			t.Fatal(err)
		}
		warm, err := r.Route(nd, params)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := pacor.Route(nd, params)
		if err != nil {
			t.Fatal(err)
		}
		sameRouted(t, "ordinary nudge "+nd.Name, warm, cold)
		lr := warm.LMReuse
		if lr.CandReplayed == lr.CandClusters && lr.SelectionReplayed {
			replayed++
			if full == nil {
				full = nd
			}
		}
	}
	if full == nil {
		t.Fatalf("no ordinary nudge replayed the full LM stage (%d variants)", replayed)
	}

	// Cross-process: the parent reaches the child only through the gob disk
	// record.
	dir := t.TempDir()
	parent := New(Options{Dir: dir})
	if _, err := parent.Route(d, params); err != nil {
		t.Fatal(err)
	}
	child := New(Options{Dir: dir})
	warm, err := child.Route(full, params)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pacor.Route(full, params)
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "disk-seeded nudge", warm, cold)
	if lr := warm.LMReuse; lr.CandReplayed != lr.CandClusters || !lr.SelectionReplayed {
		t.Fatalf("disk round-trip lost the LM seed: %+v", lr)
	}
	if s := child.Snapshot(); s.NearHits != 1 || s.CandReplayed == 0 || s.SelReplayed != 1 {
		t.Fatalf("disk near-hit counters: %+v", s)
	}

	// An LM-valve nudge changes its own cluster's sink sequence: that cluster
	// must not replay, and the output must still match a cold route.
	lmNudged, err := bench.Nudge(d, d.LMClusters[0][0], 1, 0)
	if err != nil {
		lmNudged, err = bench.NudgeAny(d)
		if err != nil {
			t.Fatal(err)
		}
	}
	r := New(Options{})
	if _, err := r.Route(d, params); err != nil {
		t.Fatal(err)
	}
	warmLM, err := r.Route(lmNudged, params)
	if err != nil {
		t.Fatal(err)
	}
	coldLM, err := pacor.Route(lmNudged, params)
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "lm-valve nudge", warmLM, coldLM)
	if lr := warmLM.LMReuse; lr.CandReplayed >= lr.CandClusters && lr.CandClusters > 0 {
		t.Fatalf("nudged cluster replayed stale candidates: %+v", lr)
	}
}

// TestSingleFlight: N concurrent identical requests perform exactly one
// route and all callers receive the same result (run under -race in CI).
func TestSingleFlight(t *testing.T) {
	d := testDesign(t, "S1")
	var routes atomic.Int32
	release := make(chan struct{})
	r := New(Options{RouteFn: func(d *valve.Design, p pacor.Params) (*pacor.Result, error) {
		routes.Add(1)
		<-release // hold every waiter in the dedup path
		return pacor.Route(d, p)
	}})

	const n = 8
	results := make([]*pacor.Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Route(d, pacor.DefaultParams())
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	// Release the in-flight route only once every other caller is parked on
	// it — otherwise the fast route wins the race and they hit the store.
	for r.Snapshot().Dedup < n-1 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := routes.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests performed %d routes", n, got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d received a different result pointer", i)
		}
	}
	if s := r.Snapshot(); s.Dedup == 0 {
		t.Fatalf("no caller recorded as deduplicated: %+v", s)
	}
}

// TestLRUEviction: the store honors both the entry-count and the byte
// bounds, evicting from the cold end.
func TestLRUEviction(t *testing.T) {
	mkDesign := func(seed int64) *valve.Design {
		d, err := bench.GenerateSpec(bench.Spec{
			Name: "tiny", W: 24, H: 24, Valves: 6, Pins: 12, Obs: 10,
			ClusterSizes: []int{2, 2}, Window: 4, Seed: seed,
		})
		if err != nil {
			t.Fatalf("spec: %v", err)
		}
		return d
	}

	r := New(Options{MaxEntries: 2})
	for i := int64(0); i < 3; i++ {
		if _, err := r.Route(mkDesign(100+i), pacor.DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	if n, _ := r.Len(); n != 2 {
		t.Fatalf("entry bound not enforced: %d resident", n)
	}
	if s := r.Snapshot(); s.Evictions != 1 {
		t.Fatalf("expected 1 eviction: %+v", s)
	}
	// The first design was coldest: requesting it again must re-route.
	var routes atomic.Int32
	r2 := New(Options{MaxEntries: 2, RouteFn: func(d *valve.Design, p pacor.Params) (*pacor.Result, error) {
		routes.Add(1)
		return pacor.Route(d, p)
	}})
	for i := int64(0); i < 3; i++ {
		if _, err := r2.Route(mkDesign(100+i), pacor.DefaultParams()); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r2.Route(mkDesign(100), pacor.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if routes.Load() != 4 {
		t.Fatalf("evicted entry served without routing: %d routes", routes.Load())
	}

	// Byte bound: a cap far below one entry still keeps exactly the newest.
	r3 := New(Options{MaxBytes: 1})
	if _, err := r3.Route(mkDesign(100), pacor.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := r3.Route(mkDesign(101), pacor.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if n, _ := r3.Len(); n != 1 {
		t.Fatalf("byte bound kept %d entries", n)
	}
}

// TestDiskPersistence: a second Router over the same directory serves the
// first one's routes as disk hits, byte-identically; a corrupt record counts
// a DiskError and falls back to routing.
func TestDiskPersistence(t *testing.T) {
	dir := t.TempDir()
	d := testDesign(t, "S1")

	r1 := New(Options{Dir: dir})
	res1, err := r1.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}

	var routes atomic.Int32
	r2 := New(Options{Dir: dir, RouteFn: func(d *valve.Design, p pacor.Params) (*pacor.Result, error) {
		routes.Add(1)
		return pacor.Route(d, p)
	}})
	res2, err := r2.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if routes.Load() != 0 {
		t.Fatal("disk hit re-routed")
	}
	sameRouted(t, "disk hit", res2, res1)
	if s := r2.Snapshot(); s.DiskHits != 1 {
		t.Fatalf("counters: %+v", s)
	}

	// Cross-process near hit: a fresh Router (empty memory LRU) over the same
	// directory finds the parent on disk and seeds the nudged child.
	nudged, err := bench.NudgeAny(d)
	if err != nil {
		t.Fatal(err)
	}
	r4 := New(Options{Dir: dir})
	warm, err := r4.Route(nudged, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pacor.Route(nudged, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "disk-parent near hit", warm, cold)
	if s := r4.Snapshot(); s.NearHits != 1 || s.SeededHits == 0 {
		t.Fatalf("disk parent not used for seeding: %+v", s)
	}

	// Corrupt the record: the next fresh Router re-routes and reports it.
	sig := ParamsSig(pacor.DefaultParams())
	file := filepath.Join(dir, CanonKey(d, sig).String())
	if err := os.WriteFile(file, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r3 := New(Options{Dir: dir})
	res3, err := r3.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "corrupt-record reroute", res3, res1)
	// The record decode failure is reported; the route degrades to a re-route
	// (a miss, or a near hit off the nudged sibling's record) — never a hit.
	if s := r3.Snapshot(); s.DiskErrors == 0 || s.Hits != 0 || s.DiskHits != 0 || s.Misses+s.NearHits != 1 {
		t.Fatalf("corrupt record not reported: %+v", s)
	}
}

// TestJaccardThreshold: a parent below the similarity threshold is not used
// for seeding — the route is a plain miss.
func TestJaccardThreshold(t *testing.T) {
	a, err := bench.GenerateSpec(bench.Spec{
		Name: "a", W: 24, H: 24, Valves: 6, Pins: 12, Obs: 10,
		ClusterSizes: []int{2, 2}, Window: 4, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := bench.GenerateSpec(bench.Spec{
		Name: "b", W: 24, H: 24, Valves: 6, Pins: 12, Obs: 10,
		ClusterSizes: []int{2, 2}, Window: 4, Seed: 8, // different geometry entirely
	})
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{Jaccard: 0.9})
	if _, err := r.Route(a, pacor.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Route(b, pacor.DefaultParams()); err != nil {
		t.Fatal(err)
	}
	if s := r.Snapshot(); s.Misses != 2 || s.NearHits != 0 {
		t.Fatalf("dissimilar design still seeded: %+v", s)
	}
}

// TestRouteInvalidDesign: a design pacor.Route rejects gets the same error
// through the cache, never a panic from indexing the occupancy bitmap with
// an off-grid valve, and leaves nothing in memory or on disk.
func TestRouteInvalidDesign(t *testing.T) {
	d := &valve.Design{
		Name: "offgrid", W: 10, H: 10, Delta: 1,
		Valves: []valve.Valve{
			{ID: 0, Pos: geom.Pt{X: 2, Y: 2}, Seq: valve.Seq{valve.Open}},
			{ID: 1, Pos: geom.Pt{X: 50, Y: 50}, Seq: valve.Seq{valve.Open}},
		},
		Pins: []geom.Pt{{X: 0, Y: 5}, {X: 9, Y: 5}},
	}
	_, want := pacor.Route(d, pacor.DefaultParams())
	if want == nil {
		t.Fatal("pacor.Route accepted an off-grid valve")
	}
	dir := t.TempDir()
	r := New(Options{Dir: dir})
	for i := 0; i < 2; i++ {
		var err error
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("Route panicked: %v", p)
				}
			}()
			_, err = r.Route(d, pacor.DefaultParams())
		}()
		if err == nil || err.Error() != want.Error() {
			t.Fatalf("route %d: err = %v, want %v", i, err, want)
		}
	}
	if n, _ := r.Len(); n != 0 {
		t.Errorf("invalid design stored %d entries", n)
	}
	if files, _ := os.ReadDir(dir); len(files) != 0 {
		t.Errorf("invalid design persisted %d files", len(files))
	}
}
