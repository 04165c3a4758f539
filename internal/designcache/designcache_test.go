package designcache

import (
	"bytes"
	"encoding/gob"
	"os"
	"path/filepath"
	"reflect"
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

// TestKeys: the key ignores obstacle order and the design name; it changes
// with valve order, a moved valve, and the params signature.
func TestKeys(t *testing.T) {
	d := testDesign(t, "S1")
	sig := ParamsSig(pacor.DefaultParams())
	key := RawKey(d, sig)

	reordered := *d
	reordered.Name = "same-chip-different-label"
	reordered.Obstacles = append([]geom.Pt(nil), d.Obstacles...)
	for i, j := 0, len(reordered.Obstacles)-1; i < j; i, j = i+1, j-1 {
		reordered.Obstacles[i], reordered.Obstacles[j] = reordered.Obstacles[j], reordered.Obstacles[i]
	}
	if RawKey(&reordered, sig) != key {
		t.Fatal("obstacle order or the design name leaked into the key")
	}

	perm := permuteValves(d)
	if err := perm.Validate(); err != nil {
		t.Fatalf("permuted design invalid: %v", err)
	}
	if RawKey(perm, sig) == key {
		t.Fatal("valve permutation left the key unchanged; an exact hit would mis-serve a permuted design")
	}

	nudged, err := bench.NudgeAny(d)
	if err != nil {
		t.Fatalf("nudge: %v", err)
	}
	if RawKey(nudged, sig) == key {
		t.Fatal("moving a valve did not change the key")
	}

	p2 := pacor.DefaultParams()
	p2.Lambda *= 2
	if RawKey(d, ParamsSig(p2)) == key {
		t.Fatal("parameter change did not change the key")
	}
}

// TestExactHit: the second identical request is served from memory — same
// result pointer, no second route — and a permuted presentation of the same
// chip is NOT served from the entry (routing is not permutation-
// equivariant), but still parents it as a near hit. Each route persists one
// record named by its key.
func TestExactHit(t *testing.T) {
	d := testDesign(t, "S1")
	dir := t.TempDir()
	var routes atomic.Int32
	r := New(Options{Dir: dir, RouteFn: func(d *valve.Design, p pacor.Params) (*pacor.Result, error) {
		routes.Add(1)
		return pacor.Route(d, p)
	}})
	sig := ParamsSig(pacor.DefaultParams())

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
		t.Fatal("permuted design must route (keys differ)")
	}
	for _, dd := range []*valve.Design{d, perm} {
		if _, err := os.Stat(filepath.Join(dir, RawKey(dd, sig).String())); err != nil {
			t.Fatalf("%s: no record named by its key: %v", dd.Name, err)
		}
	}
	if files, _ := os.ReadDir(dir); len(files) != 2 {
		t.Fatalf("two routes left %d files", len(files))
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
// clusters.
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

// TestLMSeedReplay: a near hit reuses only the parent's negotiation
// transcript. An ordinary-valve nudge and an LM-valve nudge of S3 each
// route byte-identically to cold, seeded, with LMReuse zero — in memory and
// through a fresh Router over the parent's directory (the cross-process
// path).
func TestLMSeedReplay(t *testing.T) {
	d := testDesign(t, "S3")
	params := pacor.DefaultParams()

	var lmNudged *valve.Design
	for _, dir := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
		if nd, err := bench.Nudge(d, d.LMClusters[0][0], dir[0], dir[1]); err == nil {
			lmNudged = nd
			break
		}
	}
	if lmNudged == nil {
		t.Fatal("no nudgeable LM valve")
	}
	check := func(label string, r *Router, nd *valve.Design) {
		t.Helper()
		warm, err := r.Route(nd, params)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := pacor.Route(nd, params)
		if err != nil {
			t.Fatal(err)
		}
		sameRouted(t, label, warm, cold)
		if warm.LMReuse != (pacor.LMReuseStats{}) {
			t.Fatalf("%s: LMReuse = %+v, want zero", label, warm.LMReuse)
		}
		if s := r.Snapshot(); s.NearHits != 1 || s.SeededHits == 0 {
			t.Fatalf("%s: near hit not seeded: %+v", label, s)
		}
	}
	for _, tc := range []struct {
		label string
		nd    *valve.Design
	}{
		{"ordinary nudge", ordinaryNudges(t, d)[0]},
		{"lm-valve nudge", lmNudged},
	} {
		r := New(Options{})
		if _, err := r.Route(d, params); err != nil {
			t.Fatal(err)
		}
		check(tc.label, r, tc.nd)

		dir := t.TempDir()
		if _, err := New(Options{Dir: dir}).Route(d, params); err != nil {
			t.Fatal(err)
		}
		check(tc.label+" from disk", New(Options{Dir: dir}), tc.nd)
	}
}

// TestSingleFlight: N concurrent identical requests each get the cold
// route's output, every request is counted once, and the store ends with
// one entry (run under -race in CI).
func TestSingleFlight(t *testing.T) {
	d := testDesign(t, "S1")
	cold, err := pacor.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r := New(Options{})

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
	wg.Wait()

	for i, res := range results {
		if res == nil {
			t.Fatalf("caller %d got no result", i)
		}
		sameRouted(t, "concurrent request", res, cold)
	}
	if s := r.Snapshot(); s.Hits+s.NearHits+s.Misses != n {
		t.Fatalf("%d requests counted as %+v", n, s)
	}
	if got, _ := r.Len(); got != 1 {
		t.Fatalf("%d identical requests left %d entries", n, got)
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
	file := filepath.Join(dir, RawKey(d, sig).String())
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

// TestDiskPermutedSibling: a fresh Router over S3's directory routes a
// valve-reordered presentation of S3 as a near hit off S3's record (Jaccard
// 1.0), equal to the reordered design's own cold route.
func TestDiskPermutedSibling(t *testing.T) {
	d := testDesign(t, "S3")
	params := pacor.DefaultParams()
	dir := t.TempDir()
	if _, err := New(Options{Dir: dir}).Route(d, params); err != nil {
		t.Fatal(err)
	}
	perm := permuteValves(d)
	r := New(Options{Dir: dir})
	warm, err := r.Route(perm, params)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := pacor.Route(perm, params)
	if err != nil {
		t.Fatal(err)
	}
	sameRouted(t, "permuted sibling", warm, cold)
	if s := r.Snapshot(); s.NearHits != 1 || s.DiskHits != 0 {
		t.Fatalf("permuted sibling not a disk near hit: %+v", s)
	}
}

// TestDiskRecordTampered: a well-formed record with bad contents degrades
// to a counted miss. Each case re-encodes S1's record with one defect; the
// route must not panic, must equal the cold route and pass Verify, and must
// not count a disk hit.
func TestDiskRecordTampered(t *testing.T) {
	d := testDesign(t, "S1")
	params := pacor.DefaultParams()
	sig := ParamsSig(params)
	cold, err := pacor.Route(d, params)
	if err != nil {
		t.Fatal(err)
	}
	other := RawKey(testDesign(t, "S2"), sig)

	for _, tc := range []struct {
		name   string
		tamper func(t *testing.T, rec *diskRecord)
	}{
		{"valve index out of range", func(t *testing.T, rec *diskRecord) {
			rec.Res.Clusters[0].Valves = append(rec.Res.Clusters[0].Valves, 9999)
		}},
		{"off-grid escape cell", func(t *testing.T, rec *diskRecord) {
			for i := range rec.Res.Clusters {
				if esc := rec.Res.Clusters[i].Escape; len(esc) > 0 {
					esc[len(esc)-1] = geom.Pt{X: d.W, Y: d.H}
					return
				}
			}
			t.Fatal("no cluster has an escape path")
		}},
		{"inner key from another design", func(t *testing.T, rec *diskRecord) {
			rec.Raw = other
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			if _, err := New(Options{Dir: dir}).Route(d, params); err != nil {
				t.Fatal(err)
			}
			file := filepath.Join(dir, RawKey(d, sig).String())
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			var rec diskRecord
			if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&rec); err != nil {
				t.Fatal(err)
			}
			tc.tamper(t, &rec)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, buf.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}

			r := New(Options{Dir: dir})
			var res *pacor.Result
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("Route panicked: %v", p)
					}
				}()
				res, err = r.Route(d, params)
			}()
			if err != nil {
				t.Fatal(err)
			}
			sameRouted(t, tc.name, res, cold)
			if err := pacor.Verify(d, res); err != nil {
				t.Fatalf("served result fails Verify: %v", err)
			}
			if s := r.Snapshot(); s.DiskHits != 0 || s.DiskErrors == 0 || s.Misses != 1 {
				t.Fatalf("tampered record not a counted miss: %+v", s)
			}
		})
	}
}

// TestJaccardThreshold: a parent below the default similarity threshold is
// not used for seeding — the route is a plain miss.
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
	r := New(Options{})
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
