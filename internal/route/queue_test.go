package route

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/grid"
)

// TestBucketQueueSlidingWindow drives the ring Dijkstra-style across many
// multiples of the bucket count: pops must come out in nondecreasing key
// order, and equal keys in push order, even as the window wraps the ring.
func TestBucketQueueSlidingWindow(t *testing.T) {
	var q bucketQueue
	if !q.prep(6) {
		t.Fatal("span 6 must be feasible")
	}
	// B = 8 here; keys advance to ~200, so the window laps the ring ~25 times.
	type pushed struct {
		key int64
		val int32
	}
	rng := rand.New(rand.NewSource(7))
	var log []pushed
	next := int32(0)
	push := func(key int64) {
		q.push(key, next)
		log = append(log, pushed{key, next})
		next++
	}
	push(0)
	push(0) // equal keys at the very start
	var pops []pushed
	for q.count > 0 {
		v, ok := q.pop()
		if !ok {
			t.Fatal("count > 0 but pop failed")
		}
		key := log[v].key
		pops = append(pops, pushed{key, v})
		// Push up to two successors within the window while below key 200.
		if key < 200 {
			for n := rng.Intn(3); n > 0; n-- {
				push(key + int64(rng.Intn(6)))
			}
		}
	}
	for i := 1; i < len(pops); i++ {
		a, b := pops[i-1], pops[i]
		if b.key < a.key {
			t.Fatalf("pop %d: key %d after %d (not nondecreasing)", i, b.key, a.key)
		}
		if b.key == a.key && b.val < a.val {
			t.Fatalf("pop %d: equal key %d popped val %d after %d (not FIFO)", i, b.key, b.val, a.val)
		}
	}
	if len(pops) != len(log) {
		t.Fatalf("popped %d of %d pushes", len(pops), len(log))
	}
}

// TestBucketQueueEmptySkipAndRollback covers the cursor mechanics: long empty
// stretches are skipped, and a push below the cursor (the bounded search's
// under-length penalty) rolls it back.
func TestBucketQueueEmptySkipAndRollback(t *testing.T) {
	var q bucketQueue
	if !q.prep(120) {
		t.Fatal("span 120 must be feasible")
	}
	q.push(100, 1)           // cursor starts at 100
	q.push(3, 2)             // below cursor: rolls back
	q.push(3, 3)             // equal key, later push
	want := []int32{2, 3, 1} // 3 before 100, FIFO within key 3, 96 empty buckets skipped
	for i, wv := range want {
		v, ok := q.pop()
		if !ok || v != wv {
			t.Fatalf("pop %d = %d,%v, want %d", i, v, ok, wv)
		}
	}
	if _, ok := q.pop(); ok {
		t.Fatal("empty queue popped a value")
	}
}

// TestBucketQueuePrepFeasibility pins the ring cap: spans at or past
// maxBucketSpan (and negative spans) are rejected, the boundary below passes.
func TestBucketQueuePrepFeasibility(t *testing.T) {
	var q bucketQueue
	if q.prep(-1) {
		t.Error("negative span accepted")
	}
	if q.prep(maxBucketSpan) {
		t.Error("span = maxBucketSpan accepted")
	}
	if !q.prep(maxBucketSpan - 1) {
		t.Error("span = maxBucketSpan-1 rejected")
	}
}

// TestHistQuant pins the certification rule: the paper's Alpha = 0.1 is
// certifiable through one history bump (h ∈ {0, 1}) and not past it (1.1 is
// not dyadic), while dyadic alphas certify deep and scales stay powers of two.
func TestHistQuant(t *testing.T) {
	for bumps, wantOK := range []bool{true, true, false, false} {
		scale, maxStep, ok := HistQuant(1.0, 0.1, bumps)
		if ok != wantOK {
			t.Errorf("alpha=0.1 bumps=%d: ok=%v, want %v", bumps, ok, wantOK)
		}
		if ok {
			if scale&(scale-1) != 0 || scale <= 0 {
				t.Errorf("alpha=0.1 bumps=%d: scale %d not a power of two", bumps, scale)
			}
			if maxStep != scale*int64(1+bumps) {
				// iterates are 0,1,2,... at alpha where certified (bumps ≤ 1)
				t.Errorf("alpha=0.1 bumps=%d: maxStep %d, scale %d", bumps, maxStep, scale)
			}
		}
	}
	// Dyadic alpha: h iterates 0, 1, 1.5, 1.75, ... all exact at scale 2^bumps
	// or less; certification must hold deep.
	for bumps := 0; bumps <= 12; bumps++ {
		scale, maxStep, ok := HistQuant(1.0, 0.5, bumps)
		if !ok {
			t.Fatalf("alpha=0.5 bumps=%d: not certified", bumps)
		}
		if scale&(scale-1) != 0 {
			t.Fatalf("alpha=0.5 bumps=%d: scale %d not a power of two", bumps, scale)
		}
		if maxStep < scale || maxStep > 3*scale {
			t.Fatalf("alpha=0.5 bumps=%d: maxStep %d implausible for scale %d", bumps, maxStep, scale)
		}
	}
	// Alpha = 0: history saturates after one bump; certified at scale 1.
	if scale, _, ok := HistQuant(1.0, 0, 64); !ok || scale != 1 {
		t.Errorf("alpha=0: scale=%d ok=%v, want 1 true", scale, ok)
	}
	if _, _, ok := HistQuant(-1, 0, 1); ok {
		t.Error("negative history certified")
	}
}

// TestAStarHeapFallbacks: a search quietly runs on the heap when the
// request's cost domain carries no integrality certificate (caller-supplied
// Hist), and on the bucket when it does.
func TestAStarHeapFallbacks(t *testing.T) {
	g := grid.New(16, 16)
	w := NewWorkspace(g)
	hist := make([]float64, g.Cells())
	hist[g.Index(geom.Pt{X: 8, Y: 8})] = 0.3 // non-dyadic, uncertified
	req := Request{Sources: []geom.Pt{{X: 0, Y: 0}}, Targets: []geom.Pt{{X: 15, Y: 15}}, Hist: hist}

	if _, ok := w.AStar(g, req); !ok {
		t.Fatal("search failed")
	}
	if w.lastBucket {
		t.Error("uncertified Hist ran on the bucket queue, want heap")
	}

	// A certified domain (here nil Hist: unit costs) runs on the bucket.
	req.Hist = nil
	if _, ok := w.AStar(g, req); !ok {
		t.Fatal("search failed")
	}
	if !w.lastBucket {
		t.Error("unit-cost search ran on the heap, want bucket")
	}
}

// TestQueueModesByteIdentical: on random mazes, heap and bucket searches
// (plain and bounded) return byte-identical paths, and the bucket mode is
// actually exercised.
func TestQueueModesByteIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	g := grid.New(24, 24)
	wHeap, wBucket := NewWorkspace(g), NewWorkspace(g)
	wHeap.heapOnly = true
	usedBucket := 0
	for trial := 0; trial < 60; trial++ {
		obs := grid.NewObsMap(g)
		for i := 0; i < 80; i++ {
			obs.Set(geom.Pt{X: rng.Intn(24), Y: rng.Intn(24)}, true)
		}
		src := geom.Pt{X: rng.Intn(24), Y: rng.Intn(24)}
		dst := geom.Pt{X: rng.Intn(24), Y: rng.Intn(24)}
		obs.Set(src, false)
		obs.Set(dst, false)
		req := Request{Sources: []geom.Pt{src}, Targets: []geom.Pt{dst}, Obs: obs}

		ph, okh := wHeap.AStar(g, req)
		pb, okb := wBucket.AStar(g, req)
		if okh != okb || !pathsEqual(ph, pb) {
			t.Fatalf("trial %d: A* diverged between heap and bucket\nheap   %v %v\nbucket %v %v", trial, ph, okh, pb, okb)
		}
		if wBucket.lastBucket {
			usedBucket++
		}

		minLen := geom.Dist(src, dst) + rng.Intn(8)
		maxLen := minLen + rng.Intn(4)
		bh, okbh := wHeap.BoundedAStar(g, req, minLen, maxLen)
		bb, okbb := wBucket.BoundedAStar(g, req, minLen, maxLen)
		if okbh != okbb || !pathsEqual(bh, bb) {
			t.Fatalf("trial %d: bounded search diverged between heap and bucket", trial)
		}
	}
	if usedBucket == 0 {
		t.Error("no trial actually ran on the bucket queue")
	}
}
