package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/geom"
	"repro/internal/grid"
	"repro/internal/pacor"
)

// benchmarkFile is the part of BENCHMARK.json the program must agree with.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkUnits fails unless m holds exactly the wanted metrics, with their
// units, apart from the names in missing.
func checkUnits(t *testing.T, m map[string]metric, want []struct{ Name, Unit string }, missing ...string) {
	t.Helper()
	for _, w := range want {
		got, ok := m[w.Name]
		switch {
		case slices.Contains(missing, w.Name):
			if ok {
				t.Errorf("%s printed, want it refused", w.Name)
			}
		case !ok:
			t.Errorf("metric %s not printed", w.Name)
		case got.Unit != w.Unit:
			t.Errorf("%s has unit %q, BENCHMARK.json says %q", w.Name, got.Unit, w.Unit)
		}
	}
	if len(m)+len(missing) != len(want) {
		t.Errorf("printed %d metrics and refused %d, BENCHMARK.json lists %d", len(m), len(missing), len(want))
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	var names []string
	for _, w := range readBenchmarkFile(t).Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, ours)
	}
}

// TestWorkloadsQuick runs every workload twice with three requests, traced,
// which also times one untraced pass: every metric is printed with its unit,
// nothing fails, and quality and counters repeat exactly.
func TestWorkloadsQuick(t *testing.T) {
	bf := readBenchmarkFile(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			t.Parallel()
			var prev *outcome
			for i := 0; i < 2; i++ {
				o, err := w.run(config{seed: int64(i + 1), base: w.base, trace: true, requests: 3})
				if err != nil {
					t.Fatal(err)
				}
				if want := 2 * min(3, w.perPass()); o.attempted != want || o.failed != 0 {
					t.Fatalf("attempted %d, failed %d (%v); want %d, 0", o.attempted, o.failed, o.errors, want)
				}
				e2e, err := o.endToEnd(w)
				if err == nil || !strings.Contains(err.Error(), "route_ms_tail") {
					t.Errorf("route_ms_tail over 3 samples: err %v, want a refusal", err)
				}
				checkUnits(t, e2e, bf.EndToEnd, "route_ms_tail")
				layers := o.perLayer()
				checkUnits(t, layers, bf.PerLayer)
				if w.steps == 0 {
					checkStagesCoverRoute(t, o, layers)
				}
				if i == 0 {
					checkTraceFile(t, &o.spans)
				} else {
					if o.sum != prev.sum {
						t.Errorf("quality %+v, previous run %+v", o.sum, prev.sum)
					}
					counters := func(l layerStats) [10]int {
						return [10]int{l.neg.Rounds, l.neg.Searches, l.neg.CacheHits, l.neg.CacheMisses, l.neg.SeededHits,
							l.cands, l.candReplayed, l.selReplayed, l.cache.Hits, l.cache.NearHits}
					}
					if c, pc := counters(o.layers), counters(prev.layers); c != pc || o.layers.cache != prev.layers.cache {
						t.Errorf("counters differ between runs: %v, %+v; previous %v, %+v", c, o.layers.cache, pc, prev.layers.cache)
					}
				}
				prev = o
			}
		})
	}
}

// checkStagesCoverRoute checks that on a cold workload the stage times plus
// the unattributed rest equal the mean traced route time within 1%.
func checkStagesCoverRoute(t *testing.T, o *outcome, layers map[string]metric) {
	t.Helper()
	sum := layers["pacor.unattributed_ms"].Value
	for _, name := range stageNames {
		sum += layers["pacor."+name+"_ms"].Value
	}
	var total float64
	for _, s := range o.samples {
		if s.traced {
			total += ms(s.dur)
		}
	}
	mean := total / float64(o.layers.routes)
	if d := sum/mean - 1; d > 0.01 || d < -0.01 {
		t.Errorf("stages plus unattributed %.3f ms, mean route %.3f ms", sum, mean)
	}
}

// checkTraceFile writes the spans, parses them back, and checks that every
// derived stage span lies inside its request's root span.
func checkTraceFile(t *testing.T, tr *tracer) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.write(&buf); err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(buf.Bytes(), &f); err != nil {
		t.Fatal(err)
	}
	roots := map[float64]traceEvent{}
	for _, e := range f.TraceEvents {
		if e.Cat == "request" {
			roots[e.Args["req"].(float64)] = e
		}
	}
	derived := 0
	for _, e := range f.TraceEvents {
		if e.Ph != "X" || e.Dur < 0 {
			t.Fatalf("event %+v is not a complete span", e)
		}
		root, ok := roots[e.Args["req"].(float64)]
		if !ok {
			t.Fatalf("span %s has no root span for its request", e.Name)
		}
		if e.Args["derived"] != true {
			continue
		}
		derived++
		const slack = 1e-3 // microseconds of float rounding
		if e.Ts < root.Ts-slack || e.Ts+e.Dur > root.Ts+root.Dur+slack {
			t.Errorf("%s [%f, %f] outside its root [%f, %f]", e.Name, e.Ts, e.Ts+e.Dur, root.Ts, root.Ts+root.Dur)
		}
	}
	if derived == 0 {
		t.Error("no derived stage spans")
	}
}

func TestPercentiles(t *testing.T) {
	if sampleFloor(90) != 100 || sampleFloor(75) != 40 {
		t.Errorf("sample floors p90 %d, p75 %d; want 100, 40", sampleFloor(90), sampleFloor(75))
	}
	for _, tc := range []struct {
		n, p int
		want float64
	}{
		{100, 90, 90}, {40, 75, 30}, {8, 90, 8}, {2, 75, 2}, {3, 50, 2}, {100, 50, 50}, {1, 50, 1},
	} {
		xs := make([]float64, tc.n) // n..1, so the sort matters
		for i := range xs {
			xs[i] = float64(tc.n - i)
		}
		if got := nearestRank(xs, tc.p); got != tc.want {
			t.Errorf("p%d of 1..%d = %v, want %v", tc.p, tc.n, got, tc.want)
		}
	}
}

// TestTailRefusedBelowFloor checks that route_ms_tail is refused one sample
// short of its floor and reported at the floor.
func TestTailRefusedBelowFloor(t *testing.T) {
	for _, w := range workloads {
		for _, n := range []int{sampleFloor(w.tail) - 1, sampleFloor(w.tail)} {
			o := &outcome{setup: []time.Duration{time.Second}}
			for i := 0; i < n; i++ {
				o.samples = append(o.samples, sample{req: i % w.perPass(), dur: time.Millisecond})
			}
			m, err := o.endToEnd(w)
			_, ok := m["route_ms_tail"]
			if refused := n < sampleFloor(w.tail); ok == refused || (err != nil) != refused {
				t.Errorf("%s with %d samples: tail printed %v, err %v", w.name, n, ok, err)
			}
		}
	}
}

// TestFailuresCounted checks that a result edited to break the design rules,
// a routing error and a result that differs from a cold route each count as
// attempted and failed, not dropped.
func TestFailuresCounted(t *testing.T) {
	d, err := bench.Generate("S1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := pacor.Route(d, pacor.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	tl := tally{first: map[int]quality{}}
	tl.count(tl.check(0, d, res, nil))
	if tl.attempted != 1 || tl.failed != 0 {
		t.Fatalf("good result: attempted %d failed %d", tl.attempted, tl.failed)
	}

	bad := *res
	bad.Clusters = slices.Clone(res.Clusters)
	bad.Clusters[0].Paths = append(slices.Clone(bad.Clusters[0].Paths), grid.Path{{X: -1, Y: 0}})
	tl.count(tl.check(0, d, &bad, nil))
	tl.count(tl.check(0, d, nil, errors.New("no route")))
	if tl.attempted != 3 || tl.failed != 2 || tl.sum.matched != 2*res.MatchedClusters {
		t.Errorf("attempted %d failed %d matched %d; want 3, 2, %d", tl.attempted, tl.failed, tl.sum.matched, 2*res.MatchedClusters)
	}

	moved := *res
	moved.Clusters = slices.Clone(res.Clusters)
	moved.Clusters[0].Pin = moved.Clusters[0].Pin.Add(geom.Pt{X: 1})
	if sameRouting(&moved, res) == nil {
		t.Error("a moved pin matches the cold route")
	}
	if err := sameRouting(res, res); err != nil {
		t.Error(err)
	}
}
