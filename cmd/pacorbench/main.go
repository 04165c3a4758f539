// Command pacorbench is the repository's end-to-end benchmark. It runs one
// workload in its own process as a closed loop with one client: each request
// is a timed call to pacor.Route (designcache.Router.Route on edit-s5) with
// DefaultParams, and every result is checked with pacor.Verify outside the
// timed region. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 160, "failed": 0, "metrics": {"routes_per_s": {"value": 9.8, "unit": "1/s"}, ...}}
//
// A traced run (-trace 1, or -trace out.json to also write the spans as
// Chrome trace-event JSON for Perfetto) alternates untraced and traced passes
// and prints per-layer metrics instead: stage times from Result.StageTimes,
// replays of the layers' public entry points timed from outside, and the
// negotiation and design-cache counters.
//
// Usage:
//
//	pacorbench -workload s5-cold [-seed n] [-base b] [-seconds s] [-trace 0|1|file]
//	pacorbench -list
//
// Build and run it from the repository root with cmd/pacorbench/run.sh,
// which keeps every build artifact under .bench_build.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "pacorbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("pacorbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see -list)")
	seed := fs.Int64("seed", 1, "shuffles the request order of every pass of a cold workload")
	base := fs.Int64("base", 0, "design-seed base (0: the workload's default; -list names the held-out one)")
	seconds := fs.Int("seconds", 20, "measurement budget in seconds; a run always completes the passes its tail percentile needs")
	traceArg := fs.String("trace", "0", "0: end-to-end metrics; 1: per-layer metrics from a traced run; a file name: as 1, and write the spans there as Chrome trace-event JSON")
	list := fs.Bool("list", false, "print the workloads and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		return printList(stdout, *seconds)
	}
	w, err := findWorkload(*name)
	if err != nil {
		return err
	}
	cfg := config{seed: *seed, base: *base, budget: time.Duration(*seconds) * time.Second, trace: *traceArg != "0"}
	if cfg.base == 0 {
		cfg.base = w.base
	}
	// The flow runs sequentially (Workers 0). A second P would only host GC
	// workers and scheduler noise: 15 routes of S5 seed 1019 spread 583-746 ms
	// between quartiles at GOMAXPROCS 2 and 493-518 ms at 1.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	start := time.Now()
	o, err := w.run(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	fmt.Fprintf(stderr, "%s: base %d, seed %d: %d requests in %d passes, %d failed, %.1f s\n",
		w.name, cfg.base, cfg.seed, o.attempted, o.passes, o.failed, time.Since(start).Seconds())
	for _, e := range o.errors {
		fmt.Fprintln(stderr, "  failed:", e)
	}

	var m map[string]metric
	if cfg.trace {
		m = o.perLayer()
		if *traceArg != "1" {
			if err := writeTrace(*traceArg, &o.spans); err != nil {
				return err
			}
		}
	} else if m, err = o.endToEnd(w); err != nil {
		return err
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{o.failed == 0, o.attempted, o.failed, m})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeTrace(path string, tr *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.write(f); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// metric is one named number of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd computes the metrics a user of the router sees, over the untraced
// samples. A request's time is its median over the run's passes, so a GC
// pause or a noisy neighbour in one pass stays out of every time metric, and
// the percentiles are taken over those per-request times. The tail is
// refused, and left out, when the run timed fewer samples than its floor.
func (o *outcome) endToEnd(w *workload) (map[string]metric, error) {
	var byReq [][]sample
	timed := 0
	for _, s := range o.samples {
		if !s.traced {
			timed++
			for len(byReq) <= s.req {
				byReq = append(byReq, nil)
			}
			byReq[s.req] = append(byReq[s.req], s)
		}
	}
	durs := make([]float64, len(byReq))
	var wallMs, cpuMs, alloc float64
	for i, ss := range byReq {
		durs[i] = median(ss, func(s sample) float64 { return ms(s.dur) })
		wallMs += durs[i]
		cpuMs += median(ss, func(s sample) float64 { return ms(s.cpu) })
		alloc += median(ss, func(s sample) float64 { return float64(s.alloc) })
	}
	n := float64(len(byReq))
	setup := slices.Clone(o.setup)
	slices.Sort(setup)
	m := map[string]metric{
		"routes_per_s":          {1000 * n / wallMs, "1/s"},
		"route_ms_p50":          {nearestRank(durs, 50), "ms"},
		"cpu_ms_per_route":      {cpuMs / n, "ms"},
		"alloc_mb_per_route":    {alloc / n / 1e6, "MB"},
		"setup_s":               {setup[len(setup)/2].Seconds(), "s"},
		"matched_clusters_mean": {float64(o.sum.matched) / float64(o.attempted), "count"},
		"channel_len_mean":      {float64(o.sum.length) / float64(o.attempted), "cells"},
		"completion_pct":        {100 * float64(o.sum.routed) / float64(max(o.sum.valves, 1)), "%"},
	}
	if need := sampleFloor(w.tail); timed < need {
		return m, fmt.Errorf("route_ms_tail: p%d needs %d timed samples, have %d", w.tail, need, timed)
	}
	m["route_ms_tail"] = metric{nearestRank(durs, w.tail), "ms"}
	return m, nil
}

// perLayer computes the traced run's metrics: times as means per traced
// request, counts as totals per traced pass (one run of the request set; one
// session on edit-s5).
func (o *outcome) perLayer() map[string]metric {
	l := &o.layers
	perRoute := func(d time.Duration) metric { return metric{ms(d) / float64(l.routes), "ms"} }
	perPass := func(c int) metric { return metric{float64(c) / float64(l.passes), "count"} }
	pct := func(a, b int) metric {
		if b == 0 {
			return metric{0, "%"}
		}
		return metric{100 * float64(a) / float64(b), "%"}
	}
	m := map[string]metric{
		"pacor.unattributed_ms":   perRoute(l.unattributed),
		"cluster.partition_ms":    perRoute(l.partition),
		"dme.candidates_ms":       perRoute(l.candidates),
		"dme.candidates":          perPass(l.cands),
		"seltree.select_ms":       perRoute(l.selection),
		"seltree.local_fallback":  perPass(l.localFallback),
		"route.negotiate_ms":      perRoute(l.negotiate),
		"escape.route_ms":         perRoute(l.escape),
		"route.rounds":            perPass(l.neg.Rounds),
		"route.searches":          perPass(l.neg.Searches),
		"route.cache_hits":        perPass(l.neg.CacheHits),
		"route.cache_hit_pct":     pct(l.neg.CacheHits, l.neg.CacheHits+l.neg.CacheMisses),
		"route.seeded_hits":       perPass(l.neg.SeededHits),
		"pacor.cand_replayed":     perPass(l.candReplayed),
		"pacor.sel_replayed":      perPass(l.selReplayed),
		"designcache.hits":        perPass(l.cache.Hits),
		"designcache.near_hits":   perPass(l.cache.NearHits),
		"designcache.misses":      perPass(l.cache.Misses),
		"designcache.evictions":   perPass(l.cache.Evictions),
		"designcache.seeded_hits": perPass(l.cache.SeededHits),
		"designcache.hit_pct":     pct(l.cache.Hits, l.cache.Hits+l.cache.NearHits+l.cache.Misses),
	}
	for i, name := range stageNames {
		m["pacor."+name+"_ms"] = perRoute(l.stages[i])
	}
	var traced, untraced []float64
	for _, s := range o.samples {
		if s.traced {
			traced = append(traced, ms(s.dur))
		} else {
			untraced = append(untraced, ms(s.dur))
		}
	}
	m["trace.overhead_pct"] = metric{100 * (nearestRank(traced, 50)/nearestRank(untraced, 50) - 1), "%"}
	return m
}
