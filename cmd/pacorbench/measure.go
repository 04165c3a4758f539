package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"

	"repro/internal/designcache"
	"repro/internal/pacor"
	"repro/internal/valve"
)

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 5

// config is one run's settings.
type config struct {
	seed   int64 // shuffles the request order of each cold pass
	base   int64 // design-seed base
	budget time.Duration
	trace  bool
	// requests > 0 makes a quick run: one set-up, then one pass (two when
	// tracing) of the first requests, with no minimum pass count.
	requests int
}

// sample is one timed request.
type sample struct {
	req    int
	traced bool
	dur    time.Duration
	cpu    time.Duration
	alloc  uint64
}

// outcome is everything a run measured.
type outcome struct {
	tally
	samples []sample
	setup   []time.Duration
	passes  int
	layers  layerStats
	spans   tracer
}

// run sets the workload up setupRepeats times, then routes passes until the
// budget is spent and the tail percentile has its sample floor. A traced run
// alternates untraced and traced passes, so it measures its own overhead.
func (w *workload) run(cfg config) (*outcome, error) {
	params := pacor.DefaultParams()
	o := &outcome{tally: tally{first: map[int]quality{}}}
	var p *plan
	repeats := setupRepeats
	if cfg.requests > 0 {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		t0 := time.Now()
		var err error
		if p, err = w.makePlan(cfg.base); err != nil {
			return nil, err
		}
		if w.steps > 0 {
			_, err = designcache.New(designcache.Options{}).Route(p.open, params)
		} else {
			_, err = pacor.Route(p.reqs[0].design, params)
		}
		if err != nil {
			return nil, fmt.Errorf("warm-up route: %w", err)
		}
		o.setup = append(o.setup, time.Since(t0))
	}
	if cfg.requests > 0 && cfg.requests < len(p.reqs) {
		p.reqs = p.reqs[:cfg.requests]
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	o.spans.t0 = time.Now()
	for {
		traced := cfg.trace && o.passes%2 == 1
		t0 := time.Now()
		if err := o.pass(p, w.order(p, rng), params, traced); err != nil {
			return nil, err
		}
		o.passes++
		if o.enough(w, cfg, time.Since(t0)) {
			return o, nil
		}
	}
}

// enough reports whether the run has measured all it must: a traced run at
// least one pass of each kind, an untraced one the passes its tail
// percentile needs. Past those, it stops when another pass as long as the
// last one would end after the budget.
func (o *outcome) enough(w *workload, cfg config, last time.Duration) bool {
	switch {
	case cfg.trace && o.passes < 2:
		return false
	case cfg.requests > 0:
		return true
	case !cfg.trace && o.passes < w.minPasses():
		return false
	}
	return time.Since(o.spans.t0)+last > cfg.budget
}

// pass routes one pass. Only the route call is timed; checks and, in a traced
// pass, the layer replays run after it.
func (o *outcome) pass(p *plan, reqs []request, params pacor.Params, traced bool) error {
	route := func(d *valve.Design) (*pacor.Result, error) { return pacor.Route(d, params) }
	var router *designcache.Router
	if p.open != nil {
		router = designcache.New(designcache.Options{})
		if _, err := router.Route(p.open, params); err != nil {
			return fmt.Errorf("session-opening route: %w", err)
		}
		route = func(d *valve.Design) (*pacor.Result, error) { return router.Route(d, params) }
	}
	var hitsBefore int
	for _, rq := range reqs {
		if router != nil {
			hitsBefore = router.Snapshot().Hits
		}
		cpu0, alloc0 := cpuTime(), allocBytes()
		t0 := time.Now()
		res, err := route(rq.design)
		dur := time.Since(t0)
		s := sample{req: rq.id, traced: traced, dur: dur, cpu: cpuTime() - cpu0, alloc: allocBytes() - alloc0}
		problem := o.check(rq.id, rq.design, res, err)
		if traced {
			hit := router != nil && router.Snapshot().Hits > hitsBefore
			// Every tenth edit step is also routed cold: the cached or seeded
			// result must match it.
			coldCheck := router != nil && rq.id%10 == 0
			if perr := o.trace(rq.design, res, t0, dur, hit, coldCheck, params); problem == nil {
				problem = perr
			}
		}
		o.count(problem)
		o.samples = append(o.samples, s)
	}
	if traced {
		o.layers.passes++
		if router != nil {
			o.layers.addCache(router.Snapshot())
		}
	}
	return nil
}

// quality is the part of a result the paper's Table 2 reports.
type quality struct{ matched, length, routed, valves int }

func qualityOf(r *pacor.Result) quality {
	return quality{r.MatchedClusters, r.TotalLen, r.RoutedValves, r.TotalValves}
}

// tally counts attempted and failed requests and sums the quality of every
// returned result.
type tally struct {
	attempted, failed int
	sum               quality
	// first holds each request's first result, which later passes must repeat.
	first  map[int]quality
	errors []string
}

// check returns why a request's outcome is wrong: a routing error, a result
// that fails pacor.Verify, or one that differs from the request's first
// result. It adds a returned result's quality to the sums either way.
func (t *tally) check(id int, d *valve.Design, res *pacor.Result, err error) error {
	if err != nil {
		return fmt.Errorf("%s: %w", d.Name, err)
	}
	q := qualityOf(res)
	t.sum.matched += q.matched
	t.sum.length += q.length
	t.sum.routed += q.routed
	t.sum.valves += q.valves
	if err := pacor.Verify(d, res); err != nil {
		return fmt.Errorf("%s: verify: %w", d.Name, err)
	}
	if prev, ok := t.first[id]; !ok {
		t.first[id] = q
	} else if prev != q {
		return fmt.Errorf("%s: result %+v differs from the first pass's %+v", d.Name, q, prev)
	}
	return nil
}

// count records one attempted request, failed when problem is non-nil.
func (t *tally) count(problem error) {
	t.attempted++
	if problem == nil {
		return
	}
	t.failed++
	if len(t.errors) < 5 {
		t.errors = append(t.errors, problem.Error())
	}
}

// sampleFloor is the fewest timed samples a run needs before it reports the
// p-th percentile: enough that ten lie beyond it.
func sampleFloor(p int) int { return 1000 / (100 - p) }

// nearestRank returns the nearest-rank p-th percentile of xs, which must not
// be empty.
func nearestRank(xs []float64, p int) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := (p*len(s) + 99) / 100
	return s[max(rank, 1)-1]
}

// median is the nearest-rank median of f over ss, which must not be empty.
func median(ss []sample, f func(sample) float64) float64 {
	xs := make([]float64, len(ss))
	for i, s := range ss {
		xs[i] = f(s)
	}
	return nearestRank(xs, 50)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user plus system time. Getrusage of RUSAGE_SELF
// into a valid buffer cannot fail, so an error is a bug.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocBytes is the cumulative heap allocation of the process.
func allocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
