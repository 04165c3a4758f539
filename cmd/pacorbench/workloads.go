package main

import (
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"repro/internal/bench"
	"repro/internal/valve"
)

// workload is one set of requests the benchmark routes, pass after pass. A
// cold workload routes designs base..base+designs-1 through pacor.Route, once
// each per pass in a seed-shuffled order. An edit workload replays one
// designcache session per pass: a fresh router opened by an untimed cold route
// of the base design, then steps edits in a fixed order.
type workload struct {
	name string
	spec func() bench.Spec
	// base and heldOut are design-seed bases: the default, and one kept out
	// of the numbers a change was tuned on.
	base, heldOut int64
	designs       int
	steps         int
	// tail is the percentile reported as route_ms_tail; a run times at least
	// sampleFloor(tail) routes.
	tail int
	// passSecs and setupSecs are one pass and one whole set-up on the
	// reference host (2 vCPUs, go1.24.0); -list uses them for run length.
	passSecs, setupSecs float64
}

// The design seeds are fixed per workload rather than drawn from -seed: S5
// seeds 1015-1022 route in 29-517 ms (the ILP), so a design mix drawn from
// -seed would move every time metric by more than its bound.
var workloads = []*workload{
	{
		name: "s5-cold",
		spec: func() bench.Spec { return tableSpec("S5") },
		base: 1015, heldOut: 2015, designs: 8, tail: 90,
		passSecs: 0.85, setupSecs: 0.3,
	},
	{
		name: "chip2-escape",
		spec: func() bench.Spec { return tableSpec("Chip2") },
		base: 1002, heldOut: 2002, designs: 4, tail: 90,
		passSecs: 0.56, setupSecs: 0.4,
	},
	{
		name: "stress-select",
		spec: bench.StressSpec,
		base: 9001, heldOut: 9103, designs: 2, tail: 75,
		passSecs: 1.05, setupSecs: 1.5,
	},
	{
		name: "edit-s5",
		spec: func() bench.Spec { return tableSpec("S5") },
		base: 1015, heldOut: 2015, designs: 1, steps: 100, tail: 90,
		passSecs: 8.5, setupSecs: 0.3,
	},
}

// tableSpec returns the Table 1 spec of the given name.
func tableSpec(name string) bench.Spec {
	for _, s := range bench.Specs {
		if s.Name == name {
			return s
		}
	}
	panic("pacorbench: no Table 1 spec " + name)
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (see -list)", name)
}

// perPass is the number of timed requests in one pass.
func (w *workload) perPass() int {
	if w.steps > 0 {
		return w.steps
	}
	return w.designs
}

// minPasses is the fewest passes that give route_ms_tail its sample floor.
func (w *workload) minPasses() int {
	need := sampleFloor(w.tail)
	return (need + w.perPass() - 1) / w.perPass()
}

// request is one timed call. id indexes the pass plan and is the same in
// every pass, so a request's result can be compared across passes.
type request struct {
	id     int
	design *valve.Design
}

// plan is what one pass routes: the requests and, for an edit workload, the
// design that opens each session.
type plan struct {
	open *valve.Design
	reqs []request
}

// makePlan generates the workload's designs from the design-seed base.
func (w *workload) makePlan(base int64) (*plan, error) {
	spec := w.spec()
	p := &plan{}
	for i := 0; i < w.designs; i++ {
		spec.Seed = base + int64(i)
		d, err := bench.GenerateSpec(spec)
		if err != nil {
			return nil, err
		}
		d.Name = fmt.Sprintf("%s-%d", spec.Name, spec.Seed)
		p.reqs = append(p.reqs, request{id: i, design: d})
	}
	if w.steps == 0 {
		return p, nil
	}
	p.open = p.reqs[0].design
	reqs, err := editWalk(p.open, w.steps, base)
	if err != nil {
		return nil, err
	}
	p.reqs = reqs
	return p, nil
}

// editWalk draws an edit session from seed: each step undoes the last edit
// with probability 1/4 (an exact cache hit) or moves a random valve one cell
// (a near hit that writes a new entry).
func editWalk(d0 *valve.Design, steps int, seed int64) ([]request, error) {
	rng := rand.New(rand.NewSource(seed))
	dirs := [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}
	stack := []*valve.Design{d0}
	reqs := make([]request, 0, steps)
	for i := 0; i < steps; i++ {
		if len(stack) > 1 && rng.Intn(4) == 0 {
			stack = stack[:len(stack)-1]
			reqs = append(reqs, request{id: i, design: stack[len(stack)-1]})
			continue
		}
		cur := stack[len(stack)-1]
		for try := 0; ; try++ {
			if try == 1000 {
				return nil, fmt.Errorf("edit step %d: no valve of %s admits a unit move", i, d0.Name)
			}
			dir := dirs[rng.Intn(4)]
			nd, err := bench.Nudge(cur, rng.Intn(len(cur.Valves)), dir[0], dir[1])
			if err != nil {
				continue
			}
			nd.Name = fmt.Sprintf("%s-step%d", d0.Name, i)
			stack = append(stack, nd)
			reqs = append(reqs, request{id: i, design: nd})
			break
		}
	}
	return reqs, nil
}

// order returns the requests of one pass: shuffled for a cold workload, in
// session order for an edit workload.
func (w *workload) order(p *plan, rng *rand.Rand) []request {
	out := append([]request(nil), p.reqs...)
	if w.steps == 0 {
		rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	}
	return out
}

// printList writes each workload's seeds, request plan, held-out base and
// expected run length for a run of the given budget.
func printList(out io.Writer, seconds int) error {
	tw := tabwriter.NewWriter(out, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tdesign seeds\trequests/pass\tmin passes\ttail\theld-out base\texpected run")
	for _, w := range workloads {
		seeds := fmt.Sprintf("%d..%d", w.base, w.base+int64(w.designs)-1)
		if w.steps > 0 {
			seeds = fmt.Sprintf("%d (walk seed %d)", w.base, w.base)
		}
		passes := max(w.minPasses(), int(float64(seconds)/w.passSecs))
		fmt.Fprintf(tw, "%s\t%s %s\t%d\t%d\tp%d\t%d\t~%.0f s\n",
			w.name, w.spec().Name, seeds, w.perPass(), w.minPasses(), w.tail, w.heldOut, w.setupSecs+float64(passes)*w.passSecs)
	}
	return tw.Flush()
}
