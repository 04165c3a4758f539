package route

import (
	"sync"

	"repro/internal/geom"
	"repro/internal/grid"
)

// This file implements the deterministic speculative scheduler behind the
// parallel negotiation router (and the pacor flow's per-cluster routing
// stages): an ordered list of routing tasks executes across a worker pool
// with results byte-identical to the sequential reference loop, for every
// worker count.
//
// Mechanism: each task declares a spatial window (a scheduling hint). A task
// becomes runnable once every earlier task whose window overlaps its own has
// committed; tasks with pairwise-disjoint windows run concurrently — the
// wavefronts of the spatial-dependency DAG. Each run executes against a
// private snapshot of the obstacle state (base + all committed paths at
// snapshot time) while its workspace records every cell the searches touch.
// Results commit strictly in task order. At commit, a result whose snapshot
// missed the paths of earlier tasks is validated exactly: both grid searches
// stamp a cell before querying its obstacle status, so if no missed path
// cell is in the recorded visit set, the search transcript — and therefore
// the result — is identical to the sequential one. A result that did visit a
// missed path cell is discarded and the task re-runs against the full
// committed prefix, which is the sequential state by construction. The
// windows therefore only control how often the (rare) redo path is taken,
// never the output.

// ScheduledTask is one unit of work for RunScheduled.
type ScheduledTask struct {
	// Window estimates where the task's searches and resulting paths live;
	// see SearchWindow. An empty window overlaps nothing.
	Window geom.Rect
	// Run executes the task. obs holds the base obstacles plus the committed
	// paths of a prefix of earlier tasks; Run may mutate it freely as scratch
	// (mutations are discarded — only the returned Paths are committed, and
	// only when OK). Every obstacle read must go through searches on ws (or
	// cells the searches touched): ws.AStar, ws.BoundedAStar, and compositions
	// of them (mstroute.RouteClusterWS) qualify. Run must be deterministic in
	// the contents of obs and must not touch shared mutable state.
	Run func(ws *Workspace, obs *grid.ObsMap) TaskOutcome
}

// TaskOutcome is a task's result. Paths are the cells committed as obstacles
// for later tasks when OK; Payload rides along untouched for the caller's
// commit callback.
type TaskOutcome struct {
	OK      bool
	Paths   []grid.Path
	Payload interface{}
}

// RunScheduled executes tasks so that the commit sequence and the final
// contents of base are byte-identical to the sequential reference loop
//
//	scratch := base.Clone()
//	for i := range tasks {
//		scratch.CopyFrom(base)
//		out := tasks[i].Run(ws, scratch)
//		if out.OK {
//			for _, p := range out.Paths {
//				base.SetPath(p, true)
//			}
//		}
//		commit(i, out)
//	}
//
// for every worker count. commit is called exactly once per task, in task
// order, never concurrently; it must not call back into the scheduler. base
// is mutated in place (the committed paths accumulate onto it).
func RunScheduled(base *grid.ObsMap, tasks []ScheduledTask, workers int, commit func(i int, out TaskOutcome)) {
	var commitV func(int, TaskOutcome, []uint64)
	if commit != nil {
		commitV = func(i int, out TaskOutcome, _ []uint64) { commit(i, out) }
	}
	runScheduled(base, tasks, workers, false, commitV)
}

// RunScheduledVisits is RunScheduled with the committed run's visit set
// handed to the commit callback: visits is the bitmap of every cell the
// task's searches stamped — a superset of every cell whose obstacle state
// they read, because tracked searches stamp before reading. A negotiation
// capture (seed.go) records it as the edge's search cone. The slice is only
// valid for the duration of the callback; callers keep a copy.
func RunScheduledVisits(base *grid.ObsMap, tasks []ScheduledTask, workers int, commit func(i int, out TaskOutcome, visits []uint64)) {
	runScheduled(base, tasks, workers, true, commit)
}

func runScheduled(base *grid.ObsMap, tasks []ScheduledTask, workers int, needVisits bool, commit func(int, TaskOutcome, []uint64)) {
	if len(tasks) == 0 {
		return
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		runSequential(base, tasks, needVisits, commit)
		return
	}
	s := &scheduler{ //pacor:allow hotalloc per-run scheduler state, amortized over every task in the round
		g:          base.Grid(),
		base:       base,
		tasks:      tasks,
		commitFn:   commit,
		needVisits: needVisits,
		maxDep:     windowDeps(tasks),
		started:    make([]bool, len(tasks)),       //pacor:allow hotalloc per-run setup, not per search step
		results:    make([]*runResult, len(tasks)), //pacor:allow hotalloc per-run setup, not per search step
	}
	s.cond = sync.NewCond(&s.mu)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() { //pacor:allow hotalloc one spawn per worker per round, amortized over the round's tasks
			defer wg.Done()
			s.worker()
		}()
	}
	wg.Wait()
}

// runSequential is the reference loop (worker count 1): same snapshot
// semantics, no goroutines. The snapshot is maintained incrementally — one
// full copy up front, then each task's scratch mutations are rewound through
// the obstacle journal (O(task changes)) and the committed paths are applied
// to both maps, instead of re-copying O(cells) per task. Tracking is on only
// when the caller asked for visit sets.
func runSequential(base *grid.ObsMap, tasks []ScheduledTask, needVisits bool, commit func(int, TaskOutcome, []uint64)) {
	ws := AcquireWorkspace(base.Grid())
	scratch := ws.scratchFor(base.Grid())
	scratch.CopyFrom(base)
	scratch.StartJournal(ws.seqJournal)
	for i := range tasks {
		mark := scratch.JournalLen()
		var visits []uint64
		if needVisits {
			ws.StartVisitTracking()
		}
		out := tasks[i].Run(ws, scratch)
		if needVisits {
			ws.StopVisitTracking()
			ws.seqVisits = ws.CopyVisits(ws.seqVisits[:0])
			visits = ws.seqVisits
		}
		scratch.RewindJournal(mark)
		if out.OK {
			for _, p := range out.Paths {
				base.SetPath(p, true)
				scratch.SetPath(p, true)
			}
		}
		if commit != nil {
			commit(i, out, visits)
		}
	}
	ws.seqJournal = scratch.StopJournal()
	ReleaseWorkspace(ws)
}

// windowDeps computes, per task, the highest-numbered earlier task whose
// window overlaps its own (-1 when none). Because tasks commit in order,
// "every earlier overlapping task has committed" reduces to "the committed
// prefix extends past maxDep".
//
//pacor:allow hotalloc per-run dependency table, built once per scheduling round
func windowDeps(tasks []ScheduledTask) []int32 {
	maxDep := make([]int32, len(tasks))
	for j := range tasks {
		maxDep[j] = -1
		wj := tasks[j].Window
		if wj.Empty() {
			continue
		}
		for i := j - 1; i >= 0; i-- {
			if !tasks[i].Window.Intersect(wj).Empty() {
				maxDep[j] = int32(i)
				break
			}
		}
	}
	return maxDep
}

// runResult is one speculative result awaiting (or past) commit.
type runResult struct {
	out    TaskOutcome
	snap   int      // committed-prefix length the run's snapshot included
	visits []uint64 // cells the run's searches touched; nil for exact (redo) results
}

type scheduler struct {
	g     grid.Grid
	tasks []ScheduledTask
	// needVisits means the commit callback consumes visit sets, so the redo
	// path must re-run with tracking on instead of dropping the bitmap.
	needVisits bool

	mu   sync.Mutex
	cond *sync.Cond
	// base accumulates committed paths; workers snapshot from it under mu.
	base      *grid.ObsMap
	maxDep    []int32
	started   []bool
	results   []*runResult
	committed int
	commitFn  func(int, TaskOutcome, []uint64)
}

// worker claims runnable tasks until everything has committed. Each worker
// owns one workspace and one snapshot map for its whole lifetime.
//
//pacor:hot
func (s *scheduler) worker() {
	ws := AcquireWorkspace(s.g)
	scratch := grid.NewObsMap(s.g)
	var visitBuf []uint64
	s.mu.Lock()
	for {
		i := s.nextRunnable()
		if i < 0 {
			if s.committed == len(s.tasks) {
				break
			}
			s.cond.Wait()
			continue
		}
		s.started[i] = true
		scratch.CopyFrom(s.base)
		snap := s.committed
		s.mu.Unlock()

		ws.StartVisitTracking()
		out := s.tasks[i].Run(ws, scratch)
		ws.StopVisitTracking()
		visitBuf = ws.CopyVisits(visitBuf[:0])
		visits := append([]uint64(nil), visitBuf...) //pacor:allow hotalloc per-task capture of the visit set, one copy per task

		s.mu.Lock()
		s.results[i] = &runResult{out: out, snap: snap, visits: visits} //pacor:allow hotalloc one result record per task, not per search step
		s.advance(ws, scratch)
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	ReleaseWorkspace(ws)
}

// nextRunnable returns the lowest-index unstarted task whose window
// dependencies have all committed, or -1. Called with mu held.
func (s *scheduler) nextRunnable() int {
	for i := s.committed; i < len(s.tasks); i++ {
		if !s.started[i] && int(s.maxDep[i]) < s.committed {
			return i
		}
	}
	return -1
}

// advance commits every consecutive available result, validating (and where
// necessary redoing) each against the exact sequential state. Called with mu
// held; ws and scratch are the calling worker's (idle at this point).
//
//pacor:locked
func (s *scheduler) advance(ws *Workspace, scratch *grid.ObsMap) {
	for s.committed < len(s.tasks) {
		i := s.committed
		r := s.results[i]
		if r == nil {
			return
		}
		if !s.valid(i, r) {
			// The speculative run observed a cell a later-committed path now
			// occupies: its transcript is unreliable. Re-run against the full
			// committed prefix — exactly the sequential state for task i.
			// When the caller consumes visit sets, the redo runs tracked so
			// its exact cone replaces the discarded speculative one.
			scratch.CopyFrom(s.base)
			if s.needVisits {
				ws.StartVisitTracking()
				r.out = s.tasks[i].Run(ws, scratch)
				ws.StopVisitTracking()
				r.visits = ws.CopyVisits(r.visits[:0])
			} else {
				r.out = s.tasks[i].Run(ws, scratch)
				r.visits = nil
			}
			r.snap = i
		}
		if r.out.OK {
			for _, p := range r.out.Paths {
				s.base.SetPath(p, true)
			}
		}
		s.committed = i + 1
		if s.commitFn != nil {
			s.commitFn(i, r.out, r.visits)
		}
	}
}

// valid reports whether result r of task i is exact: no path committed after
// r's snapshot was taken touches a cell r's searches visited. Called with mu
// held.
func (s *scheduler) valid(i int, r *runResult) bool {
	if r.visits == nil || r.snap == i {
		return true
	}
	for j := r.snap; j < i; j++ {
		rj := s.results[j]
		if !rj.out.OK {
			continue
		}
		for _, p := range rj.out.Paths {
			for _, c := range p {
				ci := s.g.Index(c)
				if r.visits[ci>>6]&(1<<(uint(ci)&63)) != 0 {
					return false
				}
			}
		}
	}
	return true
}
