// Package interproc is a fixture for the interprocedural journalpair
// cases: obligations discharged or kept alive through helper calls,
// call-only closure bindings, deferred closures, and (mutual) recursion —
// exactly the patterns an intraprocedural check either misses (silent
// escape) or cannot prove clean.
package interproc

//pacor:pkgpath fixture/internal/search

// Pt stands in for geom.Pt.
type Pt struct{ X, Y int }

// ObsMap stands in for grid.ObsMap.
type ObsMap struct {
	bits    []bool
	journal []int
}

// Blocked mirrors the real obstacle query.
func (o *ObsMap) Blocked(p Pt) bool { return len(o.bits) > 0 && o.bits[0] }

// StartJournal mirrors the recording switch.
func (o *ObsMap) StartJournal() { o.journal = o.journal[:0] }

// StopJournal mirrors the recording stop.
func (o *ObsMap) StopJournal() { o.journal = nil }

// finish stops on every path: callers that hand their map to it have
// discharged the obligation.
func finish(o *ObsMap, p Pt) bool {
	ok := !o.Blocked(p)
	o.StopJournal()
	return ok
}

// finishMaybe stops on only one path: callers can neither keep nor drop
// the obligation, so the call clears it optimistically (no local report —
// the bug, if any, is inside finishMaybe's contract, not at the call site).
func finishMaybe(o *ObsMap, p Pt, commit bool) bool {
	if commit {
		o.StopJournal()
		return true
	}
	return !o.Blocked(p)
}

// observe only reads the map; the caller keeps the obligation.
func observe(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// helperDischarges is clean: finish always stops.
func helperDischarges(o *ObsMap, p Pt) bool {
	o.StartJournal()
	return finish(o, p)
}

// helperObservesLeak: without summaries the observe call would be an
// escape; the summary says observe merely reads, so the leak is visible.
func helperObservesLeak(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return observe(o, p)
}

// maybeStops stays silent: finishMaybe's partial stop clears the
// obligation at the call.
func maybeStops(o *ObsMap, p Pt, commit bool) bool {
	o.StartJournal()
	return finishMaybe(o, p, commit)
}

// maybeStopsLate: the may-stop clears the obligation only on the path that
// makes the call; the early return leaves the journal open.
func maybeStopsLate(o *ObsMap, p Pt, commit, early bool) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	if early {
		return false
	}
	return finishMaybe(o, p, commit)
}

// closureDischarges is clean: cleanup is bound once, only called, and
// stops on its every path.
func closureDischarges(o *ObsMap, p Pt) bool {
	o.StartJournal()
	cleanup := func() { o.StopJournal() }
	ok := observe(o, p)
	cleanup()
	return ok
}

// closureNeverStops: the bound closure only reads, so the obligation never
// moves — a capture alone is not an escape.
func closureNeverStops(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	peek := func() bool { return observe(o, p) }
	return peek()
}

// deferredClosureReads: the deferred closure only reads, which covers no
// path, so the journal stays open on every return.
func deferredClosureReads(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	defer func() { observe(o, p) }()
	return !o.Blocked(p)
}

// deferredClosureClean stops unconditionally inside the deferred closure:
// covered on every path.
func deferredClosureClean(o *ObsMap, p Pt, fail bool) bool {
	o.StartJournal()
	defer func() { o.StopJournal() }()
	if fail {
		return false
	}
	return observe(o, p)
}

// deferredHelperClean: defer finish(o, p) discharges through the summary.
func deferredHelperClean(o *ObsMap, p Pt, fail bool) bool {
	o.StartJournal()
	defer finish(o, p)
	if fail {
		return false
	}
	return observe(o, p)
}

// stopEven / stopOdd are mutually recursive and both bottom out in a stop:
// the SCC fixed point must converge on StopsJournalAlways.
func stopEven(o *ObsMap, n int) {
	if n <= 0 {
		o.StopJournal()
		return
	}
	stopOdd(o, n-1)
}

func stopOdd(o *ObsMap, n int) {
	if n <= 0 {
		o.StopJournal()
		return
	}
	stopEven(o, n-1)
}

// mutualRecursionClean: the recursive pair stops on every path.
func mutualRecursionClean(o *ObsMap, n int) {
	o.StartJournal()
	stopEven(o, n)
}

// drainSelf is directly recursive and stops at the base case.
func drainSelf(o *ObsMap, n int) {
	if n <= 0 {
		o.StopJournal()
		return
	}
	drainSelf(o, n-1)
}

// selfRecursionClean: direct recursion converges the same way.
func selfRecursionClean(o *ObsMap, n int) {
	o.StartJournal()
	drainSelf(o, n)
}

// recurseNoStop is recursive and never stops on the returning path.
func recurseNoStop(o *ObsMap, p Pt, n int) int {
	if n <= 0 {
		return 0
	}
	if o.Blocked(p) {
		return 1
	}
	return recurseNoStop(o, p, n-1) + 1
}

// recursionLeak: the recursive helper's fixed point settles on "no stop",
// so the caller still owes one.
func recursionLeak(o *ObsMap, p Pt, n int) int {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return recurseNoStop(o, p, n)
}
