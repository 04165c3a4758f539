// Package interproc is a fixture for journalpair at function boundaries:
// helper calls, closures, deferred calls and recursion. The check reads
// one body at a time, so a call only uses the map it is passed (a helper's
// stop discharges nothing), while a closure that captures the map takes
// the obligation with it.
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

// finish stops on every path; it starts nothing, so it owes nothing.
func finish(o *ObsMap, p Pt) bool {
	ok := !o.Blocked(p)
	o.StopJournal()
	return ok
}

// finishMaybe stops on only one path.
func finishMaybe(o *ObsMap, p Pt, commit bool) bool {
	if commit {
		o.StopJournal()
		return true
	}
	return !o.Blocked(p)
}

// observe only reads the map.
func observe(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// helperDischarges hands the stop to finish, which this body cannot see.
func helperDischarges(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return finish(o, p)
}

// helperObservesLeak: the helper merely reads, and nothing stops.
func helperObservesLeak(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return observe(o, p)
}

// maybeStops hands a partial stop to a helper.
func maybeStops(o *ObsMap, p Pt, commit bool) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return finishMaybe(o, p, commit)
}

// maybeStopsLate also leaves the journal open on its early return.
func maybeStopsLate(o *ObsMap, p Pt, commit, early bool) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	if early {
		return false
	}
	return finishMaybe(o, p, commit)
}

// closureDischarges is silent: the cleanup closure captures o, which
// moves the obligation into the closure.
func closureDischarges(o *ObsMap, p Pt) bool {
	o.StartJournal()
	cleanup := func() { o.StopJournal() }
	ok := observe(o, p)
	cleanup()
	return ok
}

// closureNeverStops is silent for the same reason, although its closure
// only reads: a capture moves the obligation whatever the closure does.
func closureNeverStops(o *ObsMap, p Pt) bool {
	o.StartJournal()
	peek := func() bool { return observe(o, p) }
	return peek()
}

// deferredClosureReads is silent: the deferred closure captures o.
func deferredClosureReads(o *ObsMap, p Pt) bool {
	o.StartJournal()
	defer func() { observe(o, p) }()
	return !o.Blocked(p)
}

// deferredClosureClean stops inside the deferred closure; silent.
func deferredClosureClean(o *ObsMap, p Pt, fail bool) bool {
	o.StartJournal()
	defer func() { o.StopJournal() }()
	if fail {
		return false
	}
	return observe(o, p)
}

// deferredHelper defers a helper call: a deferred call uses o like any
// other call, so only defer o.StopJournal() covers the exits.
func deferredHelper(o *ObsMap, p Pt, fail bool) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	defer finish(o, p)
	if fail {
		return false
	}
	return observe(o, p)
}

// stopEven / stopOdd are mutually recursive and both bottom out in a stop.
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

// mutualRecursion hands the stop to the recursive pair.
func mutualRecursion(o *ObsMap, n int) {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
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

// selfRecursion hands the stop to the recursive helper.
func selfRecursion(o *ObsMap, n int) {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	drainSelf(o, n)
}

// recurseNoStop is recursive and never stops.
func recurseNoStop(o *ObsMap, p Pt, n int) int {
	if n <= 0 {
		return 0
	}
	if o.Blocked(p) {
		return 1
	}
	return recurseNoStop(o, p, n-1) + 1
}

// recursionLeak: nothing stops the journal.
func recursionLeak(o *ObsMap, p Pt, n int) int {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return recurseNoStop(o, p, n)
}
