// Package journalpair is a fixture for the journalpair analyzer: every
// ObsMap.StartJournal must reach StopJournal on all paths of the same
// function, directly or through a deferred stop.
package journalpair

//pacor:pkgpath fixture/internal/route

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

// RewindJournal mirrors the rollback.
func (o *ObsMap) RewindJournal(n int) { o.journal = o.journal[:n] }

// JournalLen mirrors the mark query.
func (o *ObsMap) JournalLen() int { return len(o.journal) }

// route stands in for one routing attempt against the journal.
func route(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// paired is the blessed pattern: start, attempt, stop.
func paired(o *ObsMap, p Pt) bool {
	o.StartJournal()
	ok := route(o, p)
	o.StopJournal()
	return ok
}

// deferredStop covers every path, early returns included.
func deferredStop(o *ObsMap, p Pt, fail bool) bool {
	o.StartJournal()
	defer o.StopJournal()
	if fail {
		return false
	}
	return route(o, p)
}

// leakOnError stops only on the happy path: the error return leaves the
// journal recording every subsequent edit.
func leakOnError(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	if !route(o, p) {
		return false
	}
	o.StopJournal()
	return true
}

// neverStopped has no stop at all.
func neverStopped(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return route(o, p)
}

// rewindThenLeak rolls back but forgets to stop: rewinding does not close
// the journal.
func rewindThenLeak(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	mark := o.JournalLen()
	if !route(o, p) {
		o.RewindJournal(mark)
		return false
	}
	o.StopJournal()
	return true
}

// commit stands in for a helper that always closes the journal.
func commit(o *ObsMap) { o.StopJournal() }

// stoppedByHelper leaks as far as this body shows: passing o to a call
// only uses it, so the stop must be written here.
func stoppedByHelper(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	ok := route(o, p)
	commit(o)
	return ok
}

// ownedScope starts a journal only when the caller has none and defers
// the stop in the same branch, the shape of detour's restore scope.
func ownedScope(o *ObsMap, owned bool, p Pt) bool {
	if owned {
		o.StartJournal()
		defer o.StopJournal()
	}
	return route(o, p)
}

// panicEndsPath is clean: the panicking branch never returns, so only
// the returning path has to stop the journal.
func panicEndsPath(o *ObsMap, p Pt) bool {
	o.StartJournal()
	if o.Blocked(p) {
		panic("journalpair: blocked source")
	}
	o.StopJournal()
	return true
}

// stopBeforePanicOnly stops on the panicking branch alone, which covers
// nothing: the returning path still leaks.
func stopBeforePanicOnly(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	if o.Blocked(p) {
		o.StopJournal()
		panic("journalpair: blocked source")
	}
	return route(o, p)
}

// nestedMarks rewinds to an inner mark, then stops: still paired.
func nestedMarks(o *ObsMap, p Pt, q Pt) bool {
	o.StartJournal()
	outer := o.JournalLen()
	ok := route(o, p)
	inner := o.JournalLen()
	if !route(o, q) {
		o.RewindJournal(inner)
	}
	if !ok {
		o.RewindJournal(outer)
	}
	o.StopJournal()
	return ok
}

// Request stands in for negotiation state that owns the journal after an
// escape.
type Request struct{ obs *ObsMap }

// escapesIntoRequest transfers the obligation with the value: the local
// check stays silent.
func escapesIntoRequest(o *ObsMap) *Request {
	o.StartJournal()
	return &Request{obs: o}
}
