// Package gohandoff is a fixture for journalpair's rule on `go`
// statements: a spawned call's arguments and a spawned closure's captured
// variables move to the new goroutine, and the spawner's journal
// obligation goes with them, so no leak is reported. The synchronous calls
// are the controls: a call only uses the map it is passed, so they leak
// whether or not the callee stops.
package gohandoff

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

// consume stops on every path.
func consume(o *ObsMap, p Pt) bool {
	ok := !o.Blocked(p)
	o.StopJournal()
	return ok
}

// observe only reads the map.
func observe(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// syncConsume is a control: a synchronous call does not take the
// obligation, even to a callee that stops.
func syncConsume(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return consume(o, p)
}

// syncObserve is a control: a read-only helper leaves the obligation
// here, and nothing stops the journal.
func syncObserve(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return observe(o, p)
}

// spawnConsume hands the map to a goroutine: not a leak.
func spawnConsume(o *ObsMap, p Pt) {
	o.StartJournal()
	go consume(o, p)
}

// spawnObserve hands the map to a goroutine that never stops it: the
// obligation leaves with the argument, so it is not reported here.
func spawnObserve(o *ObsMap, p Pt) {
	o.StartJournal()
	go observe(o, p)
}

// spawnClosure hands the map to a spawned closure by capture.
func spawnClosure(o *ObsMap, p Pt, ch chan bool) {
	o.StartJournal()
	go func() { ch <- observe(o, p) }()
}

// spawnCall hands its parameter to a goroutine; it starts nothing.
func spawnCall(o *ObsMap, p Pt) { go consume(o, p) }

// spawnCapture does the same through a spawned closure's capture.
func spawnCapture(o *ObsMap, p Pt) {
	go func() { consume(o, p) }()
}

// viaSpawnCall calls the spawning helper synchronously: a use, so the
// journal started here leaks as far as this body shows.
func viaSpawnCall(o *ObsMap, p Pt) {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	spawnCall(o, p)
}

// viaSpawnCapture is the same through the capturing helper.
func viaSpawnCapture(o *ObsMap, p Pt) {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	spawnCapture(o, p)
}
