// Package gohandoff is a fixture for the summaries' rule on `go`
// statements: a spawned call's arguments and a spawned closure's captured
// variables escape to the new goroutine. The spawner's journal obligation
// goes with them, so no leak is reported; and the spawned callee's stop is
// never credited at the spawn site, because it runs later, on another
// goroutine. The synchronous cases are the controls.
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

// consume stops on every path: a synchronous call discharges the caller's
// obligation.
func consume(o *ObsMap, p Pt) bool {
	ok := !o.Blocked(p)
	o.StopJournal()
	return ok
}

// observe only reads the map; the caller keeps the obligation.
func observe(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// syncConsume is the control for crediting: the synchronous call stops.
func syncConsume(o *ObsMap, p Pt) bool {
	o.StartJournal()
	return consume(o, p)
}

// syncObserve is the control for escaping: a read-only helper leaves the
// obligation here, and nothing stops the journal.
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

// spawnCall's summary: the parameter escapes and is never stopped here.
func spawnCall(o *ObsMap, p Pt) { go consume(o, p) }

// spawnCapture's summary: the same, through a spawned closure's capture.
func spawnCapture(o *ObsMap, p Pt) {
	go func() { consume(o, p) }()
}

// viaSpawnCall applies spawnCall's summary: an ownership transfer, so no
// leak.
func viaSpawnCall(o *ObsMap, p Pt) {
	o.StartJournal()
	spawnCall(o, p)
}

// viaSpawnCapture is the same through the capturing helper.
func viaSpawnCapture(o *ObsMap, p Pt) {
	o.StartJournal()
	spawnCapture(o, p)
}
