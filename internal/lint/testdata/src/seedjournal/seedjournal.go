// Package seedjournal is a fixture for the journalpair analyzer over the
// seed/restore boundary of the cross-run cache: the obstacle journal
// recording a seeded attempt must be stopped in the same function whether
// the attempt commits, restores to the pre-seed mark, or bails out on a
// dirty cone — rewinding to a mark never closes the journal.
package seedjournal

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

// Seed stands in for a captured parent run.
type Seed struct{ rounds int }

// usable mirrors the seed validity gate.
func (s *Seed) usable() bool { return s != nil && s.rounds > 0 }

// replay stands in for serving one captured round against the journal.
func replay(o *ObsMap, p Pt) bool { return !o.Blocked(p) }

// seededPaired is the blessed shape: record the seeded attempt, restore
// to the mark when the replay diverges, stop either way.
func seededPaired(o *ObsMap, s *Seed, p Pt) bool {
	o.StartJournal()
	mark := o.JournalLen()
	ok := replay(o, p)
	if !ok && s.usable() {
		o.RewindJournal(mark)
	}
	o.StopJournal()
	return ok
}

// restore closes the journal on every path; it starts nothing.
func restore(o *ObsMap, mark int) {
	o.RewindJournal(mark)
	o.StopJournal()
}

// restoredByHelper stops on the commit path but hands the divergence
// path's stop to restore, which this body cannot see: a call only uses
// the map, so the stop belongs here (or in a defer).
func restoredByHelper(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	mark := o.JournalLen()
	if !replay(o, p) {
		restore(o, mark)
		return false
	}
	o.StopJournal()
	return true
}

// seedHitRewindLeak rewinds to the pre-seed mark on the divergence path
// and returns with the journal still recording every later edit.
func seedHitRewindLeak(o *ObsMap, s *Seed, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	mark := o.JournalLen()
	if s.usable() && !replay(o, p) {
		o.RewindJournal(mark)
		return false
	}
	o.StopJournal()
	return true
}

// captureNeverStops starts recording for a capture and forgets the stop
// entirely on the seed-miss path and the hit path alike.
func captureNeverStops(o *ObsMap, p Pt) bool {
	o.StartJournal() // want `journal on o is started here but does not reach StopJournal on every path`
	return replay(o, p)
}

// Capture stands in for a transcript under construction that keeps the
// map it records.
type Capture struct {
	rounds int
	obs    *ObsMap
}

// capturedIntoSeed escapes: the capture now owns the map and its journal
// obligation, so the local check stays silent.
func capturedIntoSeed(o *ObsMap) Capture {
	o.StartJournal()
	return Capture{rounds: 1, obs: o}
}
