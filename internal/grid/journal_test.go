package grid

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func TestJournalRewindRestoresChanges(t *testing.T) {
	g := New(6, 6)
	m := NewObsMap(g)
	m.Set(geom.Pt{X: 1, Y: 1}, true)

	m.Journal(nil, func() {
		m.Set(geom.Pt{X: 2, Y: 2}, true)
		m.Set(geom.Pt{X: 1, Y: 1}, false)
		m.SetPath(Path{{X: 0, Y: 0}, {X: 0, Y: 1}}, true)
		m.RewindJournal(0)
	})
	if m.Count() != 1 || !m.Blocked(geom.Pt{X: 1, Y: 1}) {
		t.Fatalf("rewind did not restore the original map: count=%d", m.Count())
	}
}

func TestJournalRecordsOnlyValueChanges(t *testing.T) {
	g := New(4, 4)
	m := NewObsMap(g)
	m.Set(geom.Pt{X: 0, Y: 0}, true)
	m.Journal(nil, func() {
		m.Set(geom.Pt{X: 0, Y: 0}, true)  // no-op: already blocked
		m.Set(geom.Pt{X: 1, Y: 1}, false) // no-op: already clear
		m.Set(geom.Pt{X: -3, Y: 0}, true) // no-op: off grid
		if m.JournalLen() != 0 {
			t.Fatalf("no-op sets journaled %d entries", m.JournalLen())
		}
		m.Set(geom.Pt{X: 1, Y: 1}, true)
		if m.JournalLen() != 1 {
			t.Fatalf("JournalLen = %d after one change", m.JournalLen())
		}
	})
}

func TestJournalNestedMarks(t *testing.T) {
	g := New(5, 5)
	m := NewObsMap(g)
	m.Journal(nil, func() {
		m.Set(geom.Pt{X: 0, Y: 0}, true) // outer scope
		mark := m.JournalLen()
		m.Set(geom.Pt{X: 1, Y: 0}, true) // inner scope
		m.Set(geom.Pt{X: 0, Y: 0}, false)
		m.Set(geom.Pt{X: 0, Y: 0}, true) // repeated flips of one cell
		m.RewindJournal(mark)
		if m.Blocked(geom.Pt{X: 1, Y: 0}) {
			t.Error("inner change survived the rewind")
		}
		if !m.Blocked(geom.Pt{X: 0, Y: 0}) {
			t.Error("outer change lost by the inner rewind")
		}
		m.RewindJournal(0)
		if m.Count() != 0 {
			t.Errorf("full rewind left %d blocked cells", m.Count())
		}
	})
}

func TestJournalCopyFromRecordsDiffs(t *testing.T) {
	g := New(4, 4)
	m := NewObsMap(g)
	m.Set(geom.Pt{X: 0, Y: 0}, true)
	src := NewObsMap(g)
	src.Set(geom.Pt{X: 3, Y: 3}, true)

	m.Journal(nil, func() {
		m.CopyFrom(src)
		if m.JournalLen() != 2 {
			t.Fatalf("CopyFrom journaled %d entries, want 2 (one per differing cell)", m.JournalLen())
		}
		m.RewindJournal(0)
	})
	if !m.Blocked(geom.Pt{X: 0, Y: 0}) || m.Blocked(geom.Pt{X: 3, Y: 3}) {
		t.Fatal("rewind did not undo CopyFrom")
	}
}

func TestJournalBufferReuse(t *testing.T) {
	g := New(4, 4)
	m := NewObsMap(g)
	buf := m.Journal(nil, func() { m.Set(geom.Pt{X: 1, Y: 1}, true) })
	if len(buf) != 1 {
		t.Fatalf("returned buffer has %d entries", len(buf))
	}
	m.Journal(buf, func() { // reuse: must truncate, not replay
		if m.JournalLen() != 0 {
			t.Fatalf("reused buffer not truncated: len %d", m.JournalLen())
		}
	})
}

func TestNestedJournalPanics(t *testing.T) {
	m := NewObsMap(New(3, 3))
	m.Journal(nil, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a nested Journal must panic")
			}
		}()
		m.Journal(nil, func() {})
	})
}

// TestJournalStopsOnPanic: a panic in fn still closes the journal, so a
// later rewind panics and a new journal opens.
func TestJournalStopsOnPanic(t *testing.T) {
	m := NewObsMap(New(3, 3))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("fn's panic did not propagate out of Journal")
			}
		}()
		m.Journal(nil, func() {
			m.Set(geom.Pt{X: 1, Y: 1}, true)
			panic("fn fails")
		})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("RewindJournal after a panicked Journal must panic")
			}
		}()
		m.RewindJournal(0)
	}()
	buf := m.Journal(nil, func() { m.Set(geom.Pt{X: 2, Y: 2}, true) })
	if len(buf) != 1 {
		t.Fatalf("journal opened after the panic recorded %d entries, want 1", len(buf))
	}
}

func TestRewindJournalPanicsWithoutJournal(t *testing.T) {
	m := NewObsMap(New(3, 3))
	defer func() {
		if recover() == nil {
			t.Fatal("RewindJournal without a journal must panic")
		}
	}()
	m.RewindJournal(0)
}

// TestJournalRandomizedRoundTrip: any interleaving of Set/SetPath/SetRect/
// CopyFrom under a journal rewinds back to the starting map exactly.
func TestJournalRandomizedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	g := New(12, 12)
	for trial := 0; trial < 50; trial++ {
		m := NewObsMap(g)
		for i := 0; i < 30; i++ {
			m.Set(geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)}, rng.Intn(2) == 0)
		}
		want := m.Clone()
		other := NewObsMap(g)
		for i := 0; i < 20; i++ {
			other.Set(geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)}, true)
		}

		m.Journal(nil, func() {
			for op := 0; op < 40; op++ {
				switch rng.Intn(4) {
				case 0:
					m.Set(geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)}, rng.Intn(2) == 0)
				case 1:
					a := geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)}
					m.SetPath(Path{a, {X: a.X, Y: (a.Y + 1) % 12}}, rng.Intn(2) == 0)
				case 2:
					r := geom.RectOf(
						geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)},
						geom.Pt{X: rng.Intn(12), Y: rng.Intn(12)})
					m.SetRect(r, rng.Intn(2) == 0)
				case 3:
					m.CopyFrom(other)
				}
			}
			m.RewindJournal(0)
		})
		for i := 0; i < g.Cells(); i++ {
			p := g.Pt(i)
			if m.Blocked(p) != want.Blocked(p) {
				t.Fatalf("trial %d: cell %v differs after rewind", trial, p)
			}
		}
	}
}
