package cfg

import (
	"fmt"
	"strings"
	"testing"
)

func sampleSummaries() map[string]*Summary {
	return map[string]*Summary{
		"p.Finish": {
			Params: []ParamSummary{{OpensJournal: true}},
		},
		"p.(T).Commit": {
			Recv:   true,
			Params: []ParamSummary{{StopsJournalAlways: true, StopsJournalMay: true}},
		},
		"p.Stamp": {StampsAlways: true, Checked: true},
		"p.Die":   {NoReturn: true},
		"p.host$0": {
			Params: []ParamSummary{{Escapes: true}},
		},
	}
}

// TestEncodeDecodeRoundTrip checks that a package's summary map comes
// back out of the Store intact, key by key. Summaries never leave the
// process, so closure summaries are kept like any other.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	sums := sampleSummaries()
	s := NewStore()
	for k, v := range sums {
		s.Put(k, v)
	}
	for k, want := range sums {
		if got := s.Get(k); !got.Equal(want) {
			t.Errorf("%s: stored %+v, got back %+v", k, want, got)
		}
	}
}

// TestEncodeDeterministic pins what two summarizations of one package
// rely on: building the CFG of the same body twice gives the same blocks
// and edges, and Solve over each gives the same fact at every block.
func TestEncodeDeterministic(t *testing.T) {
	const body = `
x := 0
for i := 0; i < 3; i++ {
	if i == x {
		continue
	}
	x = i
}
switch x {
case 1:
	x = 2
	fallthrough
case 2:
	return
}
_ = x`
	shape := func(g *Graph) string {
		var b strings.Builder
		for _, blk := range g.RPO() {
			fmt.Fprintf(&b, "%d:%d->", blk.Index, len(blk.Nodes))
			for _, s := range blk.Succs {
				fmt.Fprintf(&b, "%d,", s.Index)
			}
			b.WriteByte(' ')
		}
		return b.String()
	}
	// A may-analysis of which blocks can precede each block: any change in
	// block numbering or edges shows up in the facts.
	solve := func(g *Graph) []uint64 {
		return Solve(g, Problem[uint64]{
			Transfer: func(b *Block, in uint64) uint64 { return in | 1<<uint(b.Index) },
			Join:     func(a, b uint64) uint64 { return a | b },
			Equal:    func(a, b uint64) bool { return a == b },
		})
	}
	g1, g2 := New(parseBody(t, body)), New(parseBody(t, body))
	if a, b := shape(g1), shape(g2); a != b {
		t.Fatalf("CFG shape differs between builds:\n%s\n%s", a, b)
	}
	if a, b := fmt.Sprint(solve(g1)), fmt.Sprint(solve(g2)); a != b {
		t.Errorf("Solve facts differ between builds:\n%s\n%s", a, b)
	}
}

// TestSummaryEqual covers the fixed-point change detector.
func TestSummaryEqual(t *testing.T) {
	a := &Summary{Params: []ParamSummary{{StopsJournalAlways: true}}}
	b := &Summary{Params: []ParamSummary{{StopsJournalAlways: true}}}
	if !a.Equal(b) {
		t.Error("identical summaries compare unequal")
	}
	b.Params[0].Escapes = true
	if a.Equal(b) {
		t.Error("differing param summaries compare equal")
	}
	if a.Equal(nil) {
		t.Error("non-nil equals nil")
	}
	var n *Summary
	if !n.Equal(nil) {
		t.Error("nil does not equal nil")
	}
}

// TestParamOutOfRange pins the zero-value fallback for variadic tails.
func TestParamOutOfRange(t *testing.T) {
	s := &Summary{Params: []ParamSummary{{StopsJournalAlways: true}}}
	if got := s.Param(5); got != (ParamSummary{}) {
		t.Errorf("out-of-range Param = %+v, want zero", got)
	}
	var n *Summary
	if got := n.Param(0); got != (ParamSummary{}) {
		t.Errorf("nil Param = %+v, want zero", got)
	}
}

// TestStore covers the accumulation API the driver uses across packages.
func TestStore(t *testing.T) {
	s := NewStore()
	if s.Get("x") != nil {
		t.Error("empty store returned a summary")
	}
	s.Put("x", &Summary{NoReturn: true})
	s.Put("y", &Summary{StampsAlways: true})
	if got := s.Get("x"); got == nil || !got.NoReturn {
		t.Errorf("Get(x) = %+v", got)
	}
	if got := s.Get("y"); got == nil || !got.StampsAlways {
		t.Errorf("Get(y) = %+v", got)
	}
}
