package cfg

// This file defines the function-summary lattice the interprocedural
// analyzers consume. A Summary condenses one function body into the
// protocol effects visible at its call sites — does it stamp visits before
// reading obstacle state, open or close an obstacle journal, let a
// parameter escape, never return — so callers apply the summary
// instead of giving up ("escapes") at the call. Summaries are computed
// bottom-up over the call graph's SCCs with a fixed point for recursion
// (see internal/lint/summaries.go). The driver analyzes packages in
// dependency order, so a package's summaries are in the Store before any
// importer is analyzed; summaries never leave the process.

// ParamSummary describes a function's effect on one parameter (the
// receiver counts as parameter 0 for methods). "Always" bits are
// must-facts — true on every terminating path; "May" bits are
// may-facts — true on at least one path.
type ParamSummary struct {
	// Escapes: the parameter may be retained beyond the call (stored,
	// returned, captured, passed to an unknown callee). Callers must stop
	// tracking it.
	Escapes bool
	// StopsJournalAlways: every terminating path calls StopJournal on the
	// parameter (directly or through a callee that does). A call discharges
	// the caller's journal obligation.
	StopsJournalAlways bool
	// StopsJournalMay: some path calls StopJournal on the parameter.
	StopsJournalMay bool
	// OpensJournal: some path calls StartJournal on the parameter and
	// returns without stopping it.
	OpensJournal bool
}

// Summary is the effect summary of one function.
type Summary struct {
	// Recv is true when the function is a method and Params[0] is the
	// receiver.
	Recv bool
	// Params are the per-parameter effects, receiver first for methods.
	Params []ParamSummary
	// StampsAlways: every terminating path stamps a workspace visit
	// (touch/visit/StartVisitTracking) before returning, so code after the
	// call is in the stamped state.
	StampsAlways bool
	// ReadsUnstamped: some path reads ObsMap.Blocked before any visit
	// stamp inside this function. Propagated to call sites that are
	// themselves un-stamped — unless the callee is Checked.
	ReadsUnstamped bool
	// Checked: the function is itself inside the snapshotread analyzer's
	// scope (hot package or //pacor:hot, with a workspace in scope), so
	// violations are reported in its own body and do not propagate to
	// callers; it is its own reporting boundary.
	Checked bool
	// NoReturn: the function cannot return normally on any path (every
	// path panics, exits, or loops forever). Callers prune the successor
	// paths of such calls.
	NoReturn bool
}

// Param returns the i-th parameter summary, zero when out of range (more
// arguments than summarized parameters — variadic tail, or a partially
// checked package).
func (s *Summary) Param(i int) ParamSummary {
	if s == nil || i < 0 || i >= len(s.Params) {
		return ParamSummary{}
	}
	return s.Params[i]
}

// Equal reports whether two summaries carry the same facts (fixed-point
// detection during SCC iteration).
func (s *Summary) Equal(o *Summary) bool {
	if s == nil || o == nil {
		return s == o
	}
	if s.Recv != o.Recv || s.StampsAlways != o.StampsAlways ||
		s.ReadsUnstamped != o.ReadsUnstamped || s.Checked != o.Checked ||
		s.NoReturn != o.NoReturn || len(s.Params) != len(o.Params) {
		return false
	}
	for i := range s.Params {
		if s.Params[i] != o.Params[i] {
			return false
		}
	}
	return true
}

// A Store holds summaries keyed by callgraph function key, accumulated
// across packages in dependency order so a package's analysis finds its
// dependencies' summaries already present.
type Store struct {
	m map[string]*Summary
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: map[string]*Summary{}} }

// Get returns the summary for key, or nil.
func (s *Store) Get(key string) *Summary { return s.m[key] }

// Put records the summary for key, replacing any previous one.
func (s *Store) Put(key string, sum *Summary) { s.m[key] = sum }
