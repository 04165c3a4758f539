package cfg

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"sync"
)

// This file defines the function-summary lattice the interprocedural
// analyzers consume. A Summary condenses one function body into the
// protocol effects visible at its call sites — does it release a pooled
// workspace passed in, stamp visits before reading obstacle state, open or
// close an obstacle journal, never return — so callers apply the summary
// instead of giving up ("escapes") at the call. Summaries are computed
// bottom-up over the call graph's SCCs with a fixed point for recursion
// (see internal/lint/summaries.go) and serialized per package into the
// driver's fact cache; the serialized form deliberately excludes closures,
// whose keys and captured objects are meaningless outside their package.

// ParamSummary describes a function's effect on one parameter (the
// receiver counts as parameter 0 for methods). "Always" bits are
// must-facts — true on every terminating path; "May" bits are
// may-facts — true on at least one path.
type ParamSummary struct {
	// ReleasesAlways: every terminating path passes the parameter to
	// ReleaseWorkspace (directly or through a callee that does). A call
	// discharges the caller's release obligation.
	ReleasesAlways bool `json:",omitempty"`
	// ReleasesMay: some path releases, some does not — worse than either
	// extreme, because the caller can neither keep nor drop the
	// obligation.
	ReleasesMay bool `json:",omitempty"`
	// Escapes: the parameter may be retained beyond the call (stored,
	// returned, captured, passed to an unknown callee). Callers must stop
	// tracking it.
	Escapes bool `json:",omitempty"`
	// StopsJournalAlways: every terminating path calls StopJournal on the
	// parameter.
	StopsJournalAlways bool `json:",omitempty"`
	// StopsJournalMay: some path calls StopJournal on the parameter.
	StopsJournalMay bool `json:",omitempty"`
	// OpensJournal: some path calls StartJournal on the parameter and
	// returns without stopping it.
	OpensJournal bool `json:",omitempty"`
}

// Summary is the effect summary of one function.
type Summary struct {
	// Recv is true when the function is a method and Params[0] is the
	// receiver.
	Recv bool `json:",omitempty"`
	// Params are the per-parameter effects, receiver first for methods.
	Params []ParamSummary `json:",omitempty"`
	// StampsAlways: every terminating path stamps a workspace visit
	// (touch/visit/StartVisitTracking) before returning, so code after the
	// call is in the stamped state.
	StampsAlways bool `json:",omitempty"`
	// ReadsUnstamped: some path reads ObsMap.Blocked before any visit
	// stamp inside this function. Propagated to call sites that are
	// themselves un-stamped — unless the callee is Checked.
	ReadsUnstamped bool `json:",omitempty"`
	// Checked: the function is itself inside the snapshotread analyzer's
	// scope (hot package or //pacor:hot, with a workspace in scope), so
	// violations are reported in its own body and do not propagate to
	// callers; it is its own reporting boundary.
	Checked bool `json:",omitempty"`
	// NoReturn: the function cannot return normally on any path (every
	// path panics, exits, or loops forever). Callers prune the successor
	// paths of such calls.
	NoReturn bool `json:",omitempty"`
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
// dependencies' summaries already present. It is safe for concurrent use:
// the parallel driver summarizes independent packages on separate
// goroutines against one shared store.
type Store struct {
	mu sync.RWMutex
	m  map[string]*Summary
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{m: map[string]*Summary{}} }

// Get returns the summary for key, or nil.
func (s *Store) Get(key string) *Summary {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.m[key]
}

// Put records the summary for key, replacing any previous one.
func (s *Store) Put(key string, sum *Summary) {
	s.mu.Lock()
	s.m[key] = sum
	s.mu.Unlock()
}

// PutAll records every summary in m.
func (s *Store) PutAll(m map[string]*Summary) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for k, v := range m {
		s.m[k] = v
	}
}

// EncodePackage serializes a package's summary map deterministically
// (sorted keys, closure entries dropped) for the fact cache. The blob both
// persists the facts and — hashed — stands in for the package's analysis-
// relevant interface in dependents' cache keys: a source change that
// leaves every summary intact does not dirty dependents (early cutoff).
func EncodePackage(sums map[string]*Summary) ([]byte, error) {
	keys := make([]string, 0, len(sums))
	for k := range sums {
		if strings.Contains(k, "$") {
			continue // closures never cross the package boundary
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	buf.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			buf.WriteByte(',')
		}
		kb, err := json.Marshal(k)
		if err != nil {
			return nil, err
		}
		vb, err := json.Marshal(sums[k])
		if err != nil {
			return nil, err
		}
		buf.Write(kb)
		buf.WriteByte(':')
		buf.Write(vb)
	}
	buf.WriteByte('}')
	return buf.Bytes(), nil
}

// DecodePackage inverts EncodePackage.
func DecodePackage(blob []byte) (map[string]*Summary, error) {
	if len(blob) == 0 {
		return map[string]*Summary{}, nil
	}
	out := map[string]*Summary{}
	if err := json.Unmarshal(blob, &out); err != nil {
		return nil, fmt.Errorf("summary blob: %v", err)
	}
	return out, nil
}
