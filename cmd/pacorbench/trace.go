package main

import (
	"encoding/json"
	"io"
	"time"
)

// tracer keeps a traced run's spans in memory; they are written when the run
// ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// span is one interval of one request. A request's root span covers its
// route call; derived spans are its StageTimes children, laid back to back in
// flow order; the other spans are sibling replays after the route.
type span struct {
	name    string
	cat     string
	req     int
	start   time.Duration // since t0
	dur     time.Duration
	derived bool
}

func (tr *tracer) add(name, cat string, req int, start time.Time, dur time.Duration, derived bool) {
	tr.spans = append(tr.spans, span{name: name, cat: cat, req: req, start: start.Sub(tr.t0), dur: dur, derived: derived})
}

// since records a replay span from start to now and returns its length.
func (tr *tracer) since(name string, req int, start time.Time) time.Duration {
	d := time.Since(start)
	tr.add(name, "replay", req, start, d, false)
	return d
}

// traceEvent is one Chrome trace-event "complete" event; ts and dur are in
// microseconds.
type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceFile is the Chrome trace-event JSON object form, which Perfetto opens.
type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

func (tr *tracer) write(w io.Writer) error {
	f := traceFile{TraceEvents: make([]traceEvent, 0, len(tr.spans)), DisplayTimeUnit: "ms"}
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, s := range tr.spans {
		args := map[string]any{"req": s.req}
		if s.derived {
			args["derived"] = true
		}
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: s.name, Cat: s.cat, Ph: "X", Ts: us(s.start), Dur: us(s.dur), Pid: 1, Tid: 1, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(f)
}
