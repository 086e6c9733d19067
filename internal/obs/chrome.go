package obs

import (
	"encoding/json"
	"io"
	"time"
)

// chrome.go — the Chrome trace-event exporter. The output is the JSON object
// form of the trace-event format ({"traceEvents": [...]}), using complete
// ("ph": "X") events, which both chrome://tracing and Perfetto load directly.
// Timestamps are microseconds with nanosecond precision kept as fractions,
// so sub-microsecond chunk spans survive the export.

// chromeEvent is one complete event in the trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object envelope of the trace-event format.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func toMicros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// WriteChromeTrace renders records (as returned by Tracer.Snapshot) as
// trace-event JSON. Events keep the snapshot's completion order; span IDs and
// parents ride along in args, so the output is deterministic for a
// deterministic run under an injected clock (see WithClock) and is pinned as
// a golden file in the dse tests.
func WriteChromeTrace(w io.Writer, recs []Record) error {
	events := make([]chromeEvent, 0, len(recs))
	for _, r := range recs {
		events = append(events, spanEvent(r, 1))
	}
	return writeChrome(w, events)
}

// spanEvent renders one span record as a complete event on process pid.
func spanEvent(r Record, pid int) chromeEvent {
	args := map[string]any{"id": r.ID}
	if r.Parent != 0 {
		args["parent"] = r.Parent
	}
	if r.Detail != "" {
		args["detail"] = r.Detail
	}
	if r.ArgKey != "" {
		args[r.ArgKey] = r.Arg
	}
	return chromeEvent{
		Name: r.Name,
		Cat:  r.Cat,
		Ph:   "X",
		TS:   toMicros(r.Start),
		Dur:  toMicros(r.Dur),
		PID:  pid,
		TID:  r.TID,
		Args: args,
	}
}

// writeChrome writes events in the trace-event JSON envelope.
func writeChrome(w io.Writer, events []chromeEvent) error {
	raw, err := json.MarshalIndent(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"}, "", "  ")
	if err != nil {
		return err
	}
	raw = append(raw, '\n')
	_, err = w.Write(raw)
	return err
}
