package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// Canonical serializes a merged trace into a deterministic byte form:
// one line per event, wall time excluded.  Two runs with the same seed
// and zero simnet jitter produce byte-identical output (DESIGN.md §8
// spells out which workloads qualify).
func Canonical(evs []Event) []byte {
	var b strings.Builder
	for _, ev := range evs {
		fmt.Fprintf(&b, "%d %d %d %s %q %q %d\n",
			ev.Clock, ev.Site, ev.Seq, ev.Type, ev.Txn, ev.Object, ev.Arg)
	}
	return []byte(b.String())
}

// Timeline writes a human-readable trace: one aligned line per event in
// causal order, wall time shown relative to the first event.
func Timeline(w io.Writer, evs []Event) error {
	if len(evs) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	t0 := evs[0].Wall
	for _, ev := range evs {
		rel := ev.Wall.Sub(t0)
		line := fmt.Sprintf("%10.3fms  clk=%-6d site=%d  %-18s", float64(rel.Microseconds())/1000, ev.Clock, ev.Site, ev.Type)
		if ev.Txn != "" {
			line += " txn=" + ev.Txn
		}
		if ev.Object != "" {
			line += " obj=" + ev.Object
		}
		if ev.Arg != 0 {
			line += fmt.Sprintf(" arg=%d", ev.Arg)
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}

// forensicsDepth bounds how many trailing events a violation report
// carries per offending object.
const forensicsDepth = 20

// Forensics renders the last events touching object (LastTouching) as
// indented timeline lines headed by what is being shown: the tail the
// section 5 audits attach to a violation.  Nil when nothing touched it
// or c is nil.
func (c *Collector) Forensics(object string) []string {
	evs := c.LastTouching(object, forensicsDepth)
	if len(evs) == 0 {
		return nil
	}
	var b strings.Builder
	Timeline(&b, evs) //nolint:errcheck // strings.Builder cannot fail
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	out := make([]string, 0, len(lines)+1)
	out = append(out, fmt.Sprintf("forensics: last %d events touching %s:", len(evs), object))
	for _, l := range lines {
		out = append(out, "  "+l)
	}
	return out
}

// chromeEvent is one entry of the Chrome trace_event format
// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU):
// loaded by chrome://tracing and Perfetto.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	ID    string         `json:"id,omitempty"`
	Cat   string         `json:"cat,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents []chromeEvent `json:"traceEvents"`
	DisplayUnit string        `json:"displayTimeUnit"`
}

// WriteChrome exports a merged trace as Chrome trace_event JSON: one
// process track per site, an async span per transaction (begin at
// TxnBegin, end at TxnCommit/TxnAbort), and an instant event for every
// record so the full vocabulary is visible on the timeline.
func WriteChrome(w io.Writer, evs []Event) error {
	out := chromeTrace{DisplayUnit: "ms", TraceEvents: []chromeEvent{}}
	var t0 int64
	if len(evs) > 0 {
		t0 = evs[0].Wall.UnixNano()
	}
	ts := func(ev Event) float64 { return float64(ev.Wall.UnixNano()-t0) / 1e3 }

	seenSite := map[int]bool{}
	for _, ev := range evs {
		if !seenSite[ev.Site] {
			seenSite[ev.Site] = true
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "process_name", Phase: "M", PID: ev.Site, TID: 0,
				Args: map[string]any{"name": fmt.Sprintf("site %d", ev.Site)},
			})
		}
		args := map[string]any{"clock": ev.Clock, "seq": ev.Seq}
		if ev.Object != "" {
			args["object"] = ev.Object
		}
		if ev.Arg != 0 {
			args["arg"] = ev.Arg
		}
		if ev.Txn != "" {
			args["txn"] = ev.Txn
		}
		switch ev.Type {
		case TxnBegin:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "txn " + ev.Txn, Phase: "b", Cat: "txn", ID: ev.Txn,
				TS: ts(ev), PID: ev.Site, TID: 0, Args: args,
			})
		case TxnCommit, TxnAbort:
			out.TraceEvents = append(out.TraceEvents, chromeEvent{
				Name: "txn " + ev.Txn, Phase: "e", Cat: "txn", ID: ev.Txn,
				TS: ts(ev), PID: ev.Site, TID: 0,
				Args: map[string]any{"outcome": ev.Type.String()},
			})
		}
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name: ev.Type.String(), Phase: "i", Cat: "event", Scope: "t",
			TS: ts(ev), PID: ev.Site, TID: 0, Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
