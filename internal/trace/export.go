package trace

import (
	"slices"
	"time"
)

// The export types are the wire shapes served by GET /v1/traces and
// GET /v1/traces/{id}. They are plain data — building them copies out of
// the immutable finished trace, so handlers can marshal them freely.

// Summary is the list-view shape of one retained trace.
type Summary struct {
	TraceID    string    `json:"trace_id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationNS int64     `json:"duration_ns"`
	Error      string    `json:"error,omitempty"`
	Spans      int       `json:"spans"`
	Hops       int64     `json:"hops"`
}

// Export is the full detail shape of one retained trace.
type Export struct {
	TraceID    string       `json:"trace_id"`
	ParentSpan string       `json:"parent_span,omitempty"`
	Name       string       `json:"name"`
	Start      time.Time    `json:"start"`
	DurationNS int64        `json:"duration_ns"`
	Error      string       `json:"error,omitempty"`
	Spans      []SpanExport `json:"spans"`
}

// SpanExport is one span within an Export.
type SpanExport struct {
	SpanID        string         `json:"span_id"`
	Parent        string         `json:"parent,omitempty"`
	Name          string         `json:"name"`
	Start         time.Time      `json:"start"`
	DurationNS    int64          `json:"duration_ns"`
	Attrs         map[string]any `json:"attrs,omitempty"`
	Events        []EventExport  `json:"events,omitempty"`
	EventsDropped int64          `json:"events_dropped,omitempty"`
	HopTotal      int64          `json:"hop_total,omitempty"`
	HopsDropped   int64          `json:"hops_dropped,omitempty"`
	Hops          []HopEvent     `json:"hops,omitempty"`
}

// EventExport is one timed span event on the wire.
type EventExport struct {
	Time  time.Time      `json:"time"`
	Name  string         `json:"name"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.K] = a.V
	}
	return m
}

// Summarize builds the list-view shape. Call only on finished traces.
func (tr *Trace) Summarize() Summary {
	var hops int64
	for _, sp := range tr.spans {
		hops += sp.hopTotal
	}
	return Summary{
		TraceID:    tr.id.String(),
		Name:       tr.root.name,
		Start:      tr.start,
		DurationNS: int64(tr.end.Sub(tr.start)),
		Error:      tr.Err(),
		Spans:      len(tr.spans),
		Hops:       hops,
	}
}

// Export builds the full detail shape. Call only on finished traces.
func (tr *Trace) Export() Export {
	ex := Export{
		TraceID:    tr.id.String(),
		Name:       tr.root.name,
		Start:      tr.start,
		DurationNS: int64(tr.end.Sub(tr.start)),
		Error:      tr.Err(),
		Spans:      make([]SpanExport, 0, len(tr.spans)),
	}
	if !tr.parent.IsZero() {
		ex.ParentSpan = tr.parent.String()
	}
	for _, sp := range tr.spans {
		ex.Spans = append(ex.Spans, sp.export())
	}
	return ex
}

func (sp *Span) export() SpanExport {
	se := SpanExport{
		SpanID:        sp.id.String(),
		Name:          sp.name,
		Start:         sp.start,
		DurationNS:    int64(sp.Duration()),
		Attrs:         attrMap(sp.attrs),
		EventsDropped: sp.eventsDropped,
		HopTotal:      sp.hopTotal,
	}
	if !sp.parent.IsZero() {
		se.Parent = sp.parent.String()
	}
	for _, ev := range sp.events {
		se.Events = append(se.Events, EventExport{Time: ev.Time, Name: ev.Name, Attrs: attrMap(ev.Attrs)})
	}
	se.HopsDropped = sp.hopTotal - int64(len(sp.hops))
	if len(sp.hops) > 0 {
		se.Hops = slices.Clone(sp.hops)
	}
	return se
}
