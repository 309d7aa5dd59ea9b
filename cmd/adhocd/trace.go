package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/trace"
)

// Trace serving defaults (flag-tunable). The daemon head-samples every
// request by default: a sampled walk round records no hop as it walks and
// hands its span a copy of its stepper when it ends. The flight recorder
// retains only the slow and failed traces, and only those rebuild their
// hop tails, each round rewinding its copy by at most one hop ring (256
// hops at the default ring) and recording the hops it passes back over,
// however long the walk ran; steady-state traffic costs span bookkeeping
// only.
const (
	defaultTraceSample   = 1.0
	defaultTraceSlow     = 100 * time.Millisecond
	defaultTraceCapacity = trace.DefaultCapacity
)

// startTrace begins (or declines) a trace for one request: the incoming
// W3C traceparent header is honored when present — an upstream sampled
// flag wins over the local sampling rate, so a caller can always force a
// trace — and a sampled request's response echoes the outgoing
// traceparent so clients learn the ID to fetch from /v1/traces/{id}.
// Returns the possibly-rewrapped request whose context carries the root
// span.
func (s *server) startTrace(w http.ResponseWriter, r *http.Request) (*trace.Trace, *http.Request) {
	tr := s.tracer.StartRequest("http", r.Header.Get("traceparent"))
	if tr.Sampled() {
		w.Header().Set("traceparent", tr.Traceparent())
		r = r.WithContext(trace.NewContext(r.Context(), tr.Root()))
	}
	return tr, r
}

// finishTrace closes out a request's trace: the root span is renamed to
// the matched mux pattern (the request's endpoint identity), annotated
// with the HTTP outcome, and a 5xx marks the trace failed so the flight
// recorder always keeps it. Safe on an unsampled (nil) trace.
func (s *server) finishTrace(tr *trace.Trace, r *http.Request, status int) {
	if !tr.Sampled() {
		return
	}
	root := tr.Root()
	if r.Pattern != "" {
		root.SetName(r.Pattern)
	}
	root.SetAttr(
		trace.String("http.method", r.Method),
		trace.String("http.path", r.URL.Path),
		trace.Int("http.status", int64(status)),
	)
	if status >= 500 {
		tr.SetError(fmt.Sprintf("HTTP %d", status))
	}
	tr.Finish()
}

// requestLog emits one structured JSON line per finished request
// (-log-format=json). Lines are pre-rendered and written under a mutex so
// concurrent requests never interleave bytes. A nil *requestLog (the
// default "text" format) is a no-op: the daemon stays quiet per request,
// as before.
type requestLog struct {
	mu  sync.Mutex
	out io.Writer
}

func newRequestLog(out io.Writer) *requestLog {
	if out == nil {
		return nil
	}
	return &requestLog{out: out}
}

// write books one finished request. The trace ID appears only on sampled
// requests — it is the join key into GET /v1/traces/{id}.
func (l *requestLog) write(r *http.Request, status int, d time.Duration, tr *trace.Trace) {
	if l == nil {
		return
	}
	line := struct {
		Time       string  `json:"time"`
		Msg        string  `json:"msg"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Endpoint   string  `json:"endpoint,omitempty"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
		TraceID    string  `json:"trace_id,omitempty"`
	}{
		Time:       time.Now().UTC().Format(time.RFC3339Nano),
		Msg:        "request",
		Method:     r.Method,
		Path:       r.URL.Path,
		Endpoint:   r.Pattern,
		Status:     status,
		DurationMS: float64(d) / float64(time.Millisecond),
	}
	if tr.Sampled() {
		line.TraceID = tr.ID().String()
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return
	}
	buf = append(buf, '\n')
	l.mu.Lock()
	_, _ = l.out.Write(buf)
	l.mu.Unlock()
}

// traceListReply is the GET /v1/traces response: newest-first summaries
// of the retained traces plus the recorder and sampler counters.
type traceListReply struct {
	Traces   []trace.Summary `json:"traces"`
	Kept     int64           `json:"kept"`
	Capacity int             `json:"capacity"`
	Started  int64           `json:"started"`
	Sampled  int64           `json:"sampled"`
}

// handleTraceList serves the flight recorder's retained traces,
// newest-first. ?limit=N caps the listing (default 50).
func (s *server) handleTraceList(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 {
			writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad limit %q", q)})
			return
		}
		limit = n
	}
	rec := s.tracer.Recorder()
	kept := rec.Recent(limit)
	sums := make([]trace.Summary, len(kept))
	for i, tr := range kept {
		sums[i] = tr.Summarize()
	}
	started, sampled := s.tracer.Stats()
	writeJSON(w, http.StatusOK, traceListReply{
		Traces:   sums,
		Kept:     rec.Kept(),
		Capacity: rec.Capacity(),
		Started:  started,
		Sampled:  sampled,
	})
}

// handleTraceGet serves one retained trace in full: the span tree with
// attributes, timed events, and each walk round's per-hop tail.
func (s *server) handleTraceGet(w http.ResponseWriter, r *http.Request) {
	raw := r.PathValue("id")
	id, err := trace.ParseTraceID(raw)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad trace id %q", raw)})
		return
	}
	tr := s.tracer.Recorder().Find(id)
	if tr == nil {
		writeJSON(w, http.StatusNotFound,
			errorBody{Error: fmt.Sprintf("trace %s not retained (evicted, unsampled, or never seen)", raw)})
		return
	}
	writeJSON(w, http.StatusOK, tr.Export())
}
