package trace

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// Defaults for Config.
const (
	// DefaultHopRing is the per-span hop-event tail capacity: the last
	// this-many hops of a walk are kept, older ones are counted but
	// dropped. 256 hops ≈ several epochs of context before a verdict.
	DefaultHopRing = 256
	// DefaultEventCap bounds the per-span timed-event list (round starts,
	// epoch advances, resumptions). Overflow increments a drop counter.
	DefaultEventCap = 128
	// DefaultCapacity is the flight recorder's retained-trace count.
	DefaultCapacity = 256
)

// Config parameterizes a Tracer. The zero value records nothing
// probabilistically (rate 0) but still honors upstream sampled flags and
// retains every sampled trace (SlowThreshold 0).
type Config struct {
	// SampleRate is the probabilistic head-sampling rate in [0,1] applied
	// to requests that arrive without an upstream sampling decision.
	SampleRate float64
	// SlowThreshold is the tail-latency retention trigger: a sampled
	// trace whose total duration reaches it is retained even when it
	// finished cleanly. Zero retains every sampled trace (the debugging
	// and test mode); negative disables latency-triggered retention.
	SlowThreshold time.Duration
	// Capacity is the flight recorder ring size (0 = DefaultCapacity).
	Capacity int
	// HopRing is the per-span hop tail size (0 = DefaultHopRing).
	HopRing int
	// EventCap bounds per-span timed events (0 = DefaultEventCap).
	EventCap int
}

// Tracer makes the per-request sampling decision and owns the flight
// recorder. Safe for concurrent use.
type Tracer struct {
	cfg       Config
	threshold uint64 // sample iff coin < threshold
	rec       *Recorder

	started atomic.Int64
	sampled atomic.Int64
}

// New builds a Tracer with its flight recorder.
func New(cfg Config) *Tracer {
	if cfg.HopRing <= 0 {
		cfg.HopRing = DefaultHopRing
	}
	if cfg.EventCap <= 0 {
		cfg.EventCap = DefaultEventCap
	}
	var thr uint64
	switch {
	case cfg.SampleRate >= 1:
		thr = ^uint64(0)
	case cfg.SampleRate > 0:
		thr = uint64(cfg.SampleRate * float64(1<<63) * 2)
	}
	return &Tracer{cfg: cfg, threshold: thr, rec: NewRecorder(cfg.Capacity)}
}

// Recorder returns the tracer's flight recorder.
func (t *Tracer) Recorder() *Recorder { return t.rec }

// Stats reports how many requests were started and how many were sampled.
func (t *Tracer) Stats() (started, sampled int64) {
	return t.started.Load(), t.sampled.Load()
}

// StartRequest opens the root span of a new trace. parent is the raw
// incoming traceparent header value ("" when absent): a well-formed
// parent contributes the trace ID, the remote parent span, and an
// authoritative sampling decision in both directions — flag 01 records
// even at rate 0, flag 00 suppresses even at rate 1; a malformed one is
// ignored and a fresh identity minted. Only parentless requests flip the
// local SampleRate coin. Requests that end up unsampled return nil, and
// every method on a nil *Trace or *Span is a cheap no-op, so callers
// thread the pointers unconditionally.
func (t *Tracer) StartRequest(name, parent string) *Trace {
	t.started.Add(1)
	var (
		tid      TraceID
		psid     SpanID
		sampled  bool
		upstream bool
	)
	if parent != "" {
		if ptid, ps, flags, err := ParseTraceparent(parent); err == nil {
			// A well-formed traceparent carries the caller's sampling
			// decision, authoritative in both directions: flag 01
			// records even at rate 0, flag 00 suppresses even at rate 1.
			tid, psid = ptid, ps
			sampled = flags&FlagSampled != 0
			upstream = true
		}
	}
	if tid.IsZero() {
		tid = NewTraceID()
	}
	if !sampled && !upstream && t.threshold > 0 {
		// The coin is the trace ID's own entropy, so a retried request
		// with the same trace ID samples consistently.
		coin := splitmix64(uint64(tid[0])<<56 | uint64(tid[7])<<40 |
			uint64(tid[8])<<24 | uint64(tid[15])<<8 | uint64(tid[3]))
		sampled = coin < t.threshold
	}
	if !sampled {
		return nil
	}
	t.sampled.Add(1)
	tr := &Trace{tracer: t, id: tid, parent: psid, start: time.Now()}
	tr.root = tr.newSpan(name, SpanID{})
	return tr
}

// Trace is one sampled request: a root span plus any children opened
// under it. Recording methods are nil-safe; a finished Trace is immutable
// and safe to share.
type Trace struct {
	tracer *Tracer
	id     TraceID
	parent SpanID // remote parent span, when propagated in
	start  time.Time

	mu    sync.Mutex
	spans []*Span // creation order; spans[0] is the root
	root  *Span

	end      time.Time
	err      atomic.Pointer[string]
	retain   atomic.Bool
	finished atomic.Bool
}

// ID returns the trace identity (zero on nil).
func (tr *Trace) ID() TraceID {
	if tr == nil {
		return TraceID{}
	}
	return tr.id
}

// Root returns the request's root span (nil on nil).
func (tr *Trace) Root() *Span {
	if tr == nil {
		return nil
	}
	return tr.root
}

// Sampled reports whether this trace records (false for nil).
func (tr *Trace) Sampled() bool { return tr != nil }

// Traceparent renders the outgoing header value for this trace's root
// span — what a downstream hop should receive ("" on nil).
func (tr *Trace) Traceparent() string {
	if tr == nil {
		return ""
	}
	return Traceparent(tr.id, tr.root.id, FlagSampled)
}

// SetError marks the trace failed, which forces retention.
func (tr *Trace) SetError(msg string) {
	if tr == nil {
		return
	}
	tr.err.Store(&msg)
	tr.retain.Store(true)
}

// ForceRetain marks the trace for retention regardless of latency.
func (tr *Trace) ForceRetain() {
	if tr == nil {
		return
	}
	tr.retain.Store(true)
}

// Err returns the trace-level error message ("" when clean).
func (tr *Trace) Err() string {
	if tr == nil {
		return ""
	}
	if p := tr.err.Load(); p != nil {
		return *p
	}
	return ""
}

// Duration returns the request's total wall time (through Finish, or
// so-far while live).
func (tr *Trace) Duration() time.Duration {
	if tr == nil {
		return 0
	}
	if tr.finished.Load() {
		return tr.end.Sub(tr.start)
	}
	return time.Since(tr.start)
}

// Finish closes the root span, applies the retention policy, and offers
// the trace to the flight recorder. Idempotent; a trace must not be
// mutated afterwards.
func (tr *Trace) Finish() {
	if tr == nil || !tr.finished.CompareAndSwap(false, true) {
		return
	}
	tr.root.End()
	tr.end = time.Now()
	keep := tr.retain.Load()
	if !keep {
		slow := tr.tracer.cfg.SlowThreshold
		keep = slow == 0 || (slow > 0 && tr.end.Sub(tr.start) >= slow)
	}
	if keep {
		tr.tracer.rec.Keep(tr)
	}
}

// newSpan allocates a span and links it into the trace.
func (tr *Trace) newSpan(name string, parent SpanID) *Span {
	sp := &Span{
		trace:  tr,
		id:     NewSpanID(),
		parent: parent,
		name:   name,
		start:  time.Now(),
		events: make([]Event, 0, 8),
		hops:   make([]HopEvent, tr.tracer.cfg.HopRing),
	}
	tr.mu.Lock()
	tr.spans = append(tr.spans, sp)
	tr.mu.Unlock()
	return sp
}

// Attr is one key/value span attribute. Values are JSON-friendly scalars
// (string, int64, bool).
type Attr struct {
	K string
	V any
}

// String/Int/Bool build attributes without the caller spelling the
// struct.
func String(k, v string) Attr    { return Attr{K: k, V: v} }
func Int(k string, v int64) Attr { return Attr{K: k, V: v} }
func Bool(k string, v bool) Attr { return Attr{K: k, V: v} }

// Event is one timed low-frequency span event (a round start, an epoch
// advance, a snapshot resumption).
type Event struct {
	Time  time.Time
	Name  string
	Attrs []Attr
}

// HopEvent is one message hop of a walk: the hop ordinal within the span,
// the original-graph node the message stands at after the hop, the header
// index, the serialized header size (Theorem 1's O(log n), observed per
// hop), and the walk direction. Untimed: a clock read per hop would cost
// more than the hop.
type HopEvent struct {
	Hop        int64 `json:"hop"`
	Node       int64 `json:"node"`
	Index      int64 `json:"index"`
	HeaderBits int32 `json:"header_bits"`
	Backward   bool  `json:"backward,omitempty"`
}

// Span is one operation within a trace. A recording span belongs to a
// single goroutine; all methods are nil-safe no-ops so unsampled requests
// thread nil spans at a pointer-test's cost.
type Span struct {
	trace  *Trace
	id     SpanID
	parent SpanID
	name   string
	start  time.Time
	end    time.Time
	done   atomic.Bool

	attrs []Attr

	events        []Event
	eventsDropped int64

	// hops is the tail-capture ring: hopTotal counts every hop, the ring
	// keeps the most recent len(hops) of them.
	hops     []HopEvent
	hopTotal int64
}

// Recording reports whether the span records (false for nil) — the guard
// hot paths test once before instrumenting a loop.
func (sp *Span) Recording() bool { return sp != nil }

// ID returns the span identity (zero on nil).
func (sp *Span) ID() SpanID {
	if sp == nil {
		return SpanID{}
	}
	return sp.id
}

// Child opens a sub-span. On a nil receiver it returns nil, keeping the
// whole tree of calls no-op for unsampled requests.
func (sp *Span) Child(name string) *Span {
	if sp == nil {
		return nil
	}
	return sp.trace.newSpan(name, sp.id)
}

// SetAttr records one key/value attribute.
func (sp *Span) SetAttr(attrs ...Attr) {
	if sp == nil {
		return
	}
	sp.attrs = append(sp.attrs, attrs...)
}

// SetName renames the span — the serving layer names request spans after
// the matched route pattern, which is only known after dispatch.
func (sp *Span) SetName(name string) {
	if sp == nil {
		return
	}
	sp.name = name
}

// Event records a timed event, dropping (and counting) beyond the cap.
func (sp *Span) Event(name string, attrs ...Attr) {
	if sp == nil {
		return
	}
	if len(sp.events) >= sp.trace.tracer.cfg.EventCap {
		sp.eventsDropped++
		return
	}
	sp.events = append(sp.events, Event{Time: time.Now(), Name: name, Attrs: attrs})
}

// Hop records one walk hop into the tail ring: constant work, no
// allocation, no clock read.
func (sp *Span) Hop(ev HopEvent) {
	if sp == nil {
		return
	}
	ev.Hop = sp.hopTotal
	sp.hops[sp.hopTotal%int64(len(sp.hops))] = ev
	sp.hopTotal++
}

// HopCount returns the total hops recorded (including dropped ones).
func (sp *Span) HopCount() int64 {
	if sp == nil {
		return 0
	}
	return sp.hopTotal
}

// End closes the span. Idempotent.
func (sp *Span) End() {
	if sp == nil || !sp.done.CompareAndSwap(false, true) {
		return
	}
	sp.end = time.Now()
}

// Duration returns the span's wall time (so-far while live).
func (sp *Span) Duration() time.Duration {
	if sp == nil {
		return 0
	}
	if sp.done.Load() {
		return sp.end.Sub(sp.start)
	}
	return time.Since(sp.start)
}

// ctxKey is the context key for the ambient request span.
type ctxKey struct{}

// NewContext returns ctx carrying sp as the ambient span.
func NewContext(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, sp)
}

// FromContext returns the ambient span (nil — a valid no-op span — when
// absent).
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(ctxKey{}).(*Span)
	return sp
}
