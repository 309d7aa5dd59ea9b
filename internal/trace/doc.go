// Package trace is the dependency-free request-tracing core: Dapper-style
// spans with 128-bit trace identities, W3C traceparent propagation, and an
// always-on flight recorder that retains the last N slow or failed request
// traces for post-hoc inspection.
//
// The design is shaped by the workload it observes. A §3 routing query is
// one message walking a compiled graph: each hop is a natural span event
// carrying the O(log n) header of Theorem 1, and a slow request is almost
// always a long walk (a large doubling bound, an unreachable pair burning
// the full sequence budget, or churn repeatedly breaking the confirmation
// leg). The latency histograms of package obs say *that* such a tail
// exists; a retained trace says *which* walk caused it and what the walk
// was doing hop by hop.
//
// # Model
//
// A Tracer starts one Trace per request. The Trace owns a tree of Spans;
// every Span carries key/value attributes, a bounded list of timed Events
// (round starts, epoch advances, snapshot resumptions), and, for a walk,
// the *tail* of its HopEvents — the last Config.HopRing hops before the
// verdict, which for a slow walk is exactly the evidence worth keeping
// (where the message was when the budget ran out), at O(1) memory however
// long the walk ran. A walk hands its span a hop count and a replay that
// can rebuild the tail, newest first (Span.Tail); nothing else is recorded
// per hop.
//
// # Sampling and retention
//
// Head sampling decides at request start whether a trace records at all:
// an explicit upstream decision (the traceparent sampled flag) always
// wins, otherwise a probabilistic coin at Config.SampleRate is tossed.
// Unsampled traces cost a few nanoseconds — every recording method is
// nil-receiver safe and the hot paths carry a single pointer test.
//
// Retention decides at request end whether a sampled trace enters the
// flight recorder: always on error (Trace.SetError),
// always when the request latency reached Config.SlowThreshold (the
// tail-latency trigger), and unconditionally when SlowThreshold is zero.
// Only then do the trace's hop tails get built: Trace.Finish runs the
// replays of a trace it keeps, after taking its end time, and drops the
// replays of one it does not, so a dropped trace costs no tail and a
// replay never counts toward SlowThreshold. The recorder is a lock-free
// ring of atomic pointers — the last Config.Capacity retained traces,
// readable at any time while requests keep landing.
//
// Concurrency: one Trace/Span tree belongs to one request goroutine while
// recording, and the goroutine that calls Finish runs the kept trace's
// replays before publishing it; finished traces are immutable and safely
// shared by recorder readers. The Tracer and Recorder themselves are fully
// concurrent-safe.
package trace
