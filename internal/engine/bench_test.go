package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
	"repro/internal/trace"
)

// BenchmarkInstrumentedSharedWorldRoute is the observability perf guard:
// the identical warm shared-world query as the dynamic package's
// BenchmarkSharedWorldRoute (Torus(5,5), 10 churned epochs, frozen-clock
// 0→18), but through Engine.RouteDynamic — i.e. including the always-on
// metrics (two clock reads, the latency/hop/header-bit histogram
// observes, and the counter adds). Its gap to BenchmarkSharedWorldRoute
// in the same run is what the metrics cost.
func BenchmarkInstrumentedSharedWorldRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	w := e.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for i := 0; i < 10; i++ {
		if err := w.Advance(dynamic.Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RouteDynamic(w, 0, 18, dynamic.Config{HopsPerEpoch: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInstrumentedRoute prices one static prepared route through the
// instrumented engine (the /v1/route serving path minus HTTP).
func BenchmarkInstrumentedRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Route(0, 18); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecRoute is the per-network labeling perf guard: the same warm
// shared-world query as BenchmarkInstrumentedSharedWorldRoute, but with
// the engine attached to per-network metric vectors — so every query
// additionally pays the cached-child counter add and, on the 1-in-8
// sampled grid, the labeled histogram observe. The acceptance bar is
// staying within 1% of the unlabeled run in the same benchstat session
// (the vector lookup itself is off the hot path; only the nil-check
// branch and the child's own atomics remain).
func BenchmarkVecRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	e.AttachVecs(NewVecs(8), "bench")
	w := e.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for i := 0; i < 10; i++ {
		if err := w.Advance(dynamic.Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RouteDynamic(w, 0, 18, dynamic.Config{HopsPerEpoch: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBudgetedSharedWorldRoute is the bounded-work perf guard: the
// identical warm shared-world query as BenchmarkInstrumentedSharedWorldRoute,
// but through RouteDynamicBudgeted with a deadline context and a hop budget
// armed — i.e. every bounded-work feature live but never striking. Its gap
// to BenchmarkInstrumentedSharedWorldRoute in the same run is what arming
// them costs.
func BenchmarkBudgetedSharedWorldRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	w := e.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for i := 0; i < 10; i++ {
		if err := w.Advance(dynamic.Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Hour)
	defer cancel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RouteDynamicBudgeted(ctx, w, 0, 18, 1<<40, nil, dynamic.Config{HopsPerEpoch: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkUnreachableCertificate prices the O(1) reachability-certificate
// answer for a provably-unreachable pair on a two-component network. Its
// companion BenchmarkUnreachableFullBurn prices the same verdict through
// the full doubling-loop walk (certificates disabled); the acceptance bar
// is the certificate answering ≥100× faster.
func BenchmarkUnreachableCertificate(b *testing.B) {
	g, err := gen.DisjointUnion(gen.Grid(16, 16), gen.Cycle(5), 1000)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(g, Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Route(0, 1002)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != netsim.StatusFailure || res.Certificate == nil {
			b.Fatalf("status %v, certificate %v", res.Status, res.Certificate)
		}
	}
}

// BenchmarkUnreachableFullBurn is the certificate benchmark's control: the
// same unreachable verdict earned the §3 way, burning the doubling loop to
// the closure check.
func BenchmarkUnreachableFullBurn(b *testing.B) {
	g, err := gen.DisjointUnion(gen.Grid(16, 16), gen.Cycle(5), 1000)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Compile(g, Config{Seed: 7, DisableCertificates: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Route(0, 1002)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != netsim.StatusFailure || res.Certificate != nil {
			b.Fatalf("status %v, certificate %v", res.Status, res.Certificate)
		}
	}
}

// BenchmarkArmedUnsampledSharedWorldRoute prices the same warm
// shared-world query through RouteDynamicBudgeted with a nil (unsampled)
// span in its context — the cost every request pays when tracing is compiled in and
// armed but the sampler said no. The acceptance bar is staying within a
// few ns of BenchmarkInstrumentedSharedWorldRoute.
func BenchmarkArmedUnsampledSharedWorldRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	w := e.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for i := 0; i < 10; i++ {
		if err := w.Advance(dynamic.Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	ctx := trace.NewContext(context.Background(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.RouteDynamicBudgeted(ctx, w, 0, 18, 0, nil, dynamic.Config{HopsPerEpoch: -1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTracedSharedWorldRoute prices the fully sampled traced query
// whose trace is dropped — span bookkeeping and each round's replay log,
// but no hop tail, which only a kept trace replays — as documentation of
// what a sampled request costs relative to the unsampled baseline.
func BenchmarkTracedSharedWorldRoute(b *testing.B) {
	e, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	w := e.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
	for i := 0; i < 10; i++ {
		if err := w.Advance(dynamic.Probe{}); err != nil {
			b.Fatal(err)
		}
	}
	if _, _, err := w.Compiled(); err != nil {
		b.Fatal(err)
	}
	tc := trace.New(trace.Config{SampleRate: 1, SlowThreshold: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr := tc.StartRequest("bench", "")
		ctx := trace.NewContext(context.Background(), tr.Root())
		if _, err := e.RouteDynamicBudgeted(ctx, w, 0, 18, 0, nil, dynamic.Config{HopsPerEpoch: -1}); err != nil {
			b.Fatal(err)
		}
		tr.Finish()
	}
}

// BenchmarkTracedLongRoute is the tracing perf guard on long walks: route_long's
// network (gen.UDG2D(1024, 0.06, 1) at protocol seed 7, one node isolated)
// over 64 fixed pairs, about 60k reported hops per query but about 25k
// simulated: each round after the first starts where the last one turned
// around, every round computes its backward walk at its turnaround instead
// of walking it, sampled or not, and no closure check walks (route's
// TestWalkerSkipsKnownSteps counts the skipped and computed steps).
// untraced routes through Engine.RouteBudgeted with a background context;
// traced opens a fresh trace per query as adhocd does at its defaults
// (sample rate 1, 100ms retention). No query here runs 100ms, so Finish
// drops every trace and no round replays its hop tail: traced prices span
// bookkeeping and the replay logs. CI fails when traced exceeds 1.5x
// untraced; run it at -benchtime 64x, one pass over the pairs. kept keeps
// every trace (SlowThreshold 0), so each round also rebuilds its hop tail:
// it prices the replay and has no bound.
func BenchmarkTracedLongRoute(b *testing.B) {
	const n = 1024
	e, err := Compile(gen.UDG2D(n, 0.06, 1).G, Config{Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	src := prng.New(1)
	var pairs [64][2]graph.NodeID
	for i := range pairs {
		pairs[i] = [2]graph.NodeID{graph.NodeID(src.Intn(n)), graph.NodeID(src.Intn(n))}
	}
	route := func(b *testing.B, ctx context.Context, i int) {
		p := pairs[i%len(pairs)]
		if _, err := e.RouteBudgeted(ctx, p[0], p[1], 0, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("untraced", func(b *testing.B) {
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			route(b, ctx, i)
		}
	})
	traced := func(slow time.Duration) func(*testing.B) {
		return func(b *testing.B) {
			tc := trace.New(trace.Config{SampleRate: 1, SlowThreshold: slow})
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr := tc.StartRequest("http", "")
				route(b, trace.NewContext(context.Background(), tr.Root()), i)
				tr.Finish()
			}
		}
	}
	b.Run("traced", traced(100*time.Millisecond))
	b.Run("kept", traced(0))
}
