package engine

import (
	"context"
	"testing"
	"time"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// BenchmarkInstrumentedSharedWorldRoute is the observability perf guard:
// the identical warm shared-world query as the dynamic package's
// BenchmarkSharedWorldRoute (Torus(5,5), 10 churned epochs, frozen-clock
// 0→18), but through Engine.RouteDynamic — i.e. including the always-on
// metrics this PR added (two clock reads, the latency/hop/header-bit
// histogram observes, and the counter adds). The acceptance bar
// (BENCH_PR5.json) is staying within 10% of BENCH_PR4.json's 0.9 µs.
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
// armed — i.e. every robustness feature of this PR live but never striking.
// The acceptance bar (BENCH_PR7.json) is staying within 1% of
// BENCH_PR6.json's 896.8 ns.
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

// BenchmarkTracedSharedWorldRoute prices the fully sampled traced query —
// hop ring writes on every hop plus span bookkeeping — as documentation
// of what a sampled request costs relative to the unsampled baseline.
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
