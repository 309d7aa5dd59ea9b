package engine

import (
	"context"
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/trace"
)

func mustCompile(t *testing.T, g *graph.Graph, cfg Config) *Engine {
	t.Helper()
	e, err := Compile(g, cfg)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return e
}

// TestRouteMatchesOracle checks the Theorem 1 contract on the compiled
// engine: success iff the target is reachable, across several families.
func TestRouteMatchesOracle(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid":  gen.Grid(5, 5),
		"cycle": gen.Cycle(12),
		"tree":  gen.RandomTree(16, 3),
		"udg2d": gen.UDG2D(48, 0.2, 5).G,
	}
	for name, g := range graphs {
		e := mustCompile(t, g, Config{Seed: 7})
		dist := g.BFSDist(0)
		for _, v := range g.Nodes() {
			res, err := e.Route(0, v)
			if err != nil {
				t.Fatalf("%s: Route(0,%d): %v", name, v, err)
			}
			_, reachable := dist[v]
			want := netsim.StatusFailure
			if reachable {
				want = netsim.StatusSuccess
			}
			if res.Status != want {
				t.Fatalf("%s: Route(0,%d) = %v, want %v", name, v, res.Status, want)
			}
		}
	}
}

// TestRouteDefinitiveFailure routes to a node outside the component and to
// a nonexistent name; both must terminate with StatusFailure.
func TestRouteDefinitiveFailure(t *testing.T) {
	g, err := gen.DisjointUnion(gen.Grid(3, 3), gen.Cycle(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	e := mustCompile(t, g, Config{Seed: 3})
	for _, dst := range []graph.NodeID{100, 9999} {
		res, err := e.Route(0, dst)
		if err != nil {
			t.Fatalf("Route(0,%d): %v", dst, err)
		}
		if res.Status != netsim.StatusFailure {
			t.Fatalf("Route(0,%d) = %v, want failure", dst, res.Status)
		}
	}
}

// TestEngineMatchesPerCallRouter checks the amortization is pure caching:
// a compiled engine must produce hop-for-hop identical results to a fresh
// route.Router with the same configuration.
func TestEngineMatchesPerCallRouter(t *testing.T) {
	g := gen.UDG2D(40, 0.22, 9).G
	cfg := Config{Seed: 11}
	e := mustCompile(t, g, cfg)
	r, err := route.New(g, route.Config{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range g.Nodes() {
		got, err1 := e.Route(0, v)
		want, err2 := r.Route(0, v)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("Route(0,%d): engine err %v, router err %v", v, err1, err2)
		}
		if err1 != nil {
			continue
		}
		if got.Status != want.Status || got.Hops != want.Hops ||
			got.ForwardSteps != want.ForwardSteps || got.Bound != want.Bound {
			t.Fatalf("Route(0,%d): engine %+v, per-call router %+v", v, got, want)
		}
	}
}

// TestRouteWithPath checks path endpoints and edge validity.
func TestRouteWithPath(t *testing.T) {
	g := gen.Grid(4, 4)
	e := mustCompile(t, g, Config{Seed: 2})
	res, path, err := e.RouteWithPath(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("status = %v", res.Status)
	}
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 15 {
		t.Fatalf("bad path endpoints: %v", path)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("path step %d: no edge %d-%d", i, path[i-1], path[i])
		}
	}
}

// TestBroadcastAndCount checks component coverage and exact counting on a
// disconnected network.
func TestBroadcastAndCount(t *testing.T) {
	g, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(6), 50)
	if err != nil {
		t.Fatal(err)
	}
	e := mustCompile(t, g, Config{Seed: 5})
	b, err := e.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Reached != 16 {
		t.Fatalf("Broadcast reached %d, want 16", b.Reached)
	}
	c, err := e.Count(50)
	if err != nil {
		t.Fatal(err)
	}
	if c.OriginalCount != 6 {
		t.Fatalf("Count = %d, want 6", c.OriginalCount)
	}
}

// TestHybrid checks the Corollary 2 race on the compiled engine.
func TestHybrid(t *testing.T) {
	e := mustCompile(t, gen.Grid(5, 5), Config{Seed: 13})
	res, err := e.Hybrid(0, 24, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("Hybrid status = %v", res.Status)
	}
	if res.Winner == "" {
		t.Fatal("Hybrid winner empty")
	}
}

// TestRouteBatch checks ordering, per-member isolation, and the one-to-many
// fan-out.
func TestRouteBatch(t *testing.T) {
	g := gen.Grid(4, 4)
	e := mustCompile(t, g, Config{Seed: 1, Workers: 3})
	pairs := []Pair{{0, 15}, {0, 7777}, {3, 12}, {5, 5}, {4242, 0}}
	out := e.RouteBatch(context.Background(), pairs)
	if len(out) != len(pairs) {
		t.Fatalf("got %d results, want %d", len(out), len(pairs))
	}
	for i, br := range out {
		if br.Pair != pairs[i] {
			t.Fatalf("result %d is for %+v, want %+v", i, br.Pair, pairs[i])
		}
	}
	if out[0].Err != nil || out[0].Res.Status != netsim.StatusSuccess {
		t.Fatalf("member 0: %+v err %v", out[0].Res, out[0].Err)
	}
	if out[1].Err != nil || out[1].Res.Status != netsim.StatusFailure {
		t.Fatalf("member 1 (absent dst): %+v err %v", out[1].Res, out[1].Err)
	}
	if out[3].Err != nil || out[3].Res.Status != netsim.StatusSuccess {
		t.Fatalf("member 3 (s==t): %+v err %v", out[3].Res, out[3].Err)
	}
	if out[4].Err == nil || !errors.Is(out[4].Err, graph.ErrNodeNotFound) {
		t.Fatalf("member 4 (absent src) err = %v, want ErrNodeNotFound", out[4].Err)
	}

	all := e.RouteAll(context.Background(), 0, g.Nodes())
	for _, br := range all {
		if br.Err != nil || br.Res.Status != netsim.StatusSuccess {
			t.Fatalf("RouteAll member %+v: %v err %v", br.Pair, br.Res, br.Err)
		}
	}
	if e.RouteBatch(nil, nil) == nil {
		t.Fatal("RouteBatch(nil) returned nil slice")
	}
}

// TestRouteBatchCancellation checks the context contract: members not yet
// started when ctx is done are skipped and report the context error.
func TestRouteBatchCancellation(t *testing.T) {
	g := gen.Grid(4, 4)
	e := mustCompile(t, g, Config{Seed: 1, Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already canceled: no member may route
	for _, br := range e.RouteAll(ctx, 0, g.Nodes()) {
		if !errors.Is(br.Err, context.Canceled) {
			t.Fatalf("member %+v: err %v, want context.Canceled", br.Pair, br.Err)
		}
		if br.Res != nil {
			t.Fatalf("member %+v routed despite canceled ctx", br.Pair)
		}
	}
	// A live context routes normally.
	for _, br := range e.RouteBatch(context.Background(), []Pair{{0, 15}}) {
		if br.Err != nil || br.Res.Status != netsim.StatusSuccess {
			t.Fatalf("live ctx member: %+v err %v", br.Res, br.Err)
		}
	}
}

// TestStats checks the metric counters.
func TestStats(t *testing.T) {
	e := mustCompile(t, gen.Grid(4, 4), Config{Seed: 1})
	if s := e.Stats(); s.Queries() != 0 {
		t.Fatalf("fresh engine reports %d queries", s.Queries())
	}
	if _, err := e.Route(0, 15); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Route(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Broadcast(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Count(0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Hybrid(0, 15, 4); err != nil {
		t.Fatal(err)
	}
	e.RouteBatch(context.Background(), []Pair{{0, 1}, {0, 2}})
	s := e.Stats()
	if s.Routes != 4 || s.Broadcasts != 1 || s.Counts != 1 || s.Hybrids != 1 || s.Batches != 1 {
		t.Fatalf("counters off: %+v", s)
	}
	if s.Queries() != 7 {
		t.Fatalf("Queries = %d, want 7", s.Queries())
	}
	if s.Hops <= 0 || s.Rounds <= 0 {
		t.Fatalf("hops/rounds not recorded: %+v", s)
	}
	if s.PeakHeaderBits <= 0 {
		t.Fatalf("peak header bits not recorded: %+v", s)
	}
	if s.Errors != 0 {
		t.Fatalf("unexpected errors: %+v", s)
	}
	if _, err := e.Route(31337, 0); err == nil {
		t.Fatal("Route from absent source did not error")
	}
	if s := e.Stats(); s.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", s.Errors)
	}
}

// TestNoDegreeReduction exercises the ablation configuration end to end.
func TestNoDegreeReduction(t *testing.T) {
	e := mustCompile(t, gen.Grid(4, 4), Config{Seed: 1, NoDegreeReduction: true})
	res, err := e.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("status = %v", res.Status)
	}
	// Counting always runs on the reduction (§4), even under the ablation.
	c, err := e.Count(0)
	if err != nil {
		t.Fatal(err)
	}
	if c.OriginalCount != 16 {
		t.Fatalf("Count = %d, want 16", c.OriginalCount)
	}
}

// TestKnownBound exercises the single-round §3 variant.
func TestKnownBound(t *testing.T) {
	g := gen.Grid(4, 4)
	e := mustCompile(t, g, Config{Seed: 1, KnownBound: 64})
	res, err := e.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess || len(res.Rounds) != 1 {
		t.Fatalf("known-bound route: %+v", res)
	}
}

// TestCompileAllocsStayFlat guards the compile path against allocating per
// node: degred.Reduce writes G′ straight into its port table and nothing
// else builds G′ eagerly, so compiling a 64x64 grid allocates at most a
// small constant more than compiling a 16x16 one. They measured 38 and 52
// allocations when this test was written, and 3,740 and 60,930 when Reduce
// built G′ as a graph.Graph edge by edge. The slack covers the map from
// original node to dense index, whose table count grows with the node count.
func TestCompileAllocsStayFlat(t *testing.T) {
	allocs := func(side int) float64 {
		g := gen.Grid(side, side)
		return testing.AllocsPerRun(3, func() {
			if _, err := Compile(g, Config{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(16), allocs(64)
	if large > small+32 {
		t.Fatalf("Compile allocates %.0f times on a 64x64 grid, %.0f on a 16x16 one: more than 32 apart", large, small)
	}
}

// TestDroppedTraceSkipsHopTail guards that a sampled request whose trace
// Finish drops pays for no hop tail. On route_short's network (an 8x8 grid
// at protocol seed 7), a route from 0 to 63 traced at SlowThreshold −1,
// which keeps no clean trace, must allocate less per query than one hop
// ring of trace.DefaultHopRing 32-byte HopEvents. The route walks two
// rounds; when each sampled round replayed its tail into a ring as it
// ended, the query allocated about 22 KB.
func TestDroppedTraceSkipsHopTail(t *testing.T) {
	const ringBytes = trace.DefaultHopRing * 32
	e := mustCompile(t, gen.Grid(8, 8), Config{Seed: 7})
	tc := trace.New(trace.Config{SampleRate: 1, SlowThreshold: -1})
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			tr := tc.StartRequest("http", "")
			if _, err := e.RouteBudgeted(trace.NewContext(context.Background(), tr.Root()), 0, 63, 0, nil); err != nil {
				b.Fatal(err)
			}
			tr.Finish()
		}
	})
	if res.N == 0 {
		t.Fatal("the traced route failed")
	}
	if got := res.AllocedBytesPerOp(); got >= ringBytes {
		t.Fatalf("a dropped traced query allocated %d B, not less than one hop ring (%d B)", got, ringBytes)
	}
	if kept := tc.Recorder().Kept(); kept != 0 {
		t.Fatalf("the tracer kept %d clean traces at SlowThreshold -1", kept)
	}
}

// TestCompileErrors checks constructor validation.
func TestCompileErrors(t *testing.T) {
	if _, err := Compile(nil, Config{}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("Compile(nil) err = %v", err)
	}
	if _, err := CompileWithReduced(gen.Grid(2, 2), nil, Config{}); err == nil {
		t.Fatal("CompileWithReduced(nil reduction) did not error")
	}
}
