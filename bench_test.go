package adhocroute

// bench_test.go holds one benchmark per experiment in the exp.Runners
// index (F1, E1–E10, A1–A5) — each bench runs that runner in quick
// mode — plus micro-benchmarks for the core operations (sequence oracle,
// walk step, degree reduction, header codec, routing on standard
// families). Regenerate the full tables with: go run ./cmd/experiments
import (
	"sync/atomic"
	"testing"

	"repro/internal/degred"
	"repro/internal/exp"
	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
	"repro/internal/ues"
)

func benchOpts() exp.Options { return exp.Options{Quick: true, Seed: 7} }

func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, err := exp.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkF1DegreeReduction(b *testing.B) { runExperiment(b, "F1") }
func BenchmarkE1Delivery2D(b *testing.B)      { runExperiment(b, "E1") }
func BenchmarkE2Delivery3D(b *testing.B)      { runExperiment(b, "E2") }
func BenchmarkE3HopsVsN(b *testing.B)         { runExperiment(b, "E3") }
func BenchmarkE4CoverTime(b *testing.B)       { runExperiment(b, "E4") }
func BenchmarkE5FailureDetect(b *testing.B)   { runExperiment(b, "E5") }
func BenchmarkE6CountNodes(b *testing.B)      { runExperiment(b, "E6") }
func BenchmarkE7SpaceOverhead(b *testing.B)   { runExperiment(b, "E7") }
func BenchmarkE8ZigZag(b *testing.B)          { runExperiment(b, "E8") }
func BenchmarkE9Hybrid(b *testing.B)          { runExperiment(b, "E9") }

// BenchmarkE10StaticAssumption covers the extension experiment (message
// loss + churn robustness).
func BenchmarkE10StaticAssumption(b *testing.B) { runExperiment(b, "E10") }

// Ablation benches (A1–A5).
func BenchmarkA1ConfirmMode(b *testing.B)         { runExperiment(b, "A1") }
func BenchmarkA2GrowthFactor(b *testing.B)        { runExperiment(b, "A2") }
func BenchmarkA3LengthFactor(b *testing.B)        { runExperiment(b, "A3") }
func BenchmarkA4DegreeReduction(b *testing.B)     { runExperiment(b, "A4") }
func BenchmarkA5AdversarialLabeling(b *testing.B) { runExperiment(b, "A5") }

// --- Micro-benchmarks for the core operations ---

// BenchmarkSequenceAt measures the O(log n)-space T[i] oracle — the
// operation every node performs once per message activation.
func BenchmarkSequenceAt(b *testing.B) {
	seq := &ues.Pseudorandom{Seed: 1, N: 1 << 16, Base: 3}
	l := seq.Len()
	b.ReportAllocs()
	var sink int
	for i := 0; i < b.N; i++ {
		sink += seq.At(i%l + 1)
	}
	_ = sink
}

// BenchmarkWalkStep measures one exploration step on the reduced graph.
func BenchmarkWalkStep(b *testing.B) {
	red, err := degred.Reduce(gen.Grid(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	g := red.Graph()
	seq := &ues.Pseudorandom{Seed: 1, N: g.NumNodes(), Base: 3}
	pos := ues.Start(0)
	l := seq.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		next, err := ues.Step(g, pos, seq.At(i%l+1))
		if err != nil {
			b.Fatal(err)
		}
		pos = next
	}
}

// BenchmarkFlatWalkStep measures one exploration step on the compiled flat
// snapshot with the inlined PRF oracle — the flat equivalent of
// BenchmarkWalkStep's ues.Step + Sequence.At hop. The gap between the two
// is the per-hop cost the flat walk core removes (map lookup, interface
// dispatch, error plumbing).
func BenchmarkFlatWalkStep(b *testing.B) {
	red, err := degred.Reduce(gen.Grid(16, 16))
	if err != nil {
		b.Fatal(err)
	}
	f := red.Flat()
	seq := flatgraph.Seq{Seed: 1, Base: 3, Length: ues.Length(f.NumNodes(), 0)}
	node, inPort := int32(0), int32(0)
	l := int64(seq.Length)
	// The measured loop is the walk core's real hop shape: directions
	// prefetched in blocks, then one flat step per hop.
	var dirs [128]int8
	i, k := int64(1), len(dirs)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		if k == len(dirs) {
			if i+int64(len(dirs)) > l {
				i = 1
			}
			seq.Fill(dirs[:], i)
			k = 0
		}
		node, inPort = f.Step(node, inPort, int32(dirs[k]))
		k++
		i++
	}
	_, _ = node, inPort
}

// BenchmarkFlatRoute measures the steady-state hop loop of a prepared
// route: one complete forward + backtrack walk on the compiled snapshot,
// which performs zero allocations (the criterion the flat core exists
// for). Engine-level bookkeeping on top of this loop is measured by
// BenchmarkPreparedRoute.
func BenchmarkFlatRoute(b *testing.B) {
	red, err := degred.Reduce(gen.Grid(6, 6))
	if err != nil {
		b.Fatal(err)
	}
	f := red.Flat()
	entryID, ok := red.Entry(0)
	if !ok {
		b.Fatal("no entry for node 0")
	}
	entry, _ := f.Index(entryID)
	seq := flatgraph.Seq{Seed: 7, Base: 3, Length: ues.Length(f.NumNodes(), 0)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := f.RouteWalk(entry, 0, 35, seq)
		if err != nil {
			b.Fatal(err)
		}
		if !out.Success {
			b.Fatal("route failed")
		}
	}
}

// BenchmarkFlatRouteParallel hammers one shared compiled Router from all
// cores — the serving shape the compile-once/walk-flat design targets: the
// snapshot is immutable, so concurrent queries share it with zero
// coordination.
func BenchmarkFlatRouteParallel(b *testing.B) {
	nw := NewGrid(6, 6)
	r, err := nw.Compile(WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	var failed atomic.Bool
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := r.Route(0, 35)
			if err != nil || res.Status != StatusSuccess {
				failed.Store(true)
				return
			}
		}
	})
	if failed.Load() {
		b.Fatal("parallel route failed")
	}
}

// BenchmarkDegreeReduction measures the Figure 1 construction.
func BenchmarkDegreeReduction(b *testing.B) {
	g := gen.UDG2D(256, 0.15, 3).G
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := degred.Reduce(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHeaderCodec measures the O(log n) header round trip.
func BenchmarkHeaderCodec(b *testing.B) {
	h := netsim.Header{Src: 123456, Dst: 654321, Dir: netsim.Forward, Index: 1 << 30}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := h.Encode()
		if _, err := netsim.DecodeHeader(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRouteGrid measures end-to-end routing (known bound, single
// round) on a 8x8 grid.
func BenchmarkRouteGrid(b *testing.B) {
	g := gen.Grid(8, 8)
	red, err := degred.Reduce(g)
	if err != nil {
		b.Fatal(err)
	}
	np := red.Graph().NumNodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := route.New(g, route.Config{Seed: uint64(i), KnownN: np})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Route(0, 63)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != netsim.StatusSuccess {
			b.Fatal("route failed")
		}
	}
}

// BenchmarkRouteUnknownBound measures the full doubling loop on a cycle.
func BenchmarkRouteUnknownBound(b *testing.B) {
	g := gen.Cycle(32)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := route.New(g, route.Config{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := r.Route(0, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBroadcast measures a full component broadcast with confirmation.
func BenchmarkBroadcast(b *testing.B) {
	g := gen.Grid(6, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := route.New(g, route.Config{Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		res, err := r.Broadcast(0)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reached != 36 {
			b.Fatal("broadcast incomplete")
		}
	}
}

// BenchmarkShuffleLabels measures adversarial relabeling (test tooling).
func BenchmarkShuffleLabels(b *testing.B) {
	g := gen.Grid(16, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ShuffleLabels(uint64(i))
	}
}

// BenchmarkPublicAPIRoute measures the facade overhead end to end.
func BenchmarkPublicAPIRoute(b *testing.B) {
	nw := NewGrid(6, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := nw.Route(0, 35, WithSeed(uint64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != StatusSuccess {
			b.Fatal("route failed")
		}
	}
}

// BenchmarkPreparedRoute measures the same query as
// BenchmarkPublicAPIRoute served by a Router compiled once — the
// amortization the prepared engine exists for. Compare ns/op and
// allocs/op against the per-call path.
func BenchmarkPreparedRoute(b *testing.B) {
	nw := NewGrid(6, 6)
	r, err := nw.Compile(WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Route(0, 35)
		if err != nil {
			b.Fatal(err)
		}
		if res.Status != StatusSuccess {
			b.Fatal("route failed")
		}
	}
}

// BenchmarkCountComponent measures a prepared CountNodes (§4): its doubling
// rounds' local cover walks and closure checks, cycling through the grid's
// 36 sources.
func BenchmarkCountComponent(b *testing.B) {
	nw := NewGrid(6, 6)
	r, err := nw.Compile(WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	nodes := nw.Nodes()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.CountComponent(nodes[i%len(nodes)])
		if err != nil {
			b.Fatal(err)
		}
		if res.Count != 36 {
			b.Fatal("count incomplete")
		}
	}
}

// BenchmarkRouteBatch measures the batch fan-out: 64 queries per
// operation across the worker pool (per-query cost = ns/op ÷ 64).
func BenchmarkRouteBatch(b *testing.B) {
	nw := NewGrid(8, 8)
	r, err := nw.Compile(WithSeed(7))
	if err != nil {
		b.Fatal(err)
	}
	nodes := nw.Nodes()
	queries := make([]BatchQuery, 64)
	for i := range queries {
		queries[i] = BatchQuery{Src: nodes[i%len(nodes)], Dst: nodes[(i*5+1)%len(nodes)]}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, br := range r.RouteBatch(queries) {
			if br.Err != nil {
				b.Fatal(br.Err)
			}
		}
	}
}

// BenchmarkCompile measures the one-time preparation cost the prepared
// path amortizes away (dominated by the Figure 1 reduction).
func BenchmarkCompile(b *testing.B) {
	g := gen.UDG2D(256, 0.15, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nw := &Network{g: g.G, pos: g.Pos}
		if _, err := nw.Compile(WithSeed(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGraphNeighbor measures the port lookup at the heart of every
// hop.
func BenchmarkGraphNeighbor(b *testing.B) {
	g := gen.Grid(16, 16)
	b.ReportAllocs()
	var sink graph.NodeID
	for i := 0; i < b.N; i++ {
		h, err := g.Neighbor(graph.NodeID(i%256), i%2)
		if err != nil {
			b.Fatal(err)
		}
		sink = h.To
	}
	_ = sink
}
