package route

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
	"repro/internal/ues"
)

// TestEngineWalkMatchesPureWalk cross-validates the two walk
// implementations: the message-driven engine walk (routeHandler forward
// phase) must visit exactly the same positions as the pure ues.Trace walk.
func TestEngineWalkMatchesPureWalk(t *testing.T) {
	g := gen.Grid(4, 4)
	r := newRouter(t, g, Config{Seed: 21})
	gp := r.WorkGraph()
	seq := r.Sequence(gp.NumNodes())

	// Pure walk.
	start, err := r.entry(0)
	if err != nil {
		t.Fatal(err)
	}
	const steps = 500
	pure, err := ues.Trace(gp, start, seq, steps)
	if err != nil {
		t.Fatal(err)
	}

	// Engine walk, traced. Route to an unreachable target so the forward
	// phase runs unimpeded; capture the first `steps` forward activations.
	var engineNodes []graph.NodeID
	// Certificates would answer the unreachable target without walking;
	// this test needs the forward phase to run.
	cfg := Config{Seed: 21, KnownN: gp.NumNodes(), DisableCertificates: true, Trace: func(hop int64, at graph.NodeID, inPort int, h netsim.Header) {
		if h.Dir == netsim.Forward && len(engineNodes) <= steps {
			engineNodes = append(engineNodes, at)
		}
	}}
	r2 := newRouter(t, g, cfg)
	if _, err := r2.Route(0, 424242); err != nil {
		t.Fatal(err)
	}
	if len(engineNodes) < steps {
		t.Fatalf("engine produced only %d forward activations", len(engineNodes))
	}
	for i := 0; i <= steps; i++ {
		if engineNodes[i] != pure[i].Node {
			t.Fatalf("walks diverge at step %d: engine %d, pure %d",
				i, engineNodes[i], pure[i].Node)
		}
	}
}

// TestRouteQuickRandomGraphs property-tests verdict-vs-oracle agreement on
// random multigraphs with self-loops and parallel edges.
func TestRouteQuickRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := src.Intn(14) + 2
		g := graph.New()
		for i := 0; i < n; i++ {
			g.EnsureNode(graph.NodeID(i))
		}
		edges := src.Intn(2 * n)
		for i := 0; i < edges; i++ {
			if _, _, err := g.AddEdge(graph.NodeID(src.Intn(n)), graph.NodeID(src.Intn(n))); err != nil {
				return false
			}
		}
		r, err := New(g, Config{Seed: seed})
		if err != nil {
			return false
		}
		s := graph.NodeID(src.Intn(n))
		d := graph.NodeID(src.Intn(n))
		res, err := r.Route(s, d)
		if err != nil {
			return false
		}
		_, reachable := g.BFSDist(s)[d]
		want := netsim.StatusFailure
		if reachable {
			want = netsim.StatusSuccess
		}
		return res.Status == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestBroadcastReachMatchesComponentQuick property-tests broadcast reach
// against the oracle component size.
func TestBroadcastReachMatchesComponentQuick(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := src.Intn(12) + 2
		g := gen.ErdosRenyi(n, 0.3, seed)
		r, err := New(g, Config{Seed: seed})
		if err != nil {
			return false
		}
		res, err := r.Broadcast(0)
		if err != nil {
			return false
		}
		return res.Reached == len(g.ComponentOf(0))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
