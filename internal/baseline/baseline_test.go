package baseline

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
)

func TestRandomWalkRouteDelivers(t *testing.T) {
	g := gen.Cycle(10)
	res, err := RandomWalkRoute(g, 0, 5, 1, 100000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("random walk on a 10-cycle should find the target")
	}
	if res.Hops < 5 {
		t.Fatalf("hops = %d, below BFS distance 5", res.Hops)
	}
}

func TestRandomWalkRouteSelf(t *testing.T) {
	res, err := RandomWalkRoute(gen.Cycle(4), 2, 2, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered || res.Hops != 0 {
		t.Fatalf("self route = %+v", res)
	}
}

func TestRandomWalkRouteTTLOnDisconnected(t *testing.T) {
	// The §1.2 defect: with an unreachable target the walk never
	// terminates on its own — only the TTL stops it.
	u, err := gen.DisjointUnion(gen.Cycle(5), gen.Cycle(5), 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RandomWalkRoute(u, 0, 51, 3, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("cross-component walk cannot deliver")
	}
	if res.Hops != 5000 {
		t.Fatalf("walk stopped early: %d hops", res.Hops)
	}
}

func TestRandomWalkRouteErrors(t *testing.T) {
	if _, err := RandomWalkRoute(gen.Cycle(3), 99, 0, 1, 10); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestRandomWalkRouteIsolatedDeadEnd(t *testing.T) {
	g := graph.New()
	g.EnsureNode(0)
	g.EnsureNode(1)
	res, err := RandomWalkRoute(g, 0, 1, 1, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("isolated source cannot deliver")
	}
}

func TestRandomWalkCover(t *testing.T) {
	g := gen.Complete(8)
	steps, ok, err := RandomWalkCover(g, 0, 7, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("walk on K8 must cover")
	}
	if steps < 7 {
		t.Fatalf("cover in %d steps is impossible for 8 nodes", steps)
	}
	// Singleton covers instantly.
	s := graph.New()
	s.EnsureNode(0)
	if st, ok, err := RandomWalkCover(s, 0, 1, 10); err != nil || !ok || st != 0 {
		t.Fatalf("singleton cover = (%d,%v,%v)", st, ok, err)
	}
}

func TestRandomWalkCoverBudgetExpiry(t *testing.T) {
	g := gen.Path(50)
	_, ok, err := RandomWalkCover(g, 0, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("10 steps cannot cover a 50-path")
	}
}

func TestFloodBroadcast(t *testing.T) {
	g := gen.Grid(4, 5)
	res, err := Flood(g, 0, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 20 {
		t.Fatalf("flood reached %d/20", res.Reached)
	}
	// Every reached node transmits once per incident edge: total = sum of
	// degrees = 2|E|.
	if res.Messages != int64(2*g.NumEdges()) {
		t.Fatalf("messages = %d, want %d", res.Messages, 2*g.NumEdges())
	}
	if res.Rounds != 7 { // eccentricity of corner in 4x5 grid = 3+4
		t.Fatalf("rounds = %d, want 7", res.Rounds)
	}
	if res.PerNodeStateBits <= 0 {
		t.Fatal("flooding requires per-node state")
	}
	if res.ReplyHops != -1 {
		t.Fatal("no-target flood must not report a reply path")
	}
}

func TestFloodWithTarget(t *testing.T) {
	g := gen.Grid(4, 5)
	res, err := Flood(g, 0, 19, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.ReplyHops != 7 {
		t.Fatalf("reply hops = %d, want BFS distance 7", res.ReplyHops)
	}
}

func TestFloodComponentBounded(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(4), gen.Cycle(6), 10)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Flood(u, 0, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 4 {
		t.Fatalf("flood crossed components: reached %d", res.Reached)
	}
	if res.ReplyHops != -1 {
		t.Fatal("unreachable target must have no reply path")
	}
}

func TestGreedyDeliversOnDenseUDG(t *testing.T) {
	// Dense enough that greedy rarely sticks; use a connected pair.
	ud := gen.UDG2D(100, 0.35, 3)
	comp := ud.G.ComponentOf(0)
	if len(comp) < 10 {
		t.Skip("seed produced a tiny component")
	}
	s, d := comp[0], comp[len(comp)-1]
	res, err := GreedyRoute(ud, s, d, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered && res.StuckAt == -1 {
		t.Fatal("greedy neither delivered nor reported a local minimum")
	}
}

func TestGreedyStuckAtVoid(t *testing.T) {
	// Hand-built void: s must route around, but its only neighbour is
	// farther from t than s is.
	ng := handBuiltVoid()
	res, err := GreedyRoute(ng, 0, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("greedy should be stuck at the void")
	}
	if res.StuckAt != 0 {
		t.Fatalf("stuck at %d, want 0", res.StuckAt)
	}
}

// handBuiltVoid: 0 at origin, target 3 to the east; the only path detours
// north through 1 and 2, both farther from 3 than 0 is.
func handBuiltVoid() *gen.Geometric {
	g := graph.New()
	for i := graph.NodeID(0); i <= 3; i++ {
		g.EnsureNode(i)
	}
	edge := func(u, v graph.NodeID) {
		if _, _, err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	edge(0, 1)
	edge(1, 2)
	edge(2, 3)
	return &gen.Geometric{
		G: g,
		Pos: map[graph.NodeID]geom.Point{
			0: {X: 0, Y: 0},
			1: {X: 0, Y: 3},
			2: {X: 2, Y: 3},
			3: {X: 1, Y: 0},
		},
	}
}

func TestGFGRecoversAroundVoid(t *testing.T) {
	res, err := GFGRoute(handBuiltVoid(), 0, 3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatalf("GFG failed to route around the void: %+v", res)
	}
	if res.FaceTransitions == 0 {
		t.Fatal("GFG should have entered face mode")
	}
}

func TestGFGDeliversOnGabrielGraphs(t *testing.T) {
	delivered, attempted := 0, 0
	for seed := uint64(0); seed < 6; seed++ {
		ud := gen.UDG2D(80, 0.22, seed)
		gg := gen.Gabriel(ud)
		comp := gg.G.ComponentOf(0)
		if len(comp) < 8 {
			continue
		}
		for k := 1; k <= 5; k++ {
			d := comp[len(comp)*k/6]
			if d == 0 {
				continue
			}
			attempted++
			res, err := GFGRoute(gg, 0, d, 10000)
			if err != nil {
				t.Fatal(err)
			}
			if res.Delivered {
				delivered++
			}
		}
	}
	if attempted == 0 {
		t.Skip("no usable instances")
	}
	if rate := float64(delivered) / float64(attempted); rate < 0.9 {
		t.Fatalf("GFG delivery rate on planar graphs = %.2f (%d/%d), want >= 0.9",
			rate, delivered, attempted)
	}
}

func TestGFGErrors(t *testing.T) {
	ud := gen.UDG2D(10, 0.3, 1)
	if _, err := GFGRoute(ud, 0, 999, 10); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
	if _, err := GreedyRoute(ud, 999, 0, 10); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestDFSRouteDelivers(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{name: "path", g: gen.Path(10), s: 0, d: 9},
		{name: "grid", g: gen.Grid(4, 4), s: 0, d: 15},
		{name: "petersen", g: gen.Petersen(), s: 0, d: 7},
		{name: "tree", g: gen.RandomTree(20, 1), s: 0, d: 19},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			res, err := DFSRoute(tt.g, tt.s, tt.d, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Delivered {
				t.Fatal("DFS token must deliver on connected pairs")
			}
			// DFS visits each edge at most twice.
			if res.Hops > int64(2*tt.g.NumEdges()) {
				t.Fatalf("hops %d exceed 2|E| = %d", res.Hops, 2*tt.g.NumEdges())
			}
			if res.PerNodeStateBits <= 0 || res.NodesWithState <= 1 {
				t.Fatalf("DFS must report its state cost: %+v", res)
			}
		})
	}
}

func TestDFSRouteUnreachable(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(5), gen.Cycle(4), 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := DFSRoute(u, 0, 51, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered {
		t.Fatal("cross-component DFS cannot deliver")
	}
	// Full exploration traverses each spanning-tree edge twice; cross
	// edges to visited nodes are skipped (the token peeks before moving).
	if res.Hops != int64(2*(5-1)) {
		t.Fatalf("hops = %d, want 8 (full DFS of C5)", res.Hops)
	}
}

func TestDFSRouteSelfAndErrors(t *testing.T) {
	g := gen.Cycle(4)
	res, err := DFSRoute(g, 1, 1, 0)
	if err != nil || !res.Delivered || res.Hops != 0 {
		t.Fatalf("self DFS = %+v, %v", res, err)
	}
	if _, err := DFSRoute(g, 99, 0, 0); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestDFSRouteHopCap(t *testing.T) {
	g := gen.Grid(5, 5)
	res, err := DFSRoute(g, 0, 24, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered || res.Hops > 3 {
		t.Fatalf("hop cap ignored: %+v", res)
	}
}

func TestDFSRouteWithLoopsAndParallel(t *testing.T) {
	g := graph.New()
	for i := graph.NodeID(0); i < 3; i++ {
		g.EnsureNode(i)
	}
	if _, _, err := g.AddEdge(0, 0); err != nil { // self-loop
		t.Fatal(err)
	}
	if _, _, err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := g.AddEdge(0, 1); err != nil { // parallel
		t.Fatal(err)
	}
	if _, _, err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	res, err := DFSRoute(g, 0, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Delivered {
		t.Fatal("DFS must handle loops and parallel edges")
	}
}
