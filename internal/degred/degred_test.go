package degred

import (
	"testing"
	"testing/quick"

	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
)

func reduceOrFail(t *testing.T, g *graph.Graph) *Reduced {
	t.Helper()
	r, err := Reduce(g)
	if err != nil {
		t.Fatalf("Reduce: %v", err)
	}
	return r
}

func TestReduceStar(t *testing.T) {
	// Star with hub degree 5: hub becomes a 5-cycle, each leaf (degree 1)
	// becomes one node with a self-loop.
	g := gen.Star(6)
	r := reduceOrFail(t, g)
	if !r.Graph().IsRegular(3) {
		t.Fatal("reduced graph not 3-regular")
	}
	if got := len(r.Gadget(0)); got != 5 {
		t.Fatalf("hub gadget size = %d, want 5", got)
	}
	for leaf := graph.NodeID(1); leaf <= 5; leaf++ {
		if got := len(r.Gadget(leaf)); got != 1 {
			t.Fatalf("leaf %d gadget size = %d, want 1", leaf, got)
		}
	}
	if !r.Graph().IsConnected() {
		t.Fatal("reduced star should stay connected")
	}
}

func TestReduceDegreeCases(t *testing.T) {
	// One node of each degree class: isolated (0), pendant (1), path
	// middle (2), and a degree-3 hub.
	g := graph.New()
	for i := graph.NodeID(0); i <= 5; i++ {
		g.EnsureNode(i)
	}
	// 1 - 2 - 3, hub 2 also joined to 4; 5 isolated. Degrees: 1:1, 2:3, 3:1, 4:1, 0:0...
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 2, 4)
	r := reduceOrFail(t, g)

	wantSizes := map[graph.NodeID]int{
		0: 2, // isolated -> theta gadget
		1: 1, // degree 1 -> self-loop node
		2: 3, // degree 3 -> 3-cycle
		3: 1,
		4: 1,
		5: 2, // isolated
	}
	for v, want := range wantSizes {
		if got := len(r.Gadget(v)); got != want {
			t.Errorf("gadget size of %d = %d, want %d", v, got, want)
		}
	}
	if !r.Graph().IsRegular(3) {
		t.Fatal("not 3-regular")
	}
}

func TestReduceSelfLoopOnly(t *testing.T) {
	g := graph.New()
	g.EnsureNode(0)
	mustLoop(t, g, 0)
	r := reduceOrFail(t, g)
	if !r.Graph().IsRegular(3) {
		t.Fatal("self-loop-only graph not reduced to 3-regular")
	}
	if len(r.Gadget(0)) != 2 {
		t.Fatalf("degree-2 self-loop gadget size = %d, want 2", len(r.Gadget(0)))
	}
	if !r.Graph().IsConnected() {
		t.Fatal("should be connected")
	}
}

func TestReducePreservesComponents(t *testing.T) {
	a := gen.Cycle(5)
	b := gen.Path(4)
	g, err := gen.DisjointUnion(a, b, 50)
	if err != nil {
		t.Fatal(err)
	}
	r := reduceOrFail(t, g)
	if got, want := len(r.Graph().Components()), len(g.Components()); got != want {
		t.Fatalf("component count changed: %d vs %d", got, want)
	}
}

func TestReduceSizeBound(t *testing.T) {
	// |V'| <= 2|E| + 2|V| (the paper: "at most squaring the size").
	graphs := map[string]*graph.Graph{
		"grid":     gen.Grid(6, 7),
		"complete": gen.Complete(9),
		"star":     gen.Star(20),
		"tree":     gen.RandomTree(40, 1),
	}
	for name, g := range graphs {
		r := reduceOrFail(t, g)
		bound := 2*g.NumEdges() + 2*g.NumNodes()
		if got := r.Graph().NumNodes(); got > bound {
			t.Errorf("%s: reduced size %d exceeds bound %d", name, got, bound)
		}
	}
}

func TestMappingRoundTrip(t *testing.T) {
	g := gen.Grid(4, 4)
	r := reduceOrFail(t, g)
	// Every gadget node maps to its owner; every owner's gadget contains it.
	r.Graph().ForEachNode(func(v graph.NodeID) {
		o, ok := r.Original(v)
		if !ok {
			t.Fatalf("gadget node %d has no original", v)
		}
		found := false
		for _, s := range r.Gadget(o) {
			if s == v {
				found = true
			}
		}
		if !found {
			t.Fatalf("gadget node %d missing from Gadget(%d)", v, o)
		}
	})
	// Gadget sets partition the reduced nodes.
	total := 0
	g.ForEachNode(func(v graph.NodeID) { total += len(r.Gadget(v)) })
	if total != r.Graph().NumNodes() {
		t.Fatalf("gadget sizes sum to %d, reduced has %d nodes", total, r.Graph().NumNodes())
	}
}

func TestEntry(t *testing.T) {
	g := gen.Cycle(4)
	r := reduceOrFail(t, g)
	e, ok := r.Entry(2)
	if !ok {
		t.Fatal("Entry(2) not found")
	}
	if o, _ := r.Original(e); o != 2 {
		t.Fatalf("Entry(2) maps back to %d", o)
	}
	if _, ok := r.Entry(99); ok {
		t.Fatal("Entry of unknown node should fail")
	}
}

func TestGadgetAdjacency(t *testing.T) {
	// If (u,v) is an original edge, some gadget node of u must be adjacent
	// to some gadget node of v in G'.
	g := gen.Grid(3, 5)
	r := reduceOrFail(t, g)
	g.ForEachNode(func(u graph.NodeID) {
		for p := 0; p < g.Degree(u); p++ {
			h, err := g.Neighbor(u, p)
			if err != nil {
				t.Fatal(err)
			}
			adjacent := false
			for _, gu := range r.Gadget(u) {
				for _, gv := range r.Gadget(h.To) {
					if r.Graph().HasEdge(gu, gv) {
						adjacent = true
					}
				}
			}
			if !adjacent {
				t.Fatalf("original edge (%d,%d) not represented in G'", u, h.To)
			}
		}
	})
}

// TestReduceRandomGraphs property-tests the reduction invariants on random
// multigraphs with loops and parallel edges.
func TestReduceRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := src.Intn(25) + 1
		g := graph.New()
		for i := 0; i < n; i++ {
			g.EnsureNode(graph.NodeID(i))
		}
		edges := src.Intn(3 * n)
		for i := 0; i < edges; i++ {
			u, v := graph.NodeID(src.Intn(n)), graph.NodeID(src.Intn(n))
			if _, _, err := g.AddEdge(u, v); err != nil {
				return false
			}
		}
		r, err := Reduce(g)
		if err != nil {
			return false
		}
		if !r.Graph().IsRegular(3) {
			return false
		}
		if r.Graph().Validate() != nil {
			return false
		}
		if len(r.Graph().Components()) != len(g.Components()) {
			return false
		}
		if r.Graph().NumNodes() > 2*g.NumEdges()+2*g.NumNodes() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestReduceAlready3Regular(t *testing.T) {
	g, err := gen.RandomRegularSimple(16, 3, 9, 100)
	if err != nil {
		t.Fatal(err)
	}
	r := reduceOrFail(t, g)
	// Degree-3 nodes each become a 3-cycle: 3x nodes.
	if r.Graph().NumNodes() != 3*g.NumNodes() {
		t.Fatalf("3-regular input reduced to %d nodes, want %d",
			r.Graph().NumNodes(), 3*g.NumNodes())
	}
}

func mustEdge(t *testing.T, g *graph.Graph, u, v graph.NodeID) {
	t.Helper()
	if _, _, err := g.AddEdge(u, v); err != nil {
		t.Fatal(err)
	}
}

func mustLoop(t *testing.T, g *graph.Graph, v graph.NodeID) {
	t.Helper()
	if _, _, err := g.AddEdge(v, v); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSizeAtMaxNodes pins the largest G′ a reduction may build: one
// of flatgraph.MaxNodes nodes passes, one more is refused. Reduce and
// ApplyDelta both check through it before they write a row.
func TestCheckSizeAtMaxNodes(t *testing.T) {
	if err := checkSize(flatgraph.MaxNodes); err != nil {
		t.Fatalf("a G′ of MaxNodes nodes was refused: %v", err)
	}
	if err := checkSize(flatgraph.MaxNodes + 1); err == nil {
		t.Fatal("a G′ past MaxNodes was accepted")
	}
}
