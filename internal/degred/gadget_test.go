package degred

import (
	"errors"
	"slices"
	"testing"

	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/ues"
)

// TestGadgetExhaustiveDegrees checks the Figure 1 construction for every
// degree class 0..8 in one graph: a hub of each degree built from stars.
func TestGadgetExhaustiveDegrees(t *testing.T) {
	for d := 0; d <= 8; d++ {
		t.Run(map[bool]string{true: "degree-"}[true]+string(rune('0'+d)), func(t *testing.T) {
			g := graph.New()
			g.EnsureNode(0)
			for i := 1; i <= d; i++ {
				g.EnsureNode(graph.NodeID(i))
				if _, _, err := g.AddEdge(0, graph.NodeID(i)); err != nil {
					t.Fatal(err)
				}
			}
			r, err := Reduce(g)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Graph().IsRegular(3) {
				t.Fatalf("degree %d: not 3-regular", d)
			}
			wantGadget := d
			switch {
			case d == 0:
				wantGadget = 2 // theta
			case d == 1:
				wantGadget = 1 // self-loop node
			case d == 2:
				wantGadget = 2 // parallel pair
			}
			if got := len(r.Gadget(0)); got != wantGadget {
				t.Fatalf("degree %d: gadget size %d, want %d", d, got, wantGadget)
			}
			if len(g.Components()) != len(r.Graph().Components()) {
				t.Fatalf("degree %d: components changed", d)
			}
		})
	}
}

// TestReducedWalkProjectsToOriginal: an exploration walk on G′ visits
// gadget nodes whose originals form a connected progression — every time
// the original changes, the two originals are adjacent in G.
func TestReducedWalkProjectsToOriginal(t *testing.T) {
	g := gen.Grid(4, 4)
	r, err := Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	gp := r.Graph()
	seq := &ues.Pseudorandom{Seed: 5, N: gp.NumNodes(), Base: 3}
	start, _ := r.Entry(0)
	trace, err := ues.Trace(gp, start, seq, 2000)
	if err != nil {
		t.Fatal(err)
	}
	prev, _ := r.Original(trace[0].Node)
	for i := 1; i < len(trace); i++ {
		cur, ok := r.Original(trace[i].Node)
		if !ok {
			t.Fatalf("gadget node %d has no original", trace[i].Node)
		}
		if cur != prev && !g.HasEdge(prev, cur) {
			t.Fatalf("walk jumped between non-adjacent originals %d -> %d", prev, cur)
		}
		prev = cur
	}
}

// TestReduceEntryIsFirstSlot verifies the canonical entry point contract.
func TestReduceEntryIsFirstSlot(t *testing.T) {
	g := gen.Star(5)
	r, err := Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	g.ForEachNode(func(v graph.NodeID) {
		e, ok := r.Entry(v)
		if !ok {
			t.Fatalf("no entry for %d", v)
		}
		if slots := r.Gadget(v); slots[0] != e {
			t.Fatalf("entry of %d is %d, want first slot %d", v, e, slots[0])
		}
	})
}

// TestReduceGadgetInternalConnectivity: each gadget is internally connected
// (a message can circulate inside a node's simulated cycle).
func TestReduceGadgetInternalConnectivity(t *testing.T) {
	g := gen.Complete(6) // degree 5 gadgets
	r, err := Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	gp := r.Graph()
	g.ForEachNode(func(v graph.NodeID) {
		slots := r.Gadget(v)
		inGadget := make(map[graph.NodeID]bool, len(slots))
		for _, s := range slots {
			inGadget[s] = true
		}
		// BFS within the gadget only.
		visited := map[graph.NodeID]bool{slots[0]: true}
		queue := []graph.NodeID{slots[0]}
		for len(queue) > 0 {
			x := queue[0]
			queue = queue[1:]
			for p := 0; p < gp.Degree(x); p++ {
				h, err := gp.Neighbor(x, p)
				if err != nil {
					t.Fatal(err)
				}
				if inGadget[h.To] && !visited[h.To] {
					visited[h.To] = true
					queue = append(queue, h.To)
				}
			}
		}
		if len(visited) != len(slots) {
			t.Fatalf("gadget of %d not internally connected: %d/%d reachable",
				v, len(visited), len(slots))
		}
	})
}

// checkGadgets requires every original v of g to read back off r's table
// as its gadget: Gadget(v) has gadgetSize(deg v) nodes, starts at
// Entry(v), and each node projects to v; node j carries at port 2 v's
// original edge p for every p ≡ j (mod size), leading to the gadget node
// of the far end that owns the far port, as g's Neighbor reports them.
// The gadgets must also partition G′.
func checkGadgets(t *testing.T, g *graph.Graph, r *Reduced) {
	t.Helper()
	f := r.Flat()
	total := 0
	for _, v := range g.Nodes() {
		d, s := g.Degree(v), r.Gadget(v)
		if len(s) != gadgetSize(d) {
			t.Fatalf("node %d of degree %d: gadget %v, want %d nodes", v, d, s, gadgetSize(d))
		}
		total += len(s)
		if e, ok := r.Entry(v); !ok || s[0] != e {
			t.Fatalf("node %d: gadget %v does not start at its entry %d", v, s, e)
		}
		for _, x := range s {
			if o, ok := r.Original(x); !ok || o != v {
				t.Fatalf("node %d: gadget node %d projects to %d", v, x, o)
			}
		}
		for p := range d {
			h, err := g.Neighbor(v, p)
			if err != nil {
				t.Fatal(err)
			}
			ws := r.Gadget(h.To)
			want := flatgraph.Half32{To: int32(ws[h.ToPort%len(ws)]), Port: 2}
			if got := f.Half(int32(s[p%len(s)]), 2); got != want {
				t.Fatalf("node %d port %d (to %d port %d): gadget node %d has %+v at port 2, want %+v",
					v, p, h.To, h.ToPort, s[p%len(s)], got, want)
			}
		}
	}
	if total != f.NumNodes() {
		t.Fatalf("gadgets hold %d nodes, G′ has %d", total, f.NumNodes())
	}
}

// TestGadgetsReadOffTable checks that gadgets are read off the table
// correctly, which the delta == full signature cannot show alone since it
// names gadget nodes through Gadget too. It covers full reductions with
// nodes of degree 0, 1, 2 and at least 3, and chains of delta generations
// that mostly remove edges, so G′ shrinks and survivors stranded above the
// new node count are relocated.
func TestGadgetsReadOffTable(t *testing.T) {
	var shrunk, relocated int
	for seed := uint64(1); seed <= 4; seed++ {
		src := prng.New(seed)
		const n = 48
		g := seedGraph(t, src, n, 90)
		g.EnsureNode(n) // isolated: a theta gadget
		var classes [4]bool
		for _, v := range g.Nodes() {
			classes[min(g.Degree(v), 3)] = true
		}
		if classes != [4]bool{true, true, true, true} {
			t.Fatalf("seed %d: degree classes 0, 1, 2, ≥3 present: %v", seed, classes)
		}
		j := graph.NewJournal(0)
		g.SetJournal(j)
		red, err := Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		checkGadgets(t, g, red)
		for gen := 0; gen < 40; gen++ {
			for range 1 + src.Intn(3) {
				u := graph.NodeID(src.Intn(n))
				if d := g.Degree(u); d > 0 && src.Intn(4) > 0 {
					if err := g.RemoveEdge(u, src.Intn(d)); err != nil {
						t.Fatal(err)
					}
				} else if _, _, err := g.AddEdge(u, graph.NodeID(src.Intn(n))); err != nil {
					t.Fatal(err)
				}
			}
			touched := map[graph.NodeID]bool{}
			for _, d := range j.Peek() {
				touched[d.U], touched[d.V] = true, true
			}
			next, err := applyDelta(t, red, g, j.Peek())
			if errors.Is(err, ErrDeltaTooLarge) {
				next, err = Reduce(g)
			} else if err == nil && next.Flat().NumNodes() < red.Flat().NumNodes() {
				shrunk++
				for _, v := range g.Nodes() {
					if !touched[v] && !slices.Equal(red.Gadget(v), next.Gadget(v)) {
						relocated++
					}
				}
			}
			if err != nil {
				t.Fatalf("seed %d gen %d: %v", seed, gen, err)
			}
			j.Reset()
			checkGadgets(t, g, next)
			red = next
		}
	}
	if shrunk == 0 || relocated == 0 {
		t.Fatalf("%d delta generations shrank G′ and %d relocated a surviving gadget; want both", shrunk, relocated)
	}
	t.Logf("%d delta generations shrank G′; %d surviving gadgets relocated", shrunk, relocated)
}
