package count

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func newCounter(t *testing.T, g *graph.Graph, cfg Config) *Counter {
	t.Helper()
	c, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCountLocalExact(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s    graph.NodeID
	}{
		{name: "path", g: gen.Path(9), s: 0},
		{name: "cycle", g: gen.Cycle(11), s: 4},
		{name: "grid", g: gen.Grid(4, 4), s: 5},
		{name: "star", g: gen.Star(8), s: 0},
		{name: "petersen", g: gen.Petersen(), s: 2},
		{name: "tree", g: gen.RandomTree(20, 1), s: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c := newCounter(t, tt.g, Config{Seed: 3, Mode: ModeLocal})
			res, err := c.Count(tt.s)
			if err != nil {
				t.Fatal(err)
			}
			if want := tt.g.NumNodes(); res.OriginalCount != want {
				t.Fatalf("original count = %d, want %d", res.OriginalCount, want)
			}
			if want := c.red.Flat().NumNodes(); res.ReducedCount != want {
				t.Fatalf("reduced count = %d, want %d", res.ReducedCount, want)
			}
			if res.Rounds < 1 || res.Bound < 2 {
				t.Fatalf("implausible rounds/bound: %+v", res)
			}
		})
	}
}

func TestCountLocalComponentOnly(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(7), gen.Grid(3, 3), 100)
	if err != nil {
		t.Fatal(err)
	}
	c := newCounter(t, u, Config{Seed: 5})
	res, err := c.Count(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalCount != 7 {
		t.Fatalf("count = %d, want 7 (own component)", res.OriginalCount)
	}
	res2, err := c.Count(100)
	if err != nil {
		t.Fatal(err)
	}
	if res2.OriginalCount != 9 {
		t.Fatalf("count = %d, want 9", res2.OriginalCount)
	}
}

func TestCountMissingSource(t *testing.T) {
	c := newCounter(t, gen.Cycle(3), Config{Seed: 1})
	if _, err := c.Count(42); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestCountSingleton(t *testing.T) {
	g := graph.New()
	g.EnsureNode(3)
	c := newCounter(t, g, Config{Seed: 1})
	res, err := c.Count(3)
	if err != nil {
		t.Fatal(err)
	}
	if res.OriginalCount != 1 {
		t.Fatalf("singleton count = %d", res.OriginalCount)
	}
	if res.ReducedCount != 2 { // theta gadget
		t.Fatalf("reduced singleton count = %d, want 2", res.ReducedCount)
	}
}

// TestCountMessageModeMatchesLocal is the fidelity check: the
// message-faithful protocol computes exactly the same counts as the local
// oracle, at a real (recorded) message cost. Kept to tiny graphs because
// the faithful cost is Θ(L³) hops.
func TestCountMessageModeMatchesLocal(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"single-node": singleNode(),
		"one-edge":    gen.Path(2),
		"path3":       gen.Path(3),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			local := newCounter(t, g, Config{Seed: 9, Mode: ModeLocal, LengthFactor: 1})
			msg := newCounter(t, g, Config{Seed: 9, Mode: ModeMessages, LengthFactor: 1})
			s := g.Nodes()[0]
			lres, err := local.Count(s)
			if err != nil {
				t.Fatal(err)
			}
			mres, err := msg.Count(s)
			if err != nil {
				t.Fatal(err)
			}
			if lres.OriginalCount != mres.OriginalCount || lres.ReducedCount != mres.ReducedCount {
				t.Fatalf("modes disagree: local %+v vs messages %+v", lres, mres)
			}
			if mres.Hops == 0 {
				t.Fatal("message mode recorded no hops")
			}
			if mres.Retrieves == 0 {
				t.Fatal("message mode recorded no retrieves")
			}
			if lres.Hops != 0 {
				t.Fatal("local mode must not record hops")
			}
		})
	}
}

func singleNode() *graph.Graph {
	g := graph.New()
	g.EnsureNode(0)
	return g
}

func TestCountDeterministic(t *testing.T) {
	g := gen.Grid(3, 4)
	a := newCounter(t, g, Config{Seed: 7})
	b := newCounter(t, g, Config{Seed: 7})
	ra, err := a.Count(0)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Count(0)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Bound != rb.Bound || ra.Rounds != rb.Rounds || ra.Retrieves != rb.Retrieves {
		t.Fatalf("same-seed counts differ: %+v vs %+v", ra, rb)
	}
}

func TestCountDoublingRounds(t *testing.T) {
	// A 6x6 grid reduces to >100 nodes: several doubling rounds needed.
	c := newCounter(t, gen.Grid(6, 6), Config{Seed: 2})
	res, err := c.Count(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 3 {
		t.Fatalf("rounds = %d, expected several for a 6x6 grid", res.Rounds)
	}
	if res.OriginalCount != 36 {
		t.Fatalf("count = %d, want 36", res.OriginalCount)
	}
}

func TestCountShuffledLabels(t *testing.T) {
	for seed := uint64(0); seed < 4; seed++ {
		g := gen.Cycle(9)
		g.ShuffleLabels(seed)
		c := newCounter(t, g, Config{Seed: 13})
		res, err := c.Count(0)
		if err != nil {
			t.Fatalf("labeling %d: %v", seed, err)
		}
		if res.OriginalCount != 9 {
			t.Fatalf("labeling %d: count = %d", seed, res.OriginalCount)
		}
	}
}
