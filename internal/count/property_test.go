package count

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
)

// TestCountMatchesOracleQuick property-tests §4 exactness on random
// multigraphs (self-loops and parallel edges included): the counted
// component size must equal the BFS oracle's.
func TestCountMatchesOracleQuick(t *testing.T) {
	f := func(seed uint64) bool {
		src := prng.New(seed)
		n := src.Intn(16) + 1
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
		c, err := New(g, Config{Seed: seed})
		if err != nil {
			return false
		}
		s := graph.NodeID(src.Intn(n))
		res, err := c.Count(s)
		if err != nil {
			return false
		}
		return res.OriginalCount == len(g.ComponentOf(s))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestReducedCountMatchesReducedComponent checks the reduced-graph count
// (the §4 n used as a routing bound) against the reduced oracle.
func TestReducedCountMatchesReducedComponent(t *testing.T) {
	for seed := uint64(0); seed < 6; seed++ {
		g := gen.ErdosRenyi(14, 0.25, seed)
		c, err := New(g, Config{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Count(0)
		if err != nil {
			t.Fatal(err)
		}
		start, _ := c.red.Entry(0)
		want := len(c.red.Graph().ComponentOf(start))
		if res.ReducedCount != want {
			t.Fatalf("seed %d: reduced count %d, oracle %d", seed, res.ReducedCount, want)
		}
	}
}

// TestCountLengthFactorInsensitive: the count is exact regardless of the
// sequence length constant (only cost changes).
func TestCountLengthFactorInsensitive(t *testing.T) {
	g := gen.Grid(4, 4)
	for _, factor := range []int{1, 2, 8} {
		c, err := New(g, Config{Seed: 3, LengthFactor: factor})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Count(0)
		if err != nil {
			t.Fatalf("factor %d: %v", factor, err)
		}
		if res.OriginalCount != 16 {
			t.Fatalf("factor %d: count %d", factor, res.OriginalCount)
		}
	}
}
