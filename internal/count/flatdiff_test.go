package count

// flatdiff_test.go pins the compiled flat counting rounds to the generic
// ModeLocal reference on random labeled multigraphs: identical counts,
// bounds, round schedules, and Retrieve accounting.

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/prng"
)

// randomMultigraph mirrors the route package's differential generator:
// arbitrary multigraphs with self-loops, parallel edges, possibly isolated
// nodes, and shuffled labels.
func randomMultigraph(seed uint64, n, extra int) *graph.Graph {
	src := prng.New(seed)
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i*5 + 2)
		g.EnsureNode(ids[i])
	}
	for e := 0; e < n+extra; e++ {
		if _, _, err := g.AddEdge(ids[src.Intn(n)], ids[src.Intn(n)]); err != nil {
			panic(err)
		}
	}
	g.ShuffleLabels(seed ^ 0x5150)
	return g
}

func TestFlatCountMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomMultigraph(seed, 6+int(seed%6), int(seed%7))
		fast, err := New(g, Config{Seed: seed, LengthFactor: 1})
		if err != nil {
			t.Fatal(err)
		}
		slow, err := New(g, Config{Seed: seed, LengthFactor: 1, DisableFlat: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range g.SortedNodes() {
			rf, ef := fast.Count(s)
			rs, es := slow.Count(s)
			if (ef == nil) != (es == nil) {
				t.Fatalf("count at %d: flat err %v, reference err %v", s, ef, es)
			}
			if ef != nil {
				continue
			}
			if !reflect.DeepEqual(rf, rs) {
				t.Fatalf("count at %d diverged:\nflat:      %+v\nreference: %+v", s, rf, rs)
			}
		}
	}
}
