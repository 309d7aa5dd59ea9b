package route_test

// cover_golden_test.go pins every result the §4 cover walk decides —
// count's sizes and Retrieve accounting, certificate-free failure verdicts,
// broadcast reached sets, and the decision-time check of dynamic routes — to
// a fixed digest: however the walk and its closure check are implemented,
// these results must not change.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/count"
	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/route"
)

// coverDigest is the SHA-256 of the results TestCoverGolden hashes.
const coverDigest = "510f59c9542568254c1f4ab8ca9a0bccf0db1af0920be0515f570aded95a6dd4"

// coverMultigraph mirrors flatdiff_test.go's randomMultigraph: n nodes with
// non-contiguous IDs, n+extra random edges (self-loops and parallel edges
// included, some nodes possibly isolated), and shuffled port labels.
func coverMultigraph(seed uint64, n, extra int) *graph.Graph {
	src := prng.New(seed)
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i*3 + 1)
		g.EnsureNode(ids[i])
	}
	for e := 0; e < n+extra; e++ {
		if _, _, err := g.AddEdge(ids[src.Intn(n)], ids[src.Intn(n)]); err != nil {
			panic(err)
		}
	}
	g.ShuffleLabels(seed ^ 0xabcd)
	return g
}

// TestCoverGolden runs count from every node under four configurations;
// certificate-free routes to an absent name, routes from the first node to
// every node, and broadcasts, flat and on the reference path; and
// certificate-free dynamic routes on a Markov world, flat and on the
// reference path. It checks the digest of every result's JSON and error
// text.
func TestCoverGolden(t *testing.T) {
	split, err := gen.DisjointUnion(gen.Cycle(9), gen.Grid(4, 4), 100)
	if err != nil {
		t.Fatal(err)
	}
	single := graph.New()
	single.EnsureNode(0)
	corpus := []*graph.Graph{gen.Grid(6, 6), split, gen.Petersen(), single, gen.Path(2)}
	for seed := uint64(0); seed < 6; seed++ {
		corpus = append(corpus, coverMultigraph(seed, 6+int(seed%6), int(seed%7)))
	}
	const absent = graph.NodeID(1 << 30)

	h := sha256.New()
	results := 0
	record := func(label string, v any, err error) {
		t.Helper()
		b, jerr := json.Marshal(v)
		if jerr != nil {
			t.Fatalf("%s: %v", label, jerr)
		}
		fmt.Fprintf(h, "%s %s %v\n", label, b, err)
		results++
	}
	for gi, g := range corpus {
		nodes := g.SortedNodes()
		for ci, cfg := range []count.Config{
			{Seed: 7}, {Seed: 7, DisableFlat: true}, {Seed: 7, LengthFactor: 1}, {Seed: 7, MaxBound: 8},
		} {
			c, err := count.New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range nodes {
				res, err := c.Count(s)
				record(fmt.Sprintf("g%d count%d %d", gi, ci, s), res, err)
			}
		}
		for _, disableFlat := range []bool{false, true} {
			r, err := route.New(g, route.Config{Seed: 7, DisableCertificates: true, DisableFlat: disableFlat})
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range nodes {
				res, err := r.Route(s, absent)
				record(fmt.Sprintf("g%d flat %t route %d->absent", gi, !disableFlat, s), res, err)
				res, err = r.Route(nodes[0], s)
				record(fmt.Sprintf("g%d flat %t route %d->%d", gi, !disableFlat, nodes[0], s), res, err)
				br, err := r.Broadcast(s)
				record(fmt.Sprintf("g%d flat %t broadcast %d", gi, !disableFlat, s), br, err)
			}

			w := dynamic.NewWorld(g, &dynamic.MarkovLinks{Seed: 3, PDown: 0.05, PUp: 0.5})
			dr := dynamic.NewRouter(w, dynamic.Config{Seed: 7, HopsPerEpoch: 16, DisableCertificates: true, DisableFlat: disableFlat})
			for _, s := range nodes[:min(3, len(nodes))] {
				for _, dst := range []graph.NodeID{nodes[len(nodes)-1], absent} {
					res, err := dr.Route(s, dst)
					record(fmt.Sprintf("g%d flat %t dynamic %d->%d", gi, !disableFlat, s, dst), res, err)
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d results", results)
	if got != coverDigest {
		t.Fatalf("cover digest %s, want %s", got, coverDigest)
	}
}
