package route_test

// reference_golden_test.go pins the results of the configurations that
// never run on the flat walker — so no flat == reference differential
// covers them — to a fixed digest: the no-reduction ablation, restart
// confirmation, wire-format headers, a custom memory budget, the forced
// reference path, message-faithful counting, and a certified explicit
// sequence plugged in through SequenceFactory.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/count"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/ues"
)

// referenceDigest is the SHA-256 of the results TestReferenceGolden hashes.
const referenceDigest = "dcdd038e43f395a05c3be9e7dcc2e214633ca2112d70b86b07a909e1940ae5ef"

// TestReferenceGolden runs, on every graph of its corpus and under each
// reference-only configuration, a route from every node to an absent name,
// a route with its path from the first node to every node, and a broadcast
// from every node; message-faithful counts from the first three nodes of
// the graphs with at most 7 nodes; and certified-sequence routes on a
// 3-node path. It checks the digest of every result's JSON and error text.
func TestReferenceGolden(t *testing.T) {
	split, err := gen.DisjointUnion(gen.Cycle(9), gen.Grid(4, 4), 100)
	if err != nil {
		t.Fatal(err)
	}
	corpus := []*graph.Graph{gen.Grid(5, 5), split, gen.Petersen(), gen.Path(3)}
	for seed := uint64(0); seed < 4; seed++ {
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
	configs := []route.Config{
		{Seed: 7, NoDegreeReduction: true},
		{Seed: 7, Confirm: route.ConfirmRestart, DisableCertificates: true},
		{Seed: 7, WireFormat: true, DisableCertificates: true},
		{Seed: 7, MemoryBudgetBits: 4096, DisableCertificates: true},
		{Seed: 7, DisableFlat: true, DisableCertificates: true, LengthFactor: 1},
	}
	for gi, g := range corpus {
		nodes := g.SortedNodes()
		for ci, cfg := range configs {
			r, err := route.New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range nodes {
				res, err := r.Route(s, absent)
				record(fmt.Sprintf("g%d cfg%d route %d->absent", gi, ci, s), res, err)
				res, path, err := r.RouteWithPath(nodes[0], s)
				record(fmt.Sprintf("g%d cfg%d path %d->%d", gi, ci, nodes[0], s), []any{res, path}, err)
				br, err := r.Broadcast(s)
				record(fmt.Sprintf("g%d cfg%d broadcast %d", gi, ci, s), br, err)
			}
		}
		if len(nodes) > 7 {
			continue
		}
		c, err := count.New(g, count.Config{Seed: 7, LengthFactor: 1, Mode: count.ModeMessages})
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range nodes[:min(3, len(nodes))] {
			res, err := c.Count(s)
			record(fmt.Sprintf("g%d messages count %d", gi, s), res, err)
		}
	}

	seq, err := ues.CertifiedSmall(4, 2026)
	if err != nil {
		t.Fatal(err)
	}
	r, err := route.New(gen.Path(3), route.Config{
		Seed: 7, KnownN: 4,
		SequenceFactory: func(int) ues.Sequence { return seq },
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range gen.Path(3).SortedNodes() {
		for _, dst := range []graph.NodeID{0, 2, absent} {
			res, err := r.Route(s, dst)
			record(fmt.Sprintf("certified route %d->%d", s, dst), res, err)
		}
	}

	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%d results", results)
	if got != referenceDigest {
		t.Fatalf("reference digest %s, want %s", got, referenceDigest)
	}
}
