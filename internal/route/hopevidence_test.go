package route_test

// hopevidence_test.go pins the hop evidence a traced walk exports — every
// span's name, hop_total, hops_dropped and retained hop tail — to a fixed
// digest: however a walker captures its tail, the evidence must not change.

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/route"
	"repro/internal/trace"
)

// hopEvidenceDigest is the SHA-256 of the evidence TestHopEvidenceGolden
// hashes.
const hopEvidenceDigest = "6cbc18f213a55f521e19a4f4a3d98062659b3f5eb9bd4556621243f6df992f3e"

// segmentFunc runs one segment of a walk, resuming from cur (nil: a fresh
// walk), and returns the cursor to continue from (nil: a verdict).
type segmentFunc func(ctx context.Context, cur *route.Cursor) (*route.Cursor, error)

// hopEvidence accumulates the digest and what it covered.
type hopEvidence struct {
	h            hash.Hash
	spans, hops  int
	walks, parts int
}

// walk runs one walk to its verdict, each segment under a fresh trace as
// the daemon serves them, and hashes every segment's exported hop evidence.
func (ev *hopEvidence) walk(t *testing.T, tc *trace.Tracer, label string, seg segmentFunc) {
	t.Helper()
	fmt.Fprintf(ev.h, "walk %s\n", label)
	ev.walks++
	var cur *route.Cursor
	for part := 0; ; part++ {
		if part > 10000 {
			t.Fatalf("%s: no verdict after %d segments", label, part)
		}
		tr := tc.StartRequest("walk", "")
		next, err := seg(trace.NewContext(context.Background(), tr.Root()), cur)
		tr.Finish()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		ev.parts++
		for _, sp := range tr.Export().Spans {
			fmt.Fprintf(ev.h, "%s %d %d %d\n", sp.Name, sp.HopTotal, sp.HopsDropped, len(sp.Hops))
			ev.spans++
			ev.hops += len(sp.Hops)
			for _, hp := range sp.Hops {
				fmt.Fprintf(ev.h, "%d %d %d %d %t\n", hp.Hop, hp.Node, hp.Index, hp.HeaderBits, hp.Backward)
			}
		}
		if next == nil {
			return
		}
		cur = next
	}
}

// TestHopEvidenceGolden walks a fixed set of traced routes — static ones
// unbounded and in budgeted, resumed segments, unreachable pairs burning
// the doubling loop with certificates disabled, and dynamic ones on Markov
// worlds that re-enter recompiled snapshots — at hop rings 1, 7, 256 and
// 1000, and checks the digest of their exported hop evidence.
func TestHopEvidenceGolden(t *testing.T) {
	udg := gen.UDG2D(256, 0.15, 1).G
	split, err := gen.DisjointUnion(gen.Grid(5, 5), gen.Cycle(5), 1000)
	if err != nil {
		t.Fatal(err)
	}
	long, err := route.New(udg, route.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	short, err := route.New(udg, route.Config{Seed: 7, LengthFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	burn, err := route.New(split, route.Config{Seed: 7, LengthFactor: 1, DisableCertificates: true})
	if err != nil {
		t.Fatal(err)
	}
	type pair struct{ s, t graph.NodeID }
	static := []struct {
		name  string
		r     *route.Router
		pairs []pair
	}{
		{"udg", long, []pair{{0, 255}, {17, 140}}},
		{"udg-short", short, []pair{{0, 255}, {3, 77}, {200, 9}}},
		{"burn", burn, []pair{{0, 1002}, {1003, 12}}},
	}

	ev := &hopEvidence{h: sha256.New()}
	for _, ring := range []int{1, 7, 256, 1000} {
		tc := trace.New(trace.Config{SampleRate: 1, HopRing: ring})
		for _, sc := range static {
			for _, p := range sc.pairs {
				for _, budget := range []int64{0, 37, 256, 1000} {
					label := fmt.Sprintf("ring %d %s %d->%d budget %d", ring, sc.name, p.s, p.t, budget)
					ev.walk(t, tc, label, func(ctx context.Context, cur *route.Cursor) (*route.Cursor, error) {
						res, err := sc.r.RouteBudgeted(ctx, p.s, p.t, budget, cur)
						if err != nil {
							return nil, err
						}
						return res.Cursor, nil
					})
				}
			}
		}
		for _, per := range []int{64, 100, 256} {
			w := dynamic.NewWorld(gen.Grid(8, 8), &dynamic.MarkovLinks{Seed: uint64(per), PDown: 0.02, PUp: 0.5})
			dr := dynamic.NewRouter(w, dynamic.Config{Seed: 7, LengthFactor: 1, HopsPerEpoch: per})
			for _, p := range []pair{{0, 63}, {9, 54}, {63, 1}} {
				for _, budget := range []int64{0, 100} {
					label := fmt.Sprintf("ring %d world %d %d->%d budget %d", ring, per, p.s, p.t, budget)
					ev.walk(t, tc, label, func(ctx context.Context, cur *route.Cursor) (*route.Cursor, error) {
						res, err := dr.RouteBudgeted(ctx, p.s, p.t, budget, cur)
						if err != nil {
							return nil, err
						}
						return res.Cursor, nil
					})
				}
			}
		}
	}
	got := hex.EncodeToString(ev.h.Sum(nil))
	t.Logf("%d walks in %d segments: %d spans, %d retained hops", ev.walks, ev.parts, ev.spans, ev.hops)
	if got != hopEvidenceDigest {
		t.Fatalf("hop evidence digest %s, want %s", got, hopEvidenceDigest)
	}
}

// jumpEvidenceDigest is the SHA-256 of the evidence TestHopEvidenceJumpGolden
// hashes, recorded on a walker that starts every round at the source.
const jumpEvidenceDigest = "22a79fb531305b197fabdbf7a6ce3dcb8c0edc705521a410ec3ee8564193a9bb"

// TestHopEvidenceJumpGolden pins the hop evidence of walks whose later
// rounds start where the last one turned around: long static walks at
// protocol seed 7, with and without certificates, unbounded and in
// budgeted, resumed segments, on a multi-component unit-disk graph and on
// route_long's network, at hop rings 1, 7, 256 and 1000. A sampled round
// whose budget stops it less than a ring past the turnaround rebuilds part
// of its hop tail by rewinding into the hops it skipped; a rewind that
// strays from the walk changes the evidence.
func TestHopEvidenceJumpGolden(t *testing.T) {
	type pair struct{ s, t graph.NodeID }
	graphs := []struct {
		name    string
		g       *graph.Graph
		pairs   []pair
		budgets []int64
	}{
		{"udg300", gen.UDG2D(300, 0.07, 3).G, []pair{{0, 247}, {0, 1}, {17, 140}}, []int64{0, 37, 256, 1000}},
		{"route_long", gen.UDG2D(1024, 0.06, 1).G, []pair{{0, 1000}, {517, 3}}, []int64{0, 1000}},
	}
	ev := &hopEvidence{h: sha256.New()}
	for _, gc := range graphs {
		for _, nocert := range []bool{false, true} {
			r, err := route.New(gc.g, route.Config{Seed: 7, DisableCertificates: nocert})
			if err != nil {
				t.Fatal(err)
			}
			for _, ring := range []int{1, 7, 256, 1000} {
				tc := trace.New(trace.Config{SampleRate: 1, HopRing: ring})
				for _, p := range gc.pairs {
					for _, budget := range gc.budgets {
						label := fmt.Sprintf("%s nocert %t ring %d %d->%d budget %d", gc.name, nocert, ring, p.s, p.t, budget)
						ev.walk(t, tc, label, func(ctx context.Context, cur *route.Cursor) (*route.Cursor, error) {
							res, err := r.RouteBudgeted(ctx, p.s, p.t, budget, cur)
							if err != nil {
								return nil, err
							}
							return res.Cursor, nil
						})
					}
				}
			}
		}
	}
	got := hex.EncodeToString(ev.h.Sum(nil))
	t.Logf("%d walks in %d segments: %d spans, %d retained hops", ev.walks, ev.parts, ev.spans, ev.hops)
	if got != jumpEvidenceDigest {
		t.Fatalf("hop evidence digest %s, want %s", got, jumpEvidenceDigest)
	}
}
