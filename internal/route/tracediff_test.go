package route

// tracediff_test.go pins the tracing contract: a traced route runs on the
// compiled flat path (the flat stepper feeding a hop sink, never the netsim
// fallback) and returns a Result bit-for-bit identical to the untraced
// one — verdict, hops, forward steps, round schedule, header and memory
// metering — while the span tree captures every hop of every round.

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/trace"
)

// diffTraced routes s→dst untraced and traced and fails on any Result
// divergence; it returns the traced request's exported form.
func diffTraced(t *testing.T, g *graph.Graph, cfg Config, s, dst graph.NodeID) trace.Export {
	t.Helper()
	r, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, errPlain := r.Route(s, dst)

	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.StartRequest("route", "")
	traced, errTraced := r.RouteBudgeted(trace.NewContext(context.Background(), tr.Root()), s, dst, 0, nil)
	tr.Finish()

	if (errPlain == nil) != (errTraced == nil) {
		t.Fatalf("route %d->%d: untraced err %v, traced err %v", s, dst, errPlain, errTraced)
	}
	if errPlain == nil && !reflect.DeepEqual(plain, traced) {
		t.Fatalf("route %d->%d diverged:\nuntraced: %+v\ntraced:   %+v", s, dst, plain, traced)
	}
	kept := tc.Recorder().Find(tr.ID())
	if kept == nil {
		t.Fatalf("route %d->%d: trace not retained", s, dst)
	}
	return kept.Export()
}

// TestTracedRouteMatchesUntraced is the acceptance differential: over
// random labeled multigraphs, tracing changes nothing about the Result,
// every round appears as a flat "route.round" span (no netsim fallback),
// and the spans' hop totals sum to the Result's hop count.
func TestTracedRouteMatchesUntraced(t *testing.T) {
	for seed := uint64(0); seed < 10; seed++ {
		g := randomMultigraph(seed, 8+int(seed%6), int(seed%8))
		nodes := g.SortedNodes()
		cfg := Config{Seed: seed, LengthFactor: 1}
		for _, dst := range []graph.NodeID{nodes[len(nodes)-1], graph.NodeID(999983)} {
			s := nodes[0]
			r, err := New(g, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want, err := r.Route(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			ex := diffTraced(t, g, cfg, s, dst)

			var hops int64
			rounds := 0
			for _, sp := range ex.Spans {
				hops += sp.HopTotal
				if sp.Name == "route.round" {
					rounds++
				}
				for _, ev := range sp.Events {
					if ev.Name == "route.round.netsim" {
						t.Fatalf("seed %d dst %d: traced round fell back to netsim", seed, dst)
					}
				}
			}
			if rounds != len(want.Rounds) {
				t.Fatalf("seed %d dst %d: %d round spans, Result has %d rounds", seed, dst, rounds, len(want.Rounds))
			}
			if hops != want.Hops {
				t.Fatalf("seed %d dst %d: spans recorded %d hops, Result.Hops = %d", seed, dst, hops, want.Hops)
			}
		}
	}
}

// TestTracedRouteHopTail checks the per-hop evidence on an unreachable
// pair: the terminal round's span retains the tail of the walk, with the
// header bits of every retained hop matching the reference serialization
// at that hop's index.
func TestTracedRouteHopTail(t *testing.T) {
	g := randomMultigraph(3, 10, 4)
	nodes := g.SortedNodes()
	// Certificates are disabled so the unreachable pair walks its budget
	// and leaves per-hop evidence behind.
	ex := diffTraced(t, g, Config{Seed: 3, LengthFactor: 1, DisableCertificates: true}, nodes[0], graph.NodeID(999983))
	last := ex.Spans[len(ex.Spans)-1]
	if last.Name != "route.round" || last.HopTotal == 0 {
		t.Fatalf("terminal span %+v has no hops", last)
	}
	if int64(len(last.Hops))+last.HopsDropped != last.HopTotal {
		t.Fatalf("hop accounting: kept %d + dropped %d != total %d", len(last.Hops), last.HopsDropped, last.HopTotal)
	}
	for _, h := range last.Hops {
		if h.HeaderBits <= 0 {
			t.Fatalf("hop %+v missing header bits", h)
		}
	}
	// The retained tail must end at the delivery hop (ordinal total-1).
	if lastHop := last.Hops[len(last.Hops)-1]; lastHop.Hop != last.HopTotal-1 || !lastHop.Backward {
		t.Fatalf("tail does not end at the backward delivery hop: %+v", lastHop)
	}
}
