package route

// flatdiff_test.go is the correctness gate of the compiled flat walk core:
// on random labeled multigraphs (self-loops, parallel edges, isolated
// nodes, shuffled port labels), the flat walker and the netsim reference
// engine must produce identical traces, hop counts, verdicts, and resource
// statistics. DisableFlat pins the reference path; the default path rides
// the flat walker whenever eligible.

import (
	"reflect"
	"testing"

	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
)

// randomMultigraph builds an arbitrary port-labeled multigraph: n nodes
// with non-contiguous IDs, n+extra random edges (self-loops and parallel
// edges included, some nodes possibly isolated), and adversarially
// shuffled labels.
func randomMultigraph(seed uint64, n, extra int) *graph.Graph {
	src := prng.New(seed)
	g := graph.New()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i*3 + 1)
		g.EnsureNode(ids[i])
	}
	for e := 0; e < n+extra; e++ {
		u := ids[src.Intn(n)]
		v := ids[src.Intn(n)]
		if _, _, err := g.AddEdge(u, v); err != nil {
			panic(err)
		}
	}
	g.ShuffleLabels(seed ^ 0xabcd)
	return g
}

// diffRoute routes s→t on both execution paths and fails the test on any
// divergence in outcome or statistics.
func diffRoute(t *testing.T, g *graph.Graph, cfg Config, s, dst graph.NodeID) {
	t.Helper()
	slowCfg := cfg
	slowCfg.DisableFlat = true
	fast, err := New(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.flat == nil {
		t.Fatal("fast router has no flat snapshot")
	}
	slow, err := New(g, slowCfg)
	if err != nil {
		t.Fatal(err)
	}
	rf, ef := fast.Route(s, dst)
	rs, es := slow.Route(s, dst)
	if (ef == nil) != (es == nil) {
		t.Fatalf("route %d->%d: flat err %v, reference err %v", s, dst, ef, es)
	}
	if ef != nil {
		return
	}
	if !reflect.DeepEqual(rf, rs) {
		t.Fatalf("route %d->%d diverged:\nflat:      %+v\nreference: %+v", s, dst, rf, rs)
	}
}

// TestFlatRouteMatchesReference is the property test over random labeled
// multigraphs: identical Route results — verdict, hops, forward steps,
// bound schedule, per-round statistics, header and memory metering — on
// reachable targets, unreachable targets, and absent targets.
func TestFlatRouteMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 14; seed++ {
		g := randomMultigraph(seed, 8+int(seed%6), int(seed%8))
		nodes := g.SortedNodes()
		cfg := Config{Seed: seed, LengthFactor: 1}
		diffRoute(t, g, cfg, nodes[0], nodes[len(nodes)-1])
		diffRoute(t, g, cfg, nodes[len(nodes)/2], nodes[1])
		diffRoute(t, g, cfg, nodes[0], graph.NodeID(999983)) // absent target
		// Known-bound single round.
		red, err := degred.Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		kcfg := Config{Seed: seed, LengthFactor: 1, KnownN: red.Graph().NumNodes()}
		diffRoute(t, g, kcfg, nodes[0], nodes[len(nodes)-1])
	}
}

// TestFlatBroadcastMatchesReference checks broadcast parity: identical
// reached sets, hop totals, round schedules, and statistics, under the
// doubling schedule, a promised bound, a steeper growth factor, and wire
// format (which instruments only the reference run: the flat walker has no
// wire to round-trip).
func TestFlatBroadcastMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomMultigraph(seed, 7+int(seed%5), int(seed%6))
		s := g.SortedNodes()[0]
		red, err := degred.Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range []Config{
			{},
			{KnownN: red.Graph().NumNodes()},
			{GrowthFactor: 4},
			{WireFormat: true},
		} {
			cfg.Seed, cfg.LengthFactor = seed, 1
			flatCfg, refCfg := cfg, cfg
			flatCfg.WireFormat, refCfg.DisableFlat = false, true
			fast, err := New(g, flatCfg)
			if err != nil {
				t.Fatal(err)
			}
			slow, err := New(g, refCfg)
			if err != nil {
				t.Fatal(err)
			}
			bf, ef := fast.Broadcast(s)
			bs, es := slow.Broadcast(s)
			if (ef == nil) != (es == nil) {
				t.Fatalf("%+v: broadcast from %d: flat err %v, reference err %v", cfg, s, ef, es)
			}
			if ef != nil {
				continue
			}
			if !reflect.DeepEqual(bf, bs) {
				t.Fatalf("%+v: broadcast from %d diverged:\nflat:      %+v\nreference: %+v", cfg, s, bf, bs)
			}
		}
	}
}

// TestFlatStepperMatchesReferenceTrace pins hop-for-hop equality: the
// activation sequence (node, arrival port, header index) of the flat
// stepper must be identical to the reference engine's trace.
func TestFlatStepperMatchesReferenceTrace(t *testing.T) {
	type activation struct {
		node   graph.NodeID
		inPort int
		index  int64
	}
	for seed := uint64(0); seed < 6; seed++ {
		g := randomMultigraph(seed, 6+int(seed%4), int(seed%5))
		nodes := g.SortedNodes()
		s := nodes[0]
		red, err := degred.Reduce(g)
		if err != nil {
			t.Fatal(err)
		}
		bound := red.Graph().NumNodes()
		for _, dst := range []graph.NodeID{nodes[len(nodes)-1], 999983} {
			var ref []activation
			slow, err := New(g, Config{
				Seed: seed, LengthFactor: 1, KnownN: bound,
				// The unreachable-dst case must actually walk for the trace
				// comparison, not be answered by the component certificate.
				DisableCertificates: true,
				Trace: func(hop int64, at graph.NodeID, inPort int, h netsim.Header) {
					ref = append(ref, activation{at, inPort, h.Index})
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := slow.Route(s, dst); err != nil {
				t.Fatal(err)
			}

			fast, err := New(g, Config{Seed: seed, LengthFactor: 1, KnownN: bound})
			if err != nil {
				t.Fatal(err)
			}
			fs, ok := fast.flatSeq(bound)
			if !ok {
				t.Fatal("flat path not eligible")
			}
			start, err := fast.entry(s)
			if err != nil {
				t.Fatal(err)
			}
			si, ok := fast.flat.Index(start)
			if !ok {
				t.Fatalf("entry %d not in snapshot", start)
			}
			var st flatgraph.RouteStepper
			if err := st.Reset(fast.flat, si, 0, s, dst, fs, 1, false, false); err != nil {
				t.Fatal(err)
			}
			var got []activation
			for {
				node, inPort := st.Position()
				got = append(got, activation{graph.NodeID(node), int(inPort), st.Index()})
				if st.Step() {
					break
				}
			}
			if st.Err() != nil {
				t.Fatal(st.Err())
			}
			if len(got) != len(ref) {
				t.Fatalf("seed %d dst %d: %d flat activations, %d reference", seed, dst, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("seed %d dst %d: activation %d diverged: flat %+v, reference %+v",
						seed, dst, i, got[i], ref[i])
				}
			}
		}
	}
}

// TestFlatWalkerMatchesReference drives the steppable Walker (the hybrid
// race's guaranteed prober) to completion on both paths.
func TestFlatWalkerMatchesReference(t *testing.T) {
	for seed := uint64(0); seed < 8; seed++ {
		g := randomMultigraph(seed, 7+int(seed%5), int(seed%4))
		nodes := g.SortedNodes()
		s := nodes[0]
		for _, dst := range []graph.NodeID{nodes[len(nodes)-1], 999983} {
			fast, err := New(g, Config{Seed: seed, LengthFactor: 1})
			if err != nil {
				t.Fatal(err)
			}
			slow, err := New(g, Config{Seed: seed, LengthFactor: 1, DisableFlat: true})
			if err != nil {
				t.Fatal(err)
			}
			wf, ef := fast.Walker(s, dst)
			ws, es := slow.Walker(s, dst)
			if (ef == nil) != (es == nil) {
				t.Fatalf("walker %d->%d: flat err %v, reference err %v", s, dst, ef, es)
			}
			if ef != nil {
				continue
			}
			for steps := 0; ; steps++ {
				df, ds := wf.Step(), ws.Step()
				if df != ds {
					t.Fatalf("walker %d->%d: done diverged after %d steps (flat %v, reference %v)",
						s, dst, steps, df, ds)
				}
				if wf.Hops() != ws.Hops() {
					t.Fatalf("walker %d->%d: hops diverged after %d steps (flat %d, reference %d)",
						s, dst, steps, wf.Hops(), ws.Hops())
				}
				if df {
					break
				}
			}
			if (wf.Err() == nil) != (ws.Err() == nil) {
				t.Fatalf("walker %d->%d: terminal err flat %v, reference %v", s, dst, wf.Err(), ws.Err())
			}
			if wf.Err() == nil && wf.Status() != ws.Status() {
				t.Fatalf("walker %d->%d: status flat %v, reference %v", s, dst, wf.Status(), ws.Status())
			}
		}
	}
}

// FuzzFlatRouteMatchesReference extends the property test under go test
// -fuzz; the seed corpus below runs as part of the ordinary test suite.
func FuzzFlatRouteMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(9), uint8(4), uint8(0), uint8(6))
	f.Add(uint64(7), uint8(5), uint8(9), uint8(2), uint8(1))
	f.Add(uint64(42), uint8(16), uint8(2), uint8(3), uint8(200))
	f.Fuzz(func(t *testing.T, seed uint64, n, extra, srcSel, dstSel uint8) {
		nn := 2 + int(n)%18
		g := randomMultigraph(seed, nn, int(extra)%12)
		nodes := g.SortedNodes()
		s := nodes[int(srcSel)%len(nodes)]
		dst := nodes[int(dstSel)%len(nodes)]
		if dstSel > 250 {
			dst = graph.NodeID(999983) // absent target
		}
		if s == dst {
			return // trivially identical, no walk
		}
		diffRoute(t, g, Config{Seed: seed, LengthFactor: 1}, s, dst)
	})
}
