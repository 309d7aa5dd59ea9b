package flatgraph_test

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ues"
)

// hop is one hop of a walk, as the state it left the walk in.
type hop struct {
	node     graph.NodeID
	index    int64
	backward bool
}

// recorder returns a hop sink that appends to *hops.
func recorder(hops *[]hop) flatgraph.HopSink {
	return func(node graph.NodeID, index int64, backward bool) {
		*hops = append(*hops, hop{node, index, backward})
	}
}

// ignoreHops is the sink of a rewind whose hops a test does not check.
func ignoreHops(graph.NodeID, int64, bool) {}

// stepHops steps a copy of st on f one activation at a time to the end of
// its round. It returns the hops the walk made, each read from the stepper
// after it, and the stepper at every stop: stops[k] stands where the walk
// stood after k hops, and the last one is the ended round. A Step never
// computes the walk back, which is at least one hop long.
func stepHops(t *testing.T, f *flatgraph.Graph, st flatgraph.RouteStepper) ([]hop, []flatgraph.RouteStepper) {
	t.Helper()
	var hops []hop
	stops := []flatgraph.RouteStepper{st}
	for !st.Step() {
		node, _ := st.Position()
		hops = append(hops, hop{f.OriginalOf(node), st.Index(), st.Backward()})
		stops = append(stops, st)
	}
	if st.Err() != nil || st.Computed() != 0 || st.Hops() != int64(len(hops)) {
		t.Fatalf("stepped round ended with err %v, %d computed hops, %d hops for %d recorded",
			st.Err(), st.Computed(), st.Hops(), len(hops))
	}
	stops[len(stops)-1] = st
	return hops, stops
}

// state is a stepper's walk state without its metering.
type state struct {
	node, inPort      int32
	index             int64
	backward, success bool
}

func stateOf(st *flatgraph.RouteStepper) state {
	node, inPort := st.Position()
	return state{node, inPort, st.Index(), st.Backward(), st.Success()}
}

// checkRewind rewinds a copy of st by j hops and checks that it reported
// the recorded hops, newest first, and stands where the walk stood j hops
// earlier (want); Run(j) then ends where st stands.
func checkRewind(t *testing.T, label string, st flatgraph.RouteStepper, j int64, want state, hops []hop) {
	t.Helper()
	end, total := stateOf(&st), st.Hops()
	var back []hop
	st.Rewind(j, recorder(&back))
	slices.Reverse(back)
	if !slices.Equal(back, hops) {
		t.Fatalf("%s: Rewind(%d) reported %v newest first, want %v oldest first", label, j, back, hops)
	}
	if got := stateOf(&st); got != want {
		t.Fatalf("%s: Rewind(%d) stands at %+v, want %+v", label, j, got, want)
	}
	st.Run(j)
	if got := stateOf(&st); got != end || st.Hops() != total {
		t.Fatalf("%s: Run(%d) after Rewind(%d) ends at %+v after %d hops, want %+v after %d",
			label, j, j, got, st.Hops(), end, total)
	}
}

// TestRewindReplaysHops steps whole route rounds — one that finds its
// destination and one that runs out of sequence — and checks Rewind at
// every stop k and several j ≤ k: it reports hops k−1..k−j, newest first,
// and stands where the walk stood at k−j, and Run(j) ends where the rewind
// began. Stops in the backward phase rewind across the turnaround, the
// last stop rewinds a delivered round, and steppers armed partway along
// the forward walk rewind past where they were armed. Every rewound
// forward hop is also checked against the reference inverse ues.StepBack
// on the work graph.
func TestRewindReplaysHops(t *testing.T) {
	g := gen.Grid(4, 4)
	g.ShuffleLabels(2)
	red, f := compileReduced(t, g)
	rg := red.Graph()
	entryID, _ := red.Entry(0)
	entry, _ := f.Index(entryID)
	seq := flatgraph.Seq{Seed: 3, Base: 3, Length: 300}

	// The found round's destination: the first original node the walk
	// reaches past a third of the sequence.
	var probe flatgraph.RouteStepper
	if err := probe.Reset(f, entry, 0, 0, 9999, seq, 1, false, false); err != nil {
		t.Fatal(err)
	}
	fwd, _ := stepHops(t, f, probe)
	fwd = fwd[:seq.Length]
	dst := graph.NodeID(-1)
	for i, h := range fwd {
		if i >= seq.Length/3 && !slices.ContainsFunc(fwd[:i], func(e hop) bool { return e.node == h.node }) {
			dst = h.node
			break
		}
	}
	if dst < 0 {
		t.Fatal("the forward walk reaches no new node past a third of the sequence")
	}

	for _, dst := range []graph.NodeID{dst, 9999} {
		var st flatgraph.RouteStepper
		if err := st.Reset(f, entry, 0, 0, dst, seq, 1, false, false); err != nil {
			t.Fatal(err)
		}
		hops, steppers := stepHops(t, f, st)
		if end := steppers[len(steppers)-1]; end.Success() != (dst != 9999) {
			t.Fatalf("dst %d: success %v after %d hops", dst, end.Success(), end.Hops())
		}
		turned := false
		for k := range steppers {
			sk := steppers[k]
			for _, j := range []int{1, 2, 3, 7, 64, k} {
				if j <= k {
					checkRewind(t, fmt.Sprintf("dst %d stop %d", dst, k), sk, int64(j), stateOf(&steppers[k-j]), hops[k-j:k])
				}
			}
			s := stateOf(&sk)
			if s.backward {
				turned = true
				continue
			}
			if k > 0 {
				// The forward hop into stop k, undone by the reference inverse.
				back, err := ues.StepBack(rg, ues.Position{Node: graph.NodeID(s.node), InPort: int(s.inPort)}, seq.At(int(s.index-1)))
				if err != nil {
					t.Fatal(err)
				}
				prev := sk
				prev.Rewind(1, ignoreHops)
				if node, inPort := prev.Position(); graph.NodeID(node) != back.Node || int(inPort) != back.InPort {
					t.Fatalf("dst %d stop %d: rewound to (%d,%d), ues.StepBack to (%d,%d)",
						dst, k, node, inPort, back.Node, back.InPort)
				}
			}
			if k == 0 || k%17 != 0 {
				continue
			}
			// Armed at stop k: rewind from later stops to before k.
			var armed flatgraph.RouteStepper
			if err := armed.Reset(f, s.node, s.inPort, 0, dst, seq, s.index, false, false); err != nil {
				t.Fatal(err)
			}
			for m := k; m < len(steppers); m += 23 {
				at := armed
				at.Run(int64(m - k))
				for _, j := range []int{m - k + 1, m - k + 16, m} {
					if j <= m {
						checkRewind(t, fmt.Sprintf("dst %d armed %d stop %d", dst, k, m), at, int64(j), stateOf(&steppers[m-j]), hops[m-j:m])
					}
				}
			}
		}
		if !turned {
			t.Fatalf("dst %d: the round never turned around", dst)
		}
	}
}

// FuzzRewind steps a route round on a random unit-disk graph toward a
// destination that may be absent, stops a second run of it at hop k, and
// checks that Rewind(j) for j ≤ k reports the stepped hops k−1..k−j,
// newest first, and stands where the walk stood at k−j, and that Run(j)
// then ends where the rewind began.
func FuzzRewind(f *testing.F) {
	f.Add(uint64(1), uint64(3), uint16(5), uint16(40), uint16(40))
	f.Add(uint64(7), uint64(9), uint16(999), uint16(500), uint16(120))
	f.Add(uint64(12), uint64(300), uint16(0), uint16(1), uint16(1))
	f.Add(uint64(33), uint64(77), uint16(20), uint16(65535), uint16(700))
	f.Fuzz(func(t *testing.T, graphSeed, seqSeed uint64, dst, k, j uint16) {
		n := 8 + int(graphSeed%40)
		red, fg := compileReduced(t, gen.UDG2D(n, 0.3, graphSeed).G)
		entryID, _ := red.Entry(0)
		entry, _ := fg.Index(entryID)
		seq := flatgraph.Seq{Seed: seqSeed, Base: 3, Length: 1 + int(seqSeed%400)}
		var st flatgraph.RouteStepper
		if err := st.Reset(fg, entry, 0, 0, graph.NodeID(int(dst)%(n+4)), seq, 1, false, false); err != nil {
			t.Fatal(err)
		}
		hops, _ := stepHops(t, fg, st)
		stop := int64(k) % int64(len(hops)+1)
		back := int64(j) % (stop + 1)
		at := st
		at.Run(stop - back)
		st.Run(stop)
		checkRewind(t, fmt.Sprintf("stop %d of %d", stop, len(hops)), st, back, stateOf(&at), hops[stop-back:stop])
	})
}
