package flatgraph_test

import (
	"math"
	"testing"

	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ues"
)

// compileReduced reduces g and returns the reduction with its snapshot,
// the way production callers get one.
func compileReduced(t *testing.T, g *graph.Graph) (*degred.Reduced, *flatgraph.Graph) {
	t.Helper()
	red, err := degred.Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	return red, red.Flat()
}

// TestCompileMirrorsGraph checks the snapshot against the graph.Graph the
// reference engine walks: same nodes, degree 3 everywhere, the same
// projection and the same half-edge at every port.
func TestCompileMirrorsGraph(t *testing.T) {
	g := gen.Grid(5, 4)
	g.ShuffleLabels(3)
	red, f := compileReduced(t, g)
	rg := red.Graph()
	if rg == nil {
		t.Fatal("reduction did not materialize its graph")
	}
	if f.NumNodes() != rg.NumNodes() {
		t.Fatalf("nodes: flat %d, graph %d", f.NumNodes(), rg.NumNodes())
	}
	for _, id := range rg.Nodes() {
		i, ok := f.Index(id)
		if !ok || graph.NodeID(i) != id {
			t.Fatalf("Index(%d) = %d, %v", id, i, ok)
		}
		if rg.Degree(id) != 3 {
			t.Fatalf("degree of %d: graph %d, want 3", id, rg.Degree(id))
		}
		o, _ := red.Original(id)
		if f.OriginalOf(i) != o {
			t.Fatalf("original of %d: flat %d, reduction %d", id, f.OriginalOf(i), o)
		}
		for p := 0; p < 3; p++ {
			want, err := rg.Neighbor(id, p)
			if err != nil {
				t.Fatal(err)
			}
			got := f.Half(i, int32(p))
			if graph.NodeID(got.To) != want.To || int(got.Port) != want.ToPort {
				t.Fatalf("half (%d,%d): flat (%d,%d), graph (%d,%d)",
					id, p, got.To, got.Port, want.To, want.ToPort)
			}
		}
	}
	if _, ok := f.Index(graph.NodeID(f.NumNodes())); ok {
		t.Fatal("Index accepted a node past the snapshot")
	}
}

// TestPackAtMaxNodes checks that the largest node a snapshot can hold
// survives the packed port table at every port, and that the table slot
// past its last half-edge, which the stepper's records store, still fits
// an int32.
func TestPackAtMaxNodes(t *testing.T) {
	last := int32(flatgraph.MaxNodes - 1)
	halves := make([]uint32, 3)
	for p := int32(0); p < 3; p++ {
		halves[p] = flatgraph.Half32{To: last, Port: p}.Pack()
	}
	f := flatgraph.New(halves, []graph.NodeID{0})
	for p := int32(0); p < 3; p++ {
		if got, want := f.Half(0, p), (flatgraph.Half32{To: last, Port: p}); got != want {
			t.Fatalf("port %d: packed %+v reads back as %+v", p, want, got)
		}
	}
	if slot := int64(last)*3 + 2 + 1; slot > math.MaxInt32 {
		t.Fatalf("slot %d of the last node overflows int32", slot)
	}
}

// TestStepMatchesUES drives the exported Step primitive against ues.Step on
// the same reduced graph and sequence.
func TestStepMatchesUES(t *testing.T) {
	g := gen.Grid(4, 4)
	g.ShuffleLabels(11)
	red, f := compileReduced(t, g)
	rg := red.Graph()
	seq := &ues.Pseudorandom{Seed: 5, N: rg.NumNodes(), Base: 3}
	pos := ues.Start(0)
	node, _ := f.Index(0)
	inPort := int32(0)
	for i := 1; i <= 5000; i++ {
		next, err := ues.Step(rg, pos, seq.At(i))
		if err != nil {
			t.Fatal(err)
		}
		node, inPort = f.Step(node, inPort, int32(seq.At(i)))
		if graph.NodeID(node) != next.Node || int(inPort) != next.InPort {
			t.Fatalf("step %d: flat (%d,%d), reference (%d,%d)",
				i, node, inPort, next.Node, next.InPort)
		}
		pos = next
	}
}

func TestSeqMatchesUES(t *testing.T) {
	p := &ues.Pseudorandom{Seed: 42, N: 64, Base: 3}
	s := flatgraph.Seq{Seed: 42, Base: 3, Length: p.Len()}
	for _, c := range []struct{ from, n int }{{1, 2000}, {100, 257}} {
		buf := make([]int8, c.n)
		s.Fill(buf, int64(c.from))
		for k, v := range buf {
			if int(v) != p.At(c.from+k) {
				t.Fatalf("Fill from %d, [%d]: %d, want %d", c.from, k, v, p.At(c.from+k))
			}
		}
	}
}

func TestCoverWalkAndClosed(t *testing.T) {
	g := gen.Grid(4, 4)
	_, f := compileReduced(t, g)
	entry := int32(0)
	seq := flatgraph.Seq{Seed: 7, Base: 3, Length: ues.Length(4*f.NumNodes(), 0)}
	visited := make([]bool, f.NumNodes())
	order, err := f.CoverWalk(entry, seq, visited, make([]int32, 0, f.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, v := range visited {
		if v {
			count++
		}
	}
	if count != len(order) {
		t.Fatalf("visited %d nodes but order has %d", count, len(order))
	}
	if order[0] != entry {
		t.Fatalf("order starts at %d, want %d", order[0], entry)
	}
	// A connected grid's reduction is connected: a long enough walk covers
	// it and the visited set is closed.
	if count != f.NumNodes() {
		t.Fatalf("covered %d of %d nodes", count, f.NumNodes())
	}
	if !f.Closed(visited) {
		t.Fatal("full visited set reported not closed")
	}
	visited[0] = false
	if f.Closed(visited) {
		t.Fatal("punctured visited set reported closed")
	}
}

// TestWalkRejectsIrregular checks that the flat walks refuse a sequence
// whose alphabet is not base 3: their mod-3 step would otherwise leave
// through a port the 3-regular snapshot does not have.
func TestWalkRejectsIrregular(t *testing.T) {
	_, f := compileReduced(t, gen.Cycle(5))
	seq := flatgraph.Seq{Seed: 1, Base: 0, Length: 100}
	if _, err := f.RouteWalk(0, 0, 1, seq); err != flatgraph.ErrNotRegular {
		t.Fatalf("RouteWalk with a base-0 sequence: %v", err)
	}
	if _, err := f.CoverWalk(0, seq, make([]bool, f.NumNodes()), nil); err != flatgraph.ErrNotRegular {
		t.Fatalf("CoverWalk with a base-0 sequence: %v", err)
	}
	var st flatgraph.RouteStepper
	if err := st.Reset(f, 0, 0, 0, 1, seq, 1, false, false); err != flatgraph.ErrNotRegular {
		t.Fatalf("RouteStepper.Reset with a base-0 sequence: %v", err)
	}
}

// TestRouteWalkFindsTarget checks the basic verdicts on a connected graph:
// success toward a present node, failure toward an absent one.
func TestRouteWalkFindsTarget(t *testing.T) {
	g := gen.Grid(4, 4)
	red, f := compileReduced(t, g)
	entryID, _ := red.Entry(0)
	entry, _ := f.Index(entryID)
	seq := flatgraph.Seq{Seed: 7, Base: 3, Length: ues.Length(4*f.NumNodes(), 0)}
	out, err := f.RouteWalk(entry, 0, 15, seq)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Success || out.Hops <= 0 || out.MaxIndex <= 0 || out.PeakMemoryBits <= 0 {
		t.Fatalf("success walk: %+v", out)
	}
	out, err = f.RouteWalk(entry, 0, 9999, seq)
	if err != nil {
		t.Fatal(err)
	}
	if out.Success {
		t.Fatal("walk to absent node succeeded")
	}
	if out.MaxIndex != int64(seq.Length)+1 {
		t.Fatalf("failure MaxIndex = %d, want %d", out.MaxIndex, seq.Length+1)
	}
}

// TestStepperMatchesWalk drives the stepper to completion one activation
// at a time and checks it agrees with the one-shot walk on its whole
// RouteOutcome — verdict, hops, delivered index, max index, and the
// memory-metering peak — on both a reachable and an unreachable
// destination.
func TestStepperMatchesWalk(t *testing.T) {
	g := gen.Grid(4, 4)
	g.ShuffleLabels(2)
	red, f := compileReduced(t, g)
	entryID, _ := red.Entry(0)
	entry, _ := f.Index(entryID)
	seq := flatgraph.Seq{Seed: 3, Base: 3, Length: ues.Length(4*f.NumNodes(), 0)}
	for _, dst := range []graph.NodeID{15, 9999} {
		want, err := f.RouteWalk(entry, 0, dst, seq)
		if err != nil {
			t.Fatal(err)
		}
		var st flatgraph.RouteStepper
		if err := st.Reset(f, entry, 0, 0, dst, seq, 1, false, false); err != nil {
			t.Fatal(err)
		}
		steps := 0
		for !st.Step() {
			steps++
			if int64(steps) > 4*int64(seq.Length)+16 {
				t.Fatal("stepper did not terminate")
			}
		}
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		if got := st.Outcome(); got != want {
			t.Fatalf("dst %d: stepper outcome %+v, walk %+v", dst, got, want)
		}
	}
}
