package flatgraph_test

import (
	"testing"

	"repro/internal/degred"
	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/ues"
)

// compileReduced reduces g and compiles the flat snapshot with the gadget
// projection, the way production callers do.
func compileReduced(t *testing.T, g *graph.Graph) (*degred.Reduced, *flatgraph.Graph) {
	t.Helper()
	red, err := degred.Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	f, err := flatgraph.Compile(red.Graph(), func(v graph.NodeID) graph.NodeID {
		o, ok := red.Original(v)
		if !ok {
			return v
		}
		return o
	})
	if err != nil {
		t.Fatal(err)
	}
	return red, f
}

func TestCompileMirrorsGraph(t *testing.T) {
	g := gen.Grid(5, 4)
	g.ShuffleLabels(3)
	red, f := compileReduced(t, g)
	rg := red.Graph()
	if f.NumNodes() != rg.NumNodes() {
		t.Fatalf("nodes: flat %d, graph %d", f.NumNodes(), rg.NumNodes())
	}
	if !f.Regular3() {
		t.Fatal("reduced snapshot not 3-regular")
	}
	for _, id := range rg.Nodes() {
		i, ok := f.Index(id)
		if !ok {
			t.Fatalf("node %d missing from snapshot", id)
		}
		if f.ID(i) != id {
			t.Fatalf("ID(Index(%d)) = %d", id, f.ID(i))
		}
		if int(f.Degree(i)) != rg.Degree(id) {
			t.Fatalf("degree of %d: flat %d, graph %d", id, f.Degree(i), rg.Degree(id))
		}
		o, _ := red.Original(id)
		if f.OriginalOf(i) != o {
			t.Fatalf("original of %d: flat %d, reduction %d", id, f.OriginalOf(i), o)
		}
		for p := 0; p < rg.Degree(id); p++ {
			want, err := rg.Neighbor(id, p)
			if err != nil {
				t.Fatal(err)
			}
			got := f.Half(i, int32(p))
			if f.ID(got.To) != want.To || int(got.Port) != want.ToPort {
				t.Fatalf("half (%d,%d): flat (%d,%d), graph (%d,%d)",
					id, p, f.ID(got.To), got.Port, want.To, want.ToPort)
			}
		}
	}
}

func TestCompileNilAndIdentity(t *testing.T) {
	if _, err := flatgraph.Compile(nil, nil); err == nil {
		t.Fatal("nil graph did not error")
	}
	g := gen.Cycle(6)
	f, err := flatgraph.Compile(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Regular3() {
		t.Fatal("cycle reported 3-regular")
	}
	for i := int32(0); i < int32(f.NumNodes()); i++ {
		if f.OriginalOf(i) != f.ID(i) {
			t.Fatalf("identity projection broken at %d", i)
		}
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
		if f.ID(node) != next.Node || int(inPort) != next.InPort {
			t.Fatalf("step %d: flat (%d,%d), reference (%d,%d)",
				i, f.ID(node), inPort, next.Node, next.InPort)
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

func TestWalkRejectsIrregular(t *testing.T) {
	f, err := flatgraph.Compile(gen.Cycle(5), nil)
	if err != nil {
		t.Fatal(err)
	}
	seq := flatgraph.Seq{Seed: 1, Base: 3, Length: 100}
	if _, err := f.RouteWalk(0, 0, 1, seq); err != flatgraph.ErrNotRegular {
		t.Fatalf("RouteWalk on cycle: %v", err)
	}
	if _, err := f.CoverWalk(0, seq, make([]bool, f.NumNodes()), nil); err != flatgraph.ErrNotRegular {
		t.Fatalf("CoverWalk on cycle: %v", err)
	}
	var st flatgraph.RouteStepper
	if err := st.Reset(f, 0, 0, 0, 1, seq, 1, false, false); err != flatgraph.ErrNotRegular {
		t.Fatalf("RouteStepper.Reset on cycle: %v", err)
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

// TestStepperMatchesWalk drives the stepper to completion and checks it
// agrees with the one-shot walk on verdict and hops.
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
		if st.Success() != want.Success || st.Hops() != want.Hops {
			t.Fatalf("dst %d: stepper (%v, %d hops), walk (%v, %d hops)",
				dst, st.Success(), st.Hops(), want.Success, want.Hops)
		}
	}
}

// TestInstrumentedStepperMatchesWalk pins the instrumented stepper to the
// one-shot walk's full RouteOutcome — verdict, hops, delivered index, max
// index, and the memory-metering peak — on both a reachable and an
// unreachable destination, and checks the hop sink saw every hop.
func TestInstrumentedStepperMatchesWalk(t *testing.T) {
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
		var hops int64
		var lastNode graph.NodeID
		var sawBackward bool
		st.Instrument(func(node graph.NodeID, index int64, backward bool) {
			hops++
			lastNode = node
			sawBackward = sawBackward || backward
		})
		for !st.Step() {
		}
		if st.Err() != nil {
			t.Fatal(st.Err())
		}
		if got := st.Outcome(); got != want {
			t.Fatalf("dst %d: instrumented outcome %+v, walk %+v", dst, got, want)
		}
		if hops != want.Hops {
			t.Fatalf("dst %d: sink saw %d hops, walk took %d", dst, hops, want.Hops)
		}
		if lastNode != 0 {
			t.Fatalf("dst %d: last hop landed on %d, want delivery at source 0", dst, lastNode)
		}
		if !sawBackward {
			t.Fatalf("dst %d: sink never saw the backward phase", dst)
		}
	}
}
