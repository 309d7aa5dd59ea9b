package adhocroute

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/count"
	"repro/internal/netsim"
	"repro/internal/route"
)

func buildPath(t *testing.T, n int) *Network {
	t.Helper()
	nw := NewNetwork()
	for i := 0; i < n; i++ {
		if err := nw.AddNode(NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n-1; i++ {
		if err := nw.AddLink(NodeID(i), NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	return nw
}

func TestStatusMirrorsInternal(t *testing.T) {
	if !statusMirror {
		t.Fatal("public Status constants diverged from netsim")
	}
	if StatusSuccess.String() != "success" || StatusFailure.String() != "failure" ||
		StatusNone.String() != "none" || Status(77).String() == "" {
		t.Fatal("status strings wrong")
	}
}

func TestNetworkBuilding(t *testing.T) {
	nw := buildPath(t, 5)
	if nw.NumNodes() != 5 || nw.NumLinks() != 4 {
		t.Fatalf("sizes = %d/%d", nw.NumNodes(), nw.NumLinks())
	}
	if err := nw.AddNode(0); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("duplicate error = %v", err)
	}
	if err := nw.AddLink(0, 99); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("missing-node error = %v", err)
	}
	ns, err := nw.Neighbors(1)
	if err != nil || len(ns) != 2 {
		t.Fatalf("Neighbors(1) = %v, %v", ns, err)
	}
	if _, err := nw.Neighbors(99); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("neighbors error = %v", err)
	}
	if got := nw.Nodes(); len(got) != 5 || got[0] != 0 {
		t.Fatalf("Nodes = %v", got)
	}
}

func TestSetPosition(t *testing.T) {
	nw := buildPath(t, 2)
	if err := nw.SetPosition(0, 1, 2, 3); err != nil {
		t.Fatal(err)
	}
	if err := nw.SetPosition(9, 0, 0, 0); !errors.Is(err, ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestRoutePublicAPI(t *testing.T) {
	nw := buildPath(t, 8)
	res, err := nw.Route(0, 7, WithSeed(42))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSuccess {
		t.Fatalf("status = %v", res.Status)
	}
	if res.Hops <= 0 || res.ForwardSteps <= 0 || res.Rounds <= 0 {
		t.Fatalf("accounting = %+v", res)
	}
	if res.HeaderBits <= 0 || res.NodeMemoryBits <= 0 {
		t.Fatalf("resource metrics missing: %+v", res)
	}
}

func TestRouteFailureVerdict(t *testing.T) {
	nw := buildPath(t, 4)
	// Node 100 exists in a separate component.
	if err := nw.AddNode(100); err != nil {
		t.Fatal(err)
	}
	res, err := nw.Route(0, 100, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailure {
		t.Fatalf("status = %v, want failure", res.Status)
	}
	// Unknown names also terminate with failure.
	res, err = nw.Route(0, 123456, WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusFailure {
		t.Fatalf("unknown target status = %v", res.Status)
	}
}

func TestBroadcastPublicAPI(t *testing.T) {
	nw := buildPath(t, 6)
	res, err := nw.Broadcast(2, WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 6 || len(res.Nodes) != 6 {
		t.Fatalf("broadcast = %+v", res)
	}
}

func TestCountComponentPublicAPI(t *testing.T) {
	nw := buildPath(t, 7)
	res, err := nw.CountComponent(3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 7 {
		t.Fatalf("count = %d, want 7", res.Count)
	}
	if res.ReducedCount < res.Count {
		t.Fatalf("reduced count %d < original %d", res.ReducedCount, res.Count)
	}
	if res.MessageHops != 0 {
		t.Fatal("local mode should not report hops")
	}
}

func TestCountMessageFaithful(t *testing.T) {
	nw := buildPath(t, 2)
	res, err := nw.CountComponent(0, WithSeed(5),
		WithMessageFaithfulCounting(), WithLengthFactor(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != 2 {
		t.Fatalf("count = %d", res.Count)
	}
	if res.MessageHops == 0 {
		t.Fatal("message-faithful mode must report hops")
	}
}

func TestRouteHybridPublicAPI(t *testing.T) {
	nw := buildPath(t, 10)
	res, err := nw.RouteHybrid(0, 9, WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSuccess || res.Winner == "" {
		t.Fatalf("hybrid = %+v", res)
	}
}

func TestCountThenRouteWithKnownBound(t *testing.T) {
	// The §4 workflow: count the component, then route with a known bound
	// in a single round.
	nw := buildPath(t, 9)
	cnt, err := nw.CountComponent(0, WithSeed(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := nw.Route(0, 8, WithSeed(11), WithKnownBound(cnt.ReducedCount))
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSuccess || res.Rounds != 1 {
		t.Fatalf("known-bound route = %+v", res)
	}
}

func TestWithoutDegreeReduction(t *testing.T) {
	nw := buildPath(t, 6)
	res, err := nw.Route(0, 5, WithSeed(2), WithoutDegreeReduction())
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != StatusSuccess {
		t.Fatalf("ablation status = %v", res.Status)
	}
}

func TestGenerators(t *testing.T) {
	ud2 := NewUnitDisk2D(30, 0.3, 7)
	if ud2.NumNodes() != 30 {
		t.Fatal("2D generator size wrong")
	}
	ud3 := NewUnitDisk3D(30, 0.4, 7)
	if ud3.NumNodes() != 30 {
		t.Fatal("3D generator size wrong")
	}
	gr := NewGrid(3, 5)
	if gr.NumNodes() != 15 || gr.NumLinks() != 22 {
		t.Fatalf("grid = %d/%d", gr.NumNodes(), gr.NumLinks())
	}
	if !gr.ConnectedTo(0, 14) {
		t.Fatal("grid should be connected")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	nw := buildPath(t, 5)
	var buf bytes.Buffer
	if err := nw.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != 5 || got.NumLinks() != 4 {
		t.Fatal("round trip changed the network")
	}
	res, err := got.Route(0, 4, WithSeed(1))
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("route on loaded network: %+v, %v", res, err)
	}
}

func TestRouteDisconnectedAndConnectedMatchOracle(t *testing.T) {
	// Route's verdict must agree with the BFS oracle on every pair of a
	// mixed network.
	nw := NewNetwork()
	for i := 0; i < 9; i++ {
		if err := nw.AddNode(NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Component A: 0-1-2-3; component B: 4-5-6; isolated: 7, 8.
	links := [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}}
	for _, l := range links {
		if err := nw.AddLink(l[0], l[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range nw.Nodes() {
		for _, d := range nw.Nodes() {
			res, err := nw.Route(s, d, WithSeed(13))
			if err != nil {
				t.Fatalf("route %d->%d: %v", s, d, err)
			}
			want := StatusFailure
			if nw.ConnectedTo(s, d) {
				want = StatusSuccess
			}
			if res.Status != want {
				t.Fatalf("route %d->%d = %v, oracle says %v", s, d, res.Status, want)
			}
		}
	}
}

// errOf keeps only the error of a (result, error) call.
func errOf(_ any, err error) error { return err }

// TestWithMaxBound pins the doubling cap: s's component in a 6×6 grid
// needs a bound above 4, so with the cap at 4 Route and Broadcast stop
// with route.ErrSequenceExhausted and CountComponent with
// count.ErrBoundCap instead of a verdict, one-shot and compiled alike.
func TestWithMaxBound(t *testing.T) {
	nw := NewGrid(6, 6)
	opts := []Option{WithSeed(3), WithMaxBound(4)}
	r, err := nw.Compile(opts...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		err, want error
	}{
		{"Route", errOf(nw.Route(0, 35, opts...)), route.ErrSequenceExhausted},
		{"Broadcast", errOf(nw.Broadcast(0, opts...)), route.ErrSequenceExhausted},
		{"CountComponent", errOf(nw.CountComponent(0, opts...)), count.ErrBoundCap},
		{"Router.Route", errOf(r.Route(0, 35)), route.ErrSequenceExhausted},
		{"Router.Broadcast", errOf(r.Broadcast(0)), route.ErrSequenceExhausted},
		{"Router.CountComponent", errOf(r.CountComponent(0)), count.ErrBoundCap},
	} {
		if !errors.Is(c.err, c.want) {
			t.Errorf("%s: err %v, want %v", c.name, c.err, c.want)
		}
	}
}

// TestWithMemoryBudget pins the enforced per-activation node memory
// budget. A 6×6 grid walk needs 17 bits at node 2, so a 16-bit budget
// fails Route and Broadcast with netsim.ErrMemoryExceeded, one-shot and
// compiled alike, while a generous budget leaves the default result
// untouched.
func TestWithMemoryBudget(t *testing.T) {
	nw := NewGrid(6, 6)
	tight := []Option{WithSeed(3), WithMemoryBudget(16)}
	r, err := nw.Compile(tight...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"Route", errOf(nw.Route(0, 35, tight...))},
		{"Broadcast", errOf(nw.Broadcast(0, tight...))},
		{"Router.Route", errOf(r.Route(0, 35))},
		{"Router.Broadcast", errOf(r.Broadcast(0))},
	} {
		if !errors.Is(c.err, netsim.ErrMemoryExceeded) {
			t.Errorf("%s: err %v, want %v", c.name, c.err, netsim.ErrMemoryExceeded)
		} else if msg := c.err.Error(); !strings.Contains(msg, "handler at 2:") || !strings.Contains(msg, "17 bits used, budget 16") {
			t.Errorf("%s: meter reports %q, want 17 bits used at node 2", c.name, msg)
		}
	}

	want := RouteResult{Status: StatusSuccess, Hops: 1358, ForwardSteps: 429, Rounds: 2, Bound: 8, HeaderBits: 40, NodeMemoryBits: 34}
	loose, err := nw.Compile(WithSeed(3), WithMemoryBudget(1<<16))
	if err != nil {
		t.Fatal(err)
	}
	for name, run := range map[string]func() (*RouteResult, error){
		"default":        func() (*RouteResult, error) { return nw.Route(0, 35, WithSeed(3)) },
		"one-shot 1<<16": func() (*RouteResult, error) { return nw.Route(0, 35, WithSeed(3), WithMemoryBudget(1<<16)) },
		"compiled 1<<16": func() (*RouteResult, error) { return loose.Route(0, 35) },
	} {
		res, err := run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if *res != want {
			t.Errorf("%s: %+v, want %+v", name, *res, want)
		}
	}
}
