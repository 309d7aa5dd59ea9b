package adhocroute

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func compiledGrid(t *testing.T, rows, cols int, opts ...Option) (*Network, *Router) {
	t.Helper()
	nw := NewGrid(rows, cols)
	r, err := nw.Compile(opts...)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return nw, r
}

// TestCompiledRouterMatchesOneShot checks that a compiled Router and the
// one-shot facade produce identical results of every query kind for the
// same seed — the amortization must be pure caching.
func TestCompiledRouterMatchesOneShot(t *testing.T) {
	nw, r := compiledGrid(t, 5, 5, WithSeed(7))
	same := func(query string, got, want any, gotErr, wantErr error) {
		t.Helper()
		if gotErr != nil || wantErr != nil {
			t.Fatalf("%s: compiled error %v, one-shot error %v", query, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: compiled %+v, one-shot %+v", query, got, want)
		}
	}
	for _, v := range nw.Nodes() {
		got, err := r.Route(0, v)
		want, wantErr := nw.Route(0, v, WithSeed(7))
		same(fmt.Sprintf("Route(0,%d)", v), got, want, err, wantErr)

		got, gotPath, err := r.RouteWithPath(0, v)
		want, wantPath, wantErr := nw.RouteWithPath(0, v, WithSeed(7))
		same(fmt.Sprintf("RouteWithPath(0,%d)", v), got, want, err, wantErr)
		same(fmt.Sprintf("RouteWithPath(0,%d) path", v), gotPath, wantPath, nil, nil)

		gotB, err := r.Broadcast(v)
		wantB, wantErr := nw.Broadcast(v, WithSeed(7))
		same(fmt.Sprintf("Broadcast(%d)", v), gotB, wantB, err, wantErr)

		gotC, err := r.CountComponent(v)
		wantC, wantErr := nw.CountComponent(v, WithSeed(7))
		same(fmt.Sprintf("CountComponent(%d)", v), gotC, wantC, err, wantErr)

		gotH, err := r.RouteHybrid(0, v)
		wantH, wantErr := nw.RouteHybrid(0, v, WithSeed(7))
		same(fmt.Sprintf("RouteHybrid(0,%d)", v), gotH, wantH, err, wantErr)
	}
}

// TestCompiledRouterQueries smoke-tests every query kind on one compiled
// router and the stats accounting.
func TestCompiledRouterQueries(t *testing.T) {
	nw := NewNetwork()
	for i := 0; i < 6; i++ {
		if err := nw.AddNode(NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := nw.AddLink(NodeID(i), NodeID(i+1)); err != nil {
			t.Fatal(err)
		}
	}
	// Node 5 is isolated: routing 0→5 must fail definitively.
	r, err := nw.Compile(WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}

	res, err := r.Route(0, 4)
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("Route(0,4): %+v, %v", res, err)
	}
	res, err = r.Route(0, 5)
	if err != nil || res.Status != StatusFailure {
		t.Fatalf("Route(0,5): %+v, %v", res, err)
	}

	res, path, err := r.RouteWithPath(0, 3)
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("RouteWithPath: %+v, %v", res, err)
	}
	if len(path) == 0 || path[0] != 0 || path[len(path)-1] != 3 {
		t.Fatalf("path: %v", path)
	}

	b, err := r.Broadcast(0)
	if err != nil || b.Reached != 5 {
		t.Fatalf("Broadcast: %+v, %v", b, err)
	}

	c, err := r.CountComponent(0)
	if err != nil || c.Count != 5 {
		t.Fatalf("CountComponent: %+v, %v", c, err)
	}

	h, err := r.RouteHybrid(0, 4)
	if err != nil || h.Status != StatusSuccess {
		t.Fatalf("RouteHybrid: %+v, %v", h, err)
	}

	batch := r.RouteBatch([]BatchQuery{{Src: 0, Dst: 4}, {Src: 1, Dst: 5}})
	if len(batch) != 2 {
		t.Fatalf("batch: %+v", batch)
	}
	if batch[0].Err != nil || batch[0].Result.Status != StatusSuccess {
		t.Fatalf("batch[0]: %+v", batch[0])
	}
	if batch[1].Err != nil || batch[1].Result.Status != StatusFailure {
		t.Fatalf("batch[1]: %+v", batch[1])
	}

	all := r.RouteAll(0, []NodeID{1, 2, 3})
	for _, br := range all {
		if br.Err != nil || br.Result.Status != StatusSuccess {
			t.Fatalf("RouteAll member: %+v", br)
		}
	}

	s := r.Stats()
	if s.Queries == 0 || s.Routes == 0 || s.Broadcasts != 1 || s.Counts != 1 ||
		s.Hybrids != 1 || s.Batches != 2 || s.Errors != 0 {
		t.Fatalf("stats: %+v", s)
	}
	if s.PeakHeaderBits <= 0 || s.Hops <= 0 {
		t.Fatalf("stats totals: %+v", s)
	}
}

// TestCompiledRouterConcurrent issues simultaneous facade queries against
// one compiled Router (run with -race).
func TestCompiledRouterConcurrent(t *testing.T) {
	nw, r := compiledGrid(t, 6, 6, WithSeed(11), WithWorkers(4))
	nodes := nw.Nodes()
	var wg sync.WaitGroup
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res, err := r.Route(0, nodes[(c*7)%len(nodes)])
			if err != nil || res.Status != StatusSuccess {
				t.Errorf("client %d: %+v, %v", c, res, err)
				return
			}
			for _, br := range r.RouteAll(nodes[c%len(nodes)], nodes[:8]) {
				if br.Err != nil || br.Result.Status != StatusSuccess {
					t.Errorf("client %d batch: %+v", c, br)
					return
				}
			}
		}(c)
	}
	wg.Wait()
}

// TestRouterSurvivesMutation: a compiled Router keeps serving its snapshot
// while the Network's own lazy cache is invalidated and rebuilt.
func TestRouterSurvivesMutation(t *testing.T) {
	nw, r := compiledGrid(t, 3, 3, WithSeed(5))
	if err := nw.AddNode(100); err != nil {
		t.Fatal(err)
	}
	if err := nw.AddLink(8, 100); err != nil {
		t.Fatal(err)
	}
	// The compiled router predates node 100: definitive failure there.
	res, err := r.Route(0, 100)
	if err != nil || res.Status != StatusFailure {
		t.Fatalf("stale router Route(0,100): %+v, %v", res, err)
	}
	// The one-shot path sees the new topology.
	res, err = nw.Route(0, 100, WithSeed(5))
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("fresh Route(0,100): %+v, %v", res, err)
	}
	// Recompiling picks up the change.
	r2, err := nw.Compile(WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	res, err = r2.Route(0, 100)
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("recompiled Route(0,100): %+v, %v", res, err)
	}
}

// TestCompileNoDegreeReduction covers the ablation through the facade.
func TestCompileNoDegreeReduction(t *testing.T) {
	_, r := compiledGrid(t, 4, 4, WithSeed(2), WithoutDegreeReduction())
	res, err := r.Route(0, 15)
	if err != nil || res.Status != StatusSuccess {
		t.Fatalf("Route: %+v, %v", res, err)
	}
}
