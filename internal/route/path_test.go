package route

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

func TestRouteWithPathEndpoints(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{name: "path", g: gen.Path(8), s: 0, d: 7},
		{name: "grid", g: gen.Grid(4, 4), s: 0, d: 15},
		{name: "petersen", g: gen.Petersen(), s: 1, d: 8},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.g, Config{Seed: 7})
			res, path, err := r.RouteWithPath(tt.s, tt.d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != netsim.StatusSuccess {
				t.Fatalf("status = %v", res.Status)
			}
			if len(path) < 2 {
				t.Fatalf("path too short: %v", path)
			}
			if path[0] != tt.s || path[len(path)-1] != tt.d {
				t.Fatalf("path endpoints = %d..%d, want %d..%d",
					path[0], path[len(path)-1], tt.s, tt.d)
			}
		})
	}
}

// TestPathIsWalkInOriginalGraph verifies every consecutive pair of the
// reconstructed path is an edge of the original graph (gadget-internal
// moves collapse to nothing).
func TestPathIsWalkInOriginalGraph(t *testing.T) {
	g := gen.Grid(4, 5)
	r := newRouter(t, g, Config{Seed: 11})
	res, path, err := r.RouteWithPath(0, 19)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatal("route failed")
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("path step %d: (%d,%d) is not an edge", i, path[i-1], path[i])
		}
	}
}

func TestRouteWithPathSelf(t *testing.T) {
	r := newRouter(t, gen.Cycle(4), Config{Seed: 1})
	res, path, err := r.RouteWithPath(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess || len(path) != 1 || path[0] != 2 {
		t.Fatalf("self path = %v", path)
	}
}

func TestRouteWithPathFailure(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(4), gen.Cycle(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, u, Config{Seed: 3})
	res, path, err := r.RouteWithPath(0, 51)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure || path != nil {
		t.Fatalf("failure should carry no path: %v, %v", res.Status, path)
	}
}

func TestPathOfBounds(t *testing.T) {
	r := newRouter(t, gen.Cycle(5), Config{Seed: 1})
	if _, err := r.PathOf(0, 8, -1); err == nil {
		t.Fatal("negative steps accepted")
	}
	if _, err := r.PathOf(0, 8, 1<<40); err == nil {
		t.Fatal("overlong steps accepted")
	}
	if _, err := r.PathOf(99, 8, 1); err == nil {
		t.Fatal("missing source accepted")
	}
}

func TestPathRestartModeAgrees(t *testing.T) {
	// ForwardSteps reconstruction differs between confirmation modes; the
	// replayed path must end at t in both.
	g := gen.Grid(3, 4)
	for _, mode := range []ConfirmMode{ConfirmBacktrack, ConfirmRestart} {
		r := newRouter(t, g, Config{Seed: 13, Confirm: mode})
		res, path, err := r.RouteWithPath(0, 11)
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if res.Status != netsim.StatusSuccess {
			t.Fatalf("mode %d failed", mode)
		}
		if path[len(path)-1] != 11 {
			t.Fatalf("mode %d: path ends at %d, want 11", mode, path[len(path)-1])
		}
	}
}

// TestPathAblationMode checks path reconstruction without degree reduction.
func TestPathAblationMode(t *testing.T) {
	g := gen.Grid(3, 3)
	r := newRouter(t, g, Config{Seed: 5, NoDegreeReduction: true})
	res, path, err := r.RouteWithPath(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatal("route failed")
	}
	if path[0] != 0 || path[len(path)-1] != 8 {
		t.Fatalf("path endpoints wrong: %v", path)
	}
	for i := 1; i < len(path); i++ {
		if !g.HasEdge(path[i-1], path[i]) {
			t.Fatalf("non-edge in path: (%d,%d)", path[i-1], path[i])
		}
	}
}

// TestPathOfReplaysFlat checks the path replay on the flat snapshot: it
// reconstructs the same paths as the reference replay on the work graph
// (DisableFlat), and a first RouteWithPath on a 64x64 grid materializes
// no G′ graph, which costs tens of thousands of allocations.
func TestPathOfReplaysFlat(t *testing.T) {
	udg := gen.UDG2D(200, 0.15, 4).G
	tests := []struct {
		name string
		g    *graph.Graph
		s    graph.NodeID
		ds   []graph.NodeID
	}{
		{name: "path", g: gen.Path(8), s: 0, ds: []graph.NodeID{7}},
		{name: "grid", g: gen.Grid(4, 5), s: 0, ds: []graph.NodeID{15, 19}},
		{name: "petersen", g: gen.Petersen(), s: 1, ds: []graph.NodeID{8}},
		{name: "udg", g: udg, s: 0, ds: []graph.NodeID{17, 99, 150, 199}},
	}
	for _, tt := range tests {
		flat := newRouter(t, tt.g, Config{Seed: 7})
		ref := newRouter(t, tt.g, Config{Seed: 7, DisableFlat: true})
		if !flat.flatPath() || ref.flatPath() {
			t.Fatalf("%s: flat router runs flat %v, reference %v", tt.name, flat.flatPath(), ref.flatPath())
		}
		for _, d := range tt.ds {
			_, got, err := flat.RouteWithPath(tt.s, d)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := ref.RouteWithPath(tt.s, d)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s %d->%d: flat path %v, reference path %v", tt.name, tt.s, d, got, want)
			}
		}
	}

	r := newRouter(t, gen.Grid(64, 64), Config{Seed: 1})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, path, err := r.RouteWithPath(0, 4095)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess || path[len(path)-1] != 4095 {
		t.Fatalf("64x64 grid: status %v, path ends at %d", res.Status, path[len(path)-1])
	}
	if n := after.Mallocs - before.Mallocs; n > 200 {
		t.Fatalf("first RouteWithPath on a 64x64 grid allocated %d times, want at most 200", n)
	}
}
