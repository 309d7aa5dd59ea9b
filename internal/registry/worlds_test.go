package registry

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

func testWorldEntry(t *testing.T, sched dynamic.Schedule) *WorldEntry {
	t.Helper()
	eng, err := engine.Compile(gen.Torus(4, 4), engine.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return &WorldEntry{Eng: eng, W: eng.NewWorld(sched)}
}

// TestWorldLifecycle checks naming, duplicates, capacity, and deletion.
func TestWorldLifecycle(t *testing.T) {
	ws := NewWorlds(2)
	a, err := ws.Create("", testWorldEntry(t, dynamic.Static{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.ID != "w1" {
		t.Fatalf("first generated ID %q, want w1", a.ID)
	}
	// Generated IDs are consecutive, with no gaps from interleaved named
	// creates.
	ws2 := NewWorlds(4)
	for i := 1; i <= 3; i++ {
		e, err := ws2.Create("", testWorldEntry(t, dynamic.Static{}), 1)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("w%d", i); e.ID != want {
			t.Fatalf("generated ID %q, want %s", e.ID, want)
		}
	}
	named, err := ws.Create("sweep-1", testWorldEntry(t, dynamic.Static{}), 1)
	if err != nil {
		t.Fatal(err)
	}
	if named.ID != "sweep-1" {
		t.Fatalf("ID %q, want sweep-1", named.ID)
	}
	if _, err := ws.Create("sweep-1", testWorldEntry(t, dynamic.Static{}), 1); !errors.Is(err, ErrWorldExists) {
		t.Fatalf("duplicate name err = %v", err)
	}
	if _, err := ws.Create("", testWorldEntry(t, dynamic.Static{}), 1); !errors.Is(err, ErrWorldCapacity) {
		t.Fatalf("over-capacity err = %v", err)
	}
	if _, err := ws.Create("no spaces!", testWorldEntry(t, dynamic.Static{}), 1); !errors.Is(err, ErrBadWorldName) {
		t.Fatalf("bad name err = %v", err)
	}
	if !ws.Delete(a.ID) {
		t.Fatal("delete of existing world failed")
	}
	if ws.Delete(a.ID) {
		t.Fatal("double delete succeeded")
	}
	got, ok := ws.Get(named.ID)
	if !ok || got != named {
		t.Fatal("Get lost the named world")
	}
	list := ws.List()
	if len(list) != 1 || list[0] != named {
		t.Fatalf("List: %v", list)
	}
}

// TestMigratedCreateCeiling checks that a client create stops at the
// bound while a migrated one, which passes the number of shards whose
// worlds may move here, is admitted past it up to the bound once per
// shard, under the same name rules.
func TestMigratedCreateCeiling(t *testing.T) {
	ws := NewWorlds(1)
	if _, err := ws.Create("here", testWorldEntry(t, dynamic.Static{}), 1); err != nil {
		t.Fatal(err)
	}
	if err := ws.Precheck("moved", 1); !errors.Is(err, ErrWorldCapacity) {
		t.Fatalf("client precheck at the bound: %v", err)
	}
	if err := ws.Precheck("moved", 2); err != nil {
		t.Fatalf("migrated precheck at the bound: %v", err)
	}
	if _, err := ws.Create("moved", testWorldEntry(t, dynamic.Static{}), 2); err != nil {
		t.Fatalf("migrated create at the bound: %v", err)
	}
	if _, err := ws.Create("more", testWorldEntry(t, dynamic.Static{}), 2); !errors.Is(err, ErrWorldCapacity) {
		t.Fatalf("migrated create at the ceiling: %v", err)
	}
	if _, err := ws.Create("here", testWorldEntry(t, dynamic.Static{}), 3); !errors.Is(err, ErrWorldExists) {
		t.Fatalf("migrated duplicate: %v", err)
	}
	if _, err := ws.Create("no spaces!", testWorldEntry(t, dynamic.Static{}), 3); !errors.Is(err, ErrBadWorldName) {
		t.Fatalf("migrated bad name: %v", err)
	}
	if _, err := ws.Create("", testWorldEntry(t, dynamic.Static{}), 1); !errors.Is(err, ErrWorldCapacity) {
		t.Fatalf("client create past the bound: %v", err)
	}
	if n := ws.Len(); n != 2 {
		t.Fatalf("%d worlds resident, want 2", n)
	}
}

// TestSharedWorldConcurrentRouters drives one registered world from many
// goroutines at once — the serving-layer shape /v1/worlds/{id}/route
// creates — under churn, and checks every query gets a verdict (or the
// explicit rounds-exhausted error) while the world stays consistent.
func TestSharedWorldConcurrentRouters(t *testing.T) {
	ws := NewWorlds(4)
	ent, err := ws.Create("shared", testWorldEntry(t, &dynamic.EdgeChurn{Seed: 5, PDrop: 0.05, AddRate: 1}), 1)
	if err != nil {
		t.Fatal(err)
	}
	g := ent.Eng.Graph()
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				dst := graph.NodeID((c*7 + k*3) % g.NumNodes())
				res, err := ent.Eng.RouteDynamic(ent.W, 0, dst, dynamic.Config{HopsPerEpoch: 16})
				if err != nil && !errors.Is(err, dynamic.ErrRoundsExhausted) {
					t.Errorf("router %d: %v", c, err)
					return
				}
				if err == nil && res.Status != netsim.StatusSuccess && res.Status != netsim.StatusFailure {
					t.Errorf("router %d: no verdict: %+v", c, res)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if ent.W.Epoch() == 0 {
		t.Fatal("shared world never advanced")
	}
	// The engine's own topology must be untouched by the evolving world.
	if g.NumEdges() != gen.Torus(4, 4).NumEdges() {
		t.Fatalf("engine topology mutated: %d edges", g.NumEdges())
	}
}
