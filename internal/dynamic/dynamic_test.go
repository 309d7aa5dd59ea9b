package dynamic

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/degred"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/route"
)

// --- World mechanics ---

func TestWorldCloneIsolation(t *testing.T) {
	g := gen.Grid(3, 3)
	w := NewWorld(g, nil)
	if _, _, err := w.AddEdge(0, 8); err != nil {
		t.Fatal(err)
	}
	if g.HasEdge(0, 8) {
		t.Fatal("world mutation leaked into the caller's graph")
	}
	if !w.Graph().HasEdge(0, 8) {
		t.Fatal("world lost its own mutation")
	}
}

func TestWorldVersioningAndCompileCache(t *testing.T) {
	w := NewWorld(gen.Cycle(6), nil)
	red1, flat1, err := w.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	red2, flat2, err := w.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if red1 != red2 || flat1 != flat2 {
		t.Fatal("unchanged version recompiled")
	}
	if w.Recompiles() != 1 {
		t.Fatalf("recompiles = %d, want 1", w.Recompiles())
	}
	v := w.Version()
	if _, _, err := w.AddEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if w.Version() == v {
		t.Fatal("AddEdge did not bump version")
	}
	red3, _, err := w.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if red3 == red1 {
		t.Fatal("mutated topology served a stale reduction")
	}
	if w.Recompiles() != 2 {
		t.Fatalf("recompiles = %d, want 2", w.Recompiles())
	}
	if err := w.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldFromCompiledReusesEngineArtifacts(t *testing.T) {
	g := gen.Grid(3, 3)
	red, err := degred.Reduce(g)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorldFromCompiled(g, red, nil)
	got, _, err := w.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	if got != red {
		t.Fatal("seeded compile cache was not reused")
	}
	if w.Recompiles() != 0 {
		t.Fatalf("recompiles = %d, want 0 (seeded)", w.Recompiles())
	}
}

func TestRemoveEdgeBetween(t *testing.T) {
	w := NewWorld(gen.Cycle(4), nil)
	if err := w.RemoveEdgeBetween(1, 2); err != nil {
		t.Fatal(err)
	}
	if w.Graph().HasEdge(1, 2) {
		t.Fatal("edge 1-2 still present")
	}
	if err := w.RemoveEdgeBetween(1, 2); err == nil {
		t.Fatal("removing a missing edge succeeded")
	}
	if err := w.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWorldEdgesCanonical(t *testing.T) {
	g := graph.New()
	for i := 0; i < 3; i++ {
		g.EnsureNode(graph.NodeID(i))
	}
	g.AddEdge(0, 1)
	g.AddEdge(0, 1) // parallel
	g.AddEdge(2, 2) // self-loop
	w := NewWorld(g, nil)
	es := w.Edges()
	want := []Edge{{0, 1}, {0, 1}, {2, 2}}
	if len(es) != len(want) {
		t.Fatalf("edges = %v, want %v", es, want)
	}
	for i := range want {
		if es[i] != want[i] {
			t.Fatalf("edges = %v, want %v", es, want)
		}
	}
}

// --- Schedules ---

// advanceN advances w through n epochs with an idle probe, failing the
// test on any error and validating the graph after every epoch.
func advanceN(t *testing.T, w *World, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := w.Advance(Probe{}); err != nil {
			t.Fatal(err)
		}
		if err := w.Graph().Validate(); err != nil {
			t.Fatalf("epoch %d: %v", w.Epoch(), err)
		}
	}
}

func TestEdgeChurnEvolves(t *testing.T) {
	w := NewWorld(gen.Grid(5, 5), &EdgeChurn{Seed: 3, PDrop: 0.2, AddRate: 1.5})
	before := len(w.Edges())
	advanceN(t, w, 20)
	after := len(w.Edges())
	if w.Version() == 0 {
		t.Fatal("churn never mutated the topology")
	}
	if before == after && w.Epoch() != 20 {
		t.Fatalf("suspicious: %d epochs, edges %d -> %d", w.Epoch(), before, after)
	}
}

func TestMarkovLinksStayWithinUnderlay(t *testing.T) {
	base := gen.Torus(4, 4)
	underlay := make(map[Edge]int)
	for _, e := range NewWorld(base, nil).Edges() {
		underlay[e]++
	}
	w := NewWorld(base, &MarkovLinks{Seed: 5, PDown: 0.3, PUp: 0.4})
	advanceN(t, w, 30)
	for _, e := range w.Edges() {
		if underlay[e] == 0 {
			t.Fatalf("link %v outside the deployed underlay", e)
		}
	}
	if w.Version() == 0 {
		t.Fatal("markov links never flapped")
	}
}

func TestWaypointRederivesGeometry(t *testing.T) {
	geo := gen.UDG2D(30, 0.3, 9)
	sched := &RandomWaypoint{Seed: 21, SpeedMin: 0.02, SpeedMax: 0.08, Radius: 0.3}
	w := NewWorld(geo.G, sched)
	w.SetPositions(geo.Pos)
	advanceN(t, w, 15)
	// Every node keeps its position, every surviving edge must respect the
	// disk radius, and every in-range pair must be connected (the UDG
	// re-derivation invariant).
	nodes := w.Graph().Nodes()
	for i, u := range nodes {
		pu, ok := w.Pos(u)
		if !ok {
			t.Fatalf("node %d lost its position", u)
		}
		for _, v := range nodes[i+1:] {
			pv, _ := w.Pos(v)
			inRange := (pu.Sub(pv)).Dot(pu.Sub(pv)) <= 0.3*0.3
			if inRange != w.Graph().HasEdge(u, v) {
				t.Fatalf("edge %d-%d disagrees with geometry (inRange=%v)", u, v, inRange)
			}
		}
	}
}

func TestWaypointSeedsMissingPositions(t *testing.T) {
	w := NewWorld(gen.Grid(3, 3), &RandomWaypoint{Seed: 4, SpeedMax: 0.1, Radius: 0.5})
	advanceN(t, w, 1)
	for _, v := range w.Graph().Nodes() {
		if _, ok := w.Pos(v); !ok {
			t.Fatalf("waypoint did not place position-less node %d", v)
		}
	}
}

func TestWaypointRequiresRadius(t *testing.T) {
	w := NewWorld(gen.Grid(2, 2), &RandomWaypoint{Seed: 4, SpeedMax: 0.1})
	if err := w.Advance(Probe{}); err == nil {
		t.Fatal("waypoint without radius accepted")
	}
}

// encodeGraph renders a world's graph to the canonical text codec.
func encodeGraph(t *testing.T, w *World) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := w.Graph().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestScheduleDeterminism is the seeded-generator determinism satellite
// for the mobility stack: identical seeds must replay identical topology
// histories, epoch by epoch, for every schedule kind.
func TestScheduleDeterminism(t *testing.T) {
	mk := func(kind string) (*World, *World) {
		spec := Spec{Kind: kind, Seed: 17, PDrop: 0.15, AddRate: 1,
			PDown: 0.2, PUp: 0.3, SpeedMin: 0.01, SpeedMax: 0.1, Radius: 0.3}
		build := func() *World {
			s, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			geo := gen.UDG2D(25, 0.3, 8)
			w := NewWorld(geo.G, s)
			w.SetPositions(geo.Pos)
			return w
		}
		return build(), build()
	}
	for _, kind := range []string{"churn", "markov", "waypoint"} {
		t.Run(kind, func(t *testing.T) {
			a, b := mk(kind)
			for epoch := 0; epoch < 12; epoch++ {
				if err := a.Advance(Probe{}); err != nil {
					t.Fatal(err)
				}
				if err := b.Advance(Probe{}); err != nil {
					t.Fatal(err)
				}
				ea, eb := encodeGraph(t, a), encodeGraph(t, b)
				if !bytes.Equal(ea, eb) {
					t.Fatalf("epoch %d diverged:\n%s\nvs\n%s", epoch+1, ea, eb)
				}
			}
			if a.Version() != b.Version() {
				t.Fatalf("version diverged: %d vs %d", a.Version(), b.Version())
			}
		})
	}
}

// --- Dynamic routing ---

// guarded wraps a schedule and records whether s and t were ever in
// different components after an epoch — the oracle precondition for the
// guaranteed-delivery acceptance check.
type guarded struct {
	inner        Schedule
	s, t         graph.NodeID
	disconnected bool
}

func (g *guarded) Advance(w *World, epoch int, p Probe) error {
	if err := g.inner.Advance(w, epoch, p); err != nil {
		return err
	}
	if _, ok := w.Graph().BFSDist(g.s)[g.t]; !ok {
		g.disconnected = true
	}
	return nil
}

// TestDeliveryUnderMarkovChurn routes many pairs under link flapping and
// verifies every verdict against the decision-time oracle: success means
// t was physically reached; failure must coincide with t being outside
// s's component in the world's instantaneous graph; and on runs where the
// pair never disconnected, delivery is mandatory.
func TestDeliveryUnderMarkovChurn(t *testing.T) {
	base := gen.Torus(5, 5)
	delivered := 0
	for rep := 0; rep < 12; rep++ {
		s, dst := graph.NodeID(0), graph.NodeID(12+rep%12)
		gd := &guarded{inner: &MarkovLinks{Seed: uint64(rep) * 31, PDown: 0.05, PUp: 0.5}, s: s, t: dst}
		w := NewWorld(base, gd)
		res, err := NewRouter(w, Config{Seed: uint64(rep), HopsPerEpoch: 32}).Route(s, dst)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		switch res.Status {
		case netsim.StatusSuccess:
			delivered++
		case netsim.StatusFailure:
			if _, reachable := w.Graph().BFSDist(s)[dst]; reachable {
				t.Fatalf("rep %d: failure verdict while oracle says reachable", rep)
			}
			if !gd.disconnected {
				t.Fatalf("rep %d: failure verdict on a never-disconnected scenario", rep)
			}
		default:
			t.Fatalf("rep %d: no verdict: %+v", rep, res)
		}
	}
	if delivered == 0 {
		t.Fatal("no route delivered under mild churn")
	}
}

// TestDeliveryUnderMobility runs the full mobility stack: random-waypoint
// motion re-deriving the unit-disk topology each epoch, with the same
// oracle discipline.
func TestDeliveryUnderMobility(t *testing.T) {
	verdicts := 0
	for rep := 0; rep < 6; rep++ {
		geo := gen.UDG2D(30, 0.35, uint64(40+rep))
		sched := &RandomWaypoint{Seed: uint64(rep), SpeedMin: 0.01, SpeedMax: 0.05, Radius: 0.35}
		w := NewWorld(geo.G, sched)
		w.SetPositions(geo.Pos)
		s, dst := graph.NodeID(0), graph.NodeID(29)
		res, err := NewRouter(w, Config{Seed: uint64(rep) ^ 0xd, HopsPerEpoch: 48}).Route(s, dst)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		switch res.Status {
		case netsim.StatusSuccess:
			verdicts++
		case netsim.StatusFailure:
			if _, reachable := w.Graph().BFSDist(s)[dst]; reachable {
				t.Fatalf("rep %d: failure verdict while oracle says reachable", rep)
			}
			verdicts++
		}
	}
	if verdicts == 0 {
		t.Fatal("mobility runs produced no verdicts at all")
	}
}

// linkAt adds the link u–v at one epoch.
type linkAt struct {
	u, v  graph.NodeID
	epoch int
}

func (s linkAt) Advance(w *World, epoch int, _ Probe) error {
	if epoch != s.epoch {
		return nil
	}
	_, _, err := w.AddEdge(s.u, s.v)
	return err
}

// TestLateLinkFailsNoRound checks the decision-time closure check's t test:
// two isolated nodes are linked at the epoch boundary that falls exactly
// where the first round fails. The check then runs on a topology whose
// closed cover of the source holds t, so the failure is no verdict and a
// later round delivers.
func TestLateLinkFailsNoRound(t *testing.T) {
	g := graph.New()
	g.EnsureNode(0)
	g.EnsureNode(1)
	sr, err := route.New(g, route.Config{Seed: 1, DisableCertificates: true})
	if err != nil {
		t.Fatal(err)
	}
	first, err := sr.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, disableFlat := range []bool{false, true} {
		w := NewWorld(g, linkAt{u: 0, v: 1, epoch: 1})
		cfg := Config{Seed: 1, HopsPerEpoch: int(first.Rounds[0].Hops), DisableCertificates: true, DisableFlat: disableFlat}
		res, err := NewRouter(w, cfg).Route(0, 1)
		if err != nil {
			t.Fatalf("DisableFlat %t: %v", disableFlat, err)
		}
		if res.Status != netsim.StatusSuccess || res.Rounds < 2 {
			t.Fatalf("DisableFlat %t: status %v after %d rounds, want success after at least 2", disableFlat, res.Status, res.Rounds)
		}
	}
}

// TestAdversarialLinkCutter pins the acceptance scenario: on a
// 2-edge-connected underlay the cutter removes at most one link at a
// time, so s and t stay connected at every epoch and delivery is
// guaranteed — while the walk demonstrably suffers (resumptions happen).
func TestAdversarialLinkCutter(t *testing.T) {
	base := gen.Torus(4, 4) // 4-regular, 2-edge-connected
	sawResumption := false
	for rep := 0; rep < 8; rep++ {
		cutter := &LinkCutter{}
		gd := &guarded{inner: cutter, s: 0, t: 10}
		w := NewWorld(base, gd)
		res, err := NewRouter(w, Config{Seed: uint64(rep), HopsPerEpoch: 16}).Route(0, 10)
		if err != nil {
			t.Fatalf("rep %d: %v", rep, err)
		}
		if gd.disconnected {
			t.Fatalf("rep %d: cutter disconnected a 2-edge-connected underlay", rep)
		}
		if res.Status != netsim.StatusSuccess {
			t.Fatalf("rep %d: adversary defeated delivery on an always-connected scenario: %+v", rep, res)
		}
		if res.Resumptions > 0 {
			sawResumption = true
		}
	}
	if !sawResumption {
		t.Error("the adversary never actually forced a snapshot migration")
	}
}

// TestResumptionAccounting checks that a churning scenario reports its
// dynamics: epochs advanced, recompiles paid, resumptions taken.
func TestResumptionAccounting(t *testing.T) {
	w := NewWorld(gen.Torus(5, 5), &MarkovLinks{Seed: 2, PDown: 0.15, PUp: 0.4})
	res, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: 16}).Route(0, 18)
	if err != nil {
		t.Fatal(err)
	}
	if res.Epochs == 0 {
		t.Error("no epochs elapsed")
	}
	if res.Recompiles == 0 || res.Resumptions == 0 {
		t.Errorf("expected churn to force recompiles+resumptions, got %+v", res)
	}
	if res.Hops <= 0 || res.MaxHeaderBits <= 0 {
		t.Errorf("missing accounting: %+v", res)
	}
	if w.Epoch() != res.Epochs {
		t.Errorf("world epoch %d != result epochs %d", w.Epoch(), res.Epochs)
	}
}

// TestRouteErrors covers the argument-validation paths.
func TestRouteErrors(t *testing.T) {
	w := NewWorld(gen.Grid(2, 2), nil)
	r := NewRouter(w, Config{})
	if _, err := r.Route(99, 0); err == nil {
		t.Fatal("unknown source accepted")
	}
	res, err := r.Route(2, 2)
	if err != nil || res.Status != netsim.StatusSuccess || res.Hops != 0 {
		t.Fatalf("self route: %+v, %v", res, err)
	}
}

// TestSpecBuild covers the spec constructor table.
func TestSpecBuild(t *testing.T) {
	for _, tc := range []struct {
		spec Spec
		ok   bool
	}{
		{Spec{Kind: "static"}, true},
		{Spec{Kind: ""}, true},
		{Spec{Kind: "churn", PDrop: 0.1}, true},
		{Spec{Kind: "markov", PDown: 0.1, PUp: 0.2}, true},
		{Spec{Kind: "waypoint", Radius: 0.3}, true},
		{Spec{Kind: "waypoint"}, false}, // no radius
		{Spec{Kind: "adversary"}, true},
		{Spec{Kind: "nope"}, false},
	} {
		_, err := tc.spec.Build()
		if (err == nil) != tc.ok {
			t.Errorf("Build(%+v): err=%v, want ok=%v", tc.spec, err, tc.ok)
		}
	}
}

// TestSpecBuildRejectsOutOfRange checks that Build refuses every
// probability outside [0, 1] and every add rate outside [0, 1024]: an
// epoch makes add_rate insertion attempts, so an unchecked rate from a
// client stalls its world indefinitely.
func TestSpecBuildRejectsOutOfRange(t *testing.T) {
	for _, spec := range []Spec{
		{Kind: "churn", PDrop: -0.1},
		{Kind: "churn", PDrop: 1.5},
		{Kind: "churn", AddRate: -1},
		{Kind: "churn", AddRate: 1025},
		{Kind: "churn", AddRate: 1e15},
		{Kind: "markov", PDown: -0.5, PUp: 0.5},
		{Kind: "markov", PDown: 1.01, PUp: 0.5},
		{Kind: "markov", PDown: 0.1, PUp: -0.01},
		{Kind: "markov", PDown: 0.1, PUp: 2},
	} {
		if _, err := spec.Build(); !errors.Is(err, ErrSpecRange) {
			t.Errorf("Build(%+v): err=%v, want ErrSpecRange", spec, err)
		}
	}
	for _, spec := range []Spec{
		{Kind: "churn", PDrop: 1, AddRate: 1024},
		{Kind: "churn", PDrop: 0, AddRate: 0},
		{Kind: "markov", PDown: 1, PUp: 0},
	} {
		if _, err := spec.Build(); err != nil {
			t.Errorf("Build(%+v): %v, want ok", spec, err)
		}
	}
}
