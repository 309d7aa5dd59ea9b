package engine

import (
	"context"
	"testing"

	"repro/internal/dynamic"
	"repro/internal/gen"
	"repro/internal/netsim"
	"repro/internal/trace"
)

// TestRouteDynamicStatic pins the serving contract on a no-op world: the
// dynamic query must agree with the engine's static route (same protocol
// parameters flow through), reuse the engine's compiled reduction (zero
// recompiles), and land in the metrics.
func TestRouteDynamicStatic(t *testing.T) {
	eng, err := Compile(gen.Grid(5, 5), Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Route(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	w := eng.NewWorld(dynamic.Static{})
	got, err := eng.RouteDynamic(w, 0, 24, dynamic.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
		t.Fatalf("dynamic %+v disagrees with static %+v", got, want)
	}
	if got.Recompiles != 0 {
		t.Fatalf("no-op world recompiled %d times despite the engine's seeded cache", got.Recompiles)
	}
	snap := eng.Stats()
	if snap.DynamicRoutes != 1 {
		t.Fatalf("DynamicRoutes = %d, want 1", snap.DynamicRoutes)
	}
	if snap.Queries() < 2 {
		t.Fatalf("Queries() = %d, want >= 2", snap.Queries())
	}
}

// TestRouteDynamicChurn drives a churning world through the engine and
// checks verdict soundness plus dynamics metrics accounting.
func TestRouteDynamicChurn(t *testing.T) {
	eng, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	w := eng.NewWorld(&dynamic.MarkovLinks{Seed: 9, PDown: 0.1, PUp: 0.5})
	res, err := eng.RouteDynamic(w, 0, 17, dynamic.Config{HopsPerEpoch: 24})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status == netsim.StatusFailure {
		if _, reachable := w.Graph().BFSDist(0)[17]; reachable {
			t.Fatal("failure verdict while the decision-time oracle says reachable")
		}
	}
	snap := eng.Stats()
	if snap.DynamicRoutes != 1 || snap.DynamicEpochs != int64(res.Epochs) ||
		snap.DynamicRecompiles != int64(res.Recompiles) ||
		snap.DynamicResumptions != int64(res.Resumptions) {
		t.Fatalf("metrics %+v disagree with result %+v", snap, res)
	}
	// The engine's own network must be untouched by the world's churn.
	if eng.Graph().NumEdges() != gen.Torus(5, 5).NumEdges() {
		t.Fatal("world churn mutated the engine's graph")
	}
}

// TestRouteDynamicWorldIndependence runs two worlds off one engine and
// checks they evolve independently.
func TestRouteDynamicWorldIndependence(t *testing.T) {
	eng, err := Compile(gen.Grid(4, 4), Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	w1 := eng.NewWorld(&dynamic.EdgeChurn{Seed: 1, PDrop: 0.3})
	w2 := eng.NewWorld(dynamic.Static{})
	if _, err := eng.RouteDynamic(w1, 0, 15, dynamic.Config{HopsPerEpoch: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RouteDynamic(w2, 0, 15, dynamic.Config{HopsPerEpoch: 8}); err != nil {
		t.Fatal(err)
	}
	if w2.Version() != 0 {
		t.Fatal("static world caught churn from its sibling")
	}
}

// TestRouteDynamicTracedParity routes the same churned query over two
// identically seeded worlds, traced and untraced, and demands identical
// Results — tracing must not change verdicts, hops, epochs, or header
// accounting. It also checks the trace carries the round spans with hop
// events and the epoch/resume timeline of the evolving walk.
func TestRouteDynamicTracedParity(t *testing.T) {
	mkWorld := func(eng *Engine) *dynamic.World {
		return eng.NewWorld(&dynamic.EdgeChurn{Seed: 11, PDrop: 0.15, AddRate: 1})
	}
	eng, err := Compile(gen.Torus(5, 5), Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := dynamic.Config{HopsPerEpoch: 16}
	want, err := eng.RouteDynamic(mkWorld(eng), 0, 18, cfg)
	if err != nil {
		t.Fatal(err)
	}

	tc := trace.New(trace.Config{SampleRate: 1})
	tr := tc.StartRequest("dynamic", "")
	got, err := eng.RouteDynamicBudgeted(trace.NewContext(context.Background(), tr.Root()), mkWorld(eng), 0, 18, 0, nil, cfg)
	tr.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Fatalf("traced %+v disagrees with untraced %+v", got, want)
	}

	ex := tc.Recorder().Find(tr.ID()).Export()
	var hops int64
	rounds, epochs, resumes := 0, 0, 0
	for _, sp := range ex.Spans {
		hops += sp.HopTotal
		if sp.Name == "dynamic.round" {
			rounds++
		}
		for _, ev := range sp.Events {
			switch ev.Name {
			case "dynamic.epoch":
				epochs++
			case "dynamic.resume":
				resumes++
			}
		}
	}
	if rounds != want.Rounds {
		t.Fatalf("%d round spans, Result has %d rounds", rounds, want.Rounds)
	}
	if hops != want.Hops {
		t.Fatalf("spans recorded %d hops, Result.Hops = %d", hops, want.Hops)
	}
	if epochs != want.Epochs || resumes != want.Resumptions {
		t.Fatalf("trace timeline %d epochs/%d resumes, Result %d/%d",
			epochs, resumes, want.Epochs, want.Resumptions)
	}
}
