package dynamic

import (
	"bytes"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

// TestSpecReplays pins what Spec.Replays promises: a world whose epochs
// were driven by walks and a fresh world advanced the same number of
// epochs with idle probes reach the same port table exactly when the
// schedule replays. For "adversary" they differ: LinkCutter cut the link
// each walk was about to take, and every cut and restore relabeled ports,
// while the replay's idle probes cut nothing.
func TestSpecReplays(t *testing.T) {
	net := gen.UDG2D(64, 0.25, 3)
	for _, spec := range []Spec{
		{Kind: "static"},
		{Kind: "churn", Seed: 5, PDrop: 0.01, AddRate: 0.5},
		{Kind: "markov", Seed: 5, PDown: 0.02, PUp: 0.3},
		{Kind: "waypoint", Seed: 5, SpeedMin: 0.002, SpeedMax: 0.01, Radius: 0.25},
		{Kind: "adversary"},
	} {
		t.Run(spec.Kind, func(t *testing.T) {
			newWorld := func() *World {
				sched, err := spec.Build()
				if err != nil {
					t.Fatal(err)
				}
				w := NewWorld(net.G, sched)
				w.SetPositions(net.Pos)
				return w
			}
			live := newWorld()
			r := NewRouter(live, Config{Seed: 7, HopsPerEpoch: 8})
			for i := range 10 {
				s, dst := graph.NodeID(i*7%64), graph.NodeID((i*13+5)%64)
				if _, err := r.Route(s, dst); err != nil {
					t.Fatalf("route %d→%d: %v", s, dst, err)
				}
			}
			replay := newWorld()
			for range live.Epoch() {
				if err := replay.Advance(Probe{}); err != nil {
					t.Fatal(err)
				}
			}
			var a, b bytes.Buffer
			if err := live.Graph().Encode(&a); err != nil {
				t.Fatal(err)
			}
			if err := replay.Graph().Encode(&b); err != nil {
				t.Fatal(err)
			}
			same := bytes.Equal(a.Bytes(), b.Bytes())
			t.Logf("%d epochs, %d links live, %d replayed, same port table: %v",
				live.Epoch(), live.NumEdges(), replay.NumEdges(), same)
			if live.Epoch() == 0 {
				t.Fatal("the walks advanced no epoch")
			}
			if same != spec.Replays() {
				t.Fatalf("same port table after replay = %v, Replays() = %v", same, spec.Replays())
			}
		})
	}
}
