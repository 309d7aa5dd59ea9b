package route

import (
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

func TestBroadcastCoversComponent(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s    graph.NodeID
		want int
	}{
		{name: "path", g: gen.Path(10), s: 0, want: 10},
		{name: "cycle", g: gen.Cycle(12), s: 5, want: 12},
		{name: "grid", g: gen.Grid(4, 4), s: 0, want: 16},
		{name: "star", g: gen.Star(9), s: 4, want: 9},
		{name: "petersen", g: gen.Petersen(), s: 0, want: 10},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.g, Config{Seed: 3})
			res, err := r.Broadcast(tt.s)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reached != tt.want {
				t.Fatalf("reached %d nodes, want %d (nodes %v)", res.Reached, tt.want, res.Nodes)
			}
			if res.Hops <= 0 {
				t.Fatal("no hops recorded")
			}
			last := res.Rounds[len(res.Rounds)-1]
			if !last.Covered {
				t.Fatal("terminal round not certified covered")
			}
			if last.Outcome != netsim.StatusSuccess {
				t.Fatalf("confirmation status = %v", last.Outcome)
			}
		})
	}
}

func TestBroadcastOnlyOwnComponent(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(6), gen.Grid(3, 3), 50)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, u, Config{Seed: 5})
	res, err := r.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 6 {
		t.Fatalf("reached %d, want 6 (own component only)", res.Reached)
	}
	for _, v := range res.Nodes {
		if v >= 50 {
			t.Fatalf("broadcast leaked into other component: %v", res.Nodes)
		}
	}
}

func TestBroadcastSingleton(t *testing.T) {
	g := graph.New()
	g.EnsureNode(7)
	r := newRouter(t, g, Config{Seed: 1})
	res, err := r.Broadcast(7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 1 || res.Nodes[0] != 7 {
		t.Fatalf("singleton broadcast = %+v", res)
	}
}

func TestBroadcastMissingSource(t *testing.T) {
	r := newRouter(t, gen.Cycle(3), Config{Seed: 1})
	if _, err := r.Broadcast(55); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestBroadcastKnownBound(t *testing.T) {
	g := gen.Cycle(5)
	r := newRouter(t, g, Config{Seed: 1, KnownN: 10})
	res, err := r.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 5 {
		t.Fatalf("reached %d, want 5", res.Reached)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(res.Rounds))
	}
}

func TestBroadcastHopsAreTwiceSequence(t *testing.T) {
	// The broadcast walk always runs the full sequence forward and unwinds
	// back to s (modulo early delivery at an s-gadget node): hops per round
	// is at most 2·L_n.
	r := newRouter(t, gen.Cycle(4), Config{Seed: 2, KnownN: 8})
	res, err := r.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	round := res.Rounds[0]
	if round.Hops > 2*int64(round.SeqLen) {
		t.Fatalf("hops %d exceed 2·L = %d", round.Hops, 2*round.SeqLen)
	}
	if round.Hops < int64(round.SeqLen) {
		t.Fatalf("hops %d below L = %d: forward pass incomplete", round.Hops, round.SeqLen)
	}
}

// TestBroadcastGolden pins complete broadcast results — hops, rounds,
// bound, header bits, peak memory, and the reached set — on both execution
// paths.
func TestBroadcastGolden(t *testing.T) {
	ids := func(lo, hi graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for v := lo; v < hi; v++ {
			out = append(out, v)
		}
		return out
	}
	union, err := gen.DisjointUnion(gen.Cycle(6), gen.Grid(3, 3), 50)
	if err != nil {
		t.Fatal(err)
	}
	singleton := graph.New()
	singleton.EnsureNode(7)
	round := func(bound, seqLen int, hops int64, covered bool) RoundStat {
		return RoundStat{Bound: bound, SeqLen: seqLen, Hops: hops, Outcome: netsim.StatusSuccess, Covered: covered}
	}
	tests := []struct {
		name string
		g    *graph.Graph
		s    graph.NodeID
		want BroadcastResult
	}{
		{"grid6x6", gen.Grid(6, 6), 0, BroadcastResult{
			Reached: 36, Nodes: ids(0, 36), Hops: 3446,
			Rounds: []RoundStat{round(4, 384, 741, false), round(8, 2048, 2705, true)},
			Bound:  8, MaxHeaderBits: 40, PeakMemoryBits: 36,
		}},
		{"union-cycle", union, 0, BroadcastResult{
			Reached: 6, Nodes: ids(0, 6), Hops: 413,
			Rounds: []RoundStat{round(4, 384, 413, true)},
			Bound:  4, MaxHeaderBits: 40, PeakMemoryBits: 28,
		}},
		{"union-grid", union, 54, BroadcastResult{
			Reached: 9, Nodes: ids(50, 59), Hops: 388,
			Rounds: []RoundStat{round(4, 384, 388, true)},
			Bound:  4, MaxHeaderBits: 40, PeakMemoryBits: 33,
		}},
		{"singleton", singleton, 7, BroadcastResult{
			Reached: 1, Nodes: ids(7, 8), Hops: 385,
			Rounds: []RoundStat{round(4, 384, 385, true)},
			Bound:  4, MaxHeaderBits: 40, PeakMemoryBits: 25,
		}},
	}
	for _, tt := range tests {
		for _, disableFlat := range []bool{false, true} {
			r := newRouter(t, tt.g, Config{Seed: 11, DisableFlat: disableFlat})
			got, err := r.Broadcast(tt.s)
			if err != nil {
				t.Fatalf("%s (DisableFlat %v): %v", tt.name, disableFlat, err)
			}
			if !reflect.DeepEqual(*got, tt.want) {
				t.Fatalf("%s (DisableFlat %v):\ngot  %+v\nwant %+v", tt.name, disableFlat, *got, tt.want)
			}
		}
	}
}

// TestBroadcastFaultLoss checks that an injected loss surfaces as
// netsim.ErrMessageLost rather than as a reached set.
func TestBroadcastFaultLoss(t *testing.T) {
	r := newRouter(t, gen.Grid(4, 4), Config{Seed: 3, FaultHook: func(hop int64) bool { return hop == 5 }})
	if _, err := r.Broadcast(0); !errors.Is(err, netsim.ErrMessageLost) {
		t.Fatalf("error = %v, want %v", err, netsim.ErrMessageLost)
	}
}

// TestBroadcastConfirmRestartUnchanged checks that the confirmation mode
// does not reach broadcast, whose confirmation always backtracks.
func TestBroadcastConfirmRestartUnchanged(t *testing.T) {
	for _, g := range []*graph.Graph{gen.Grid(4, 4), gen.Petersen(), gen.Path(7)} {
		want, err := newRouter(t, g, Config{Seed: 2}).Broadcast(0)
		if err != nil {
			t.Fatal(err)
		}
		got, err := newRouter(t, g, Config{Seed: 2, Confirm: ConfirmRestart}).Broadcast(0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("restart confirmation changed the broadcast:\ngot  %+v\nwant %+v", got, want)
		}
	}
}

func TestBroadcastAblation(t *testing.T) {
	r := newRouter(t, gen.Grid(3, 3), Config{Seed: 4, NoDegreeReduction: true})
	res, err := r.Broadcast(0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reached != 9 {
		t.Fatalf("ablation broadcast reached %d/9", res.Reached)
	}
}
