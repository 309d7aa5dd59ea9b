package route

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

func newRouter(t *testing.T, g *graph.Graph, cfg Config) *Router {
	t.Helper()
	r, err := New(g, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return r
}

func TestRouteTrivialSelf(t *testing.T) {
	r := newRouter(t, gen.Cycle(4), Config{Seed: 1})
	res, err := r.Route(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess || res.Hops != 0 {
		t.Fatalf("self route = %+v", res)
	}
}

func TestRouteMissingSource(t *testing.T) {
	r := newRouter(t, gen.Cycle(4), Config{Seed: 1})
	if _, err := r.Route(99, 0); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestRouteDeliversOnFamilies(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{name: "path", g: gen.Path(12), s: 0, d: 11},
		{name: "cycle", g: gen.Cycle(15), s: 3, d: 11},
		{name: "grid", g: gen.Grid(4, 5), s: 0, d: 19},
		{name: "star-hub-to-leaf", g: gen.Star(9), s: 0, d: 7},
		{name: "star-leaf-to-leaf", g: gen.Star(9), s: 3, d: 7},
		{name: "petersen", g: gen.Petersen(), s: 0, d: 7},
		{name: "tree", g: gen.RandomTree(25, 3), s: 0, d: 24},
		{name: "lollipop", g: gen.Lollipop(6, 8), s: 1, d: 13},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.g, Config{Seed: 7})
			res, err := r.Route(tt.s, tt.d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != netsim.StatusSuccess {
				t.Fatalf("status = %v, want success (rounds %+v)", res.Status, res.Rounds)
			}
			if res.Hops <= 0 || res.ForwardSteps <= 0 {
				t.Fatalf("implausible accounting: %+v", res)
			}
			if res.MaxHeaderBits <= 0 || res.MaxHeaderBits > 512 {
				t.Fatalf("header bits = %d", res.MaxHeaderBits)
			}
		})
	}
}

func TestRouteAllPairsSmall(t *testing.T) {
	g := gen.Grid(3, 3)
	r := newRouter(t, g, Config{Seed: 5})
	for _, s := range g.Nodes() {
		for _, d := range g.Nodes() {
			res, err := r.Route(s, d)
			if err != nil {
				t.Fatalf("route %d->%d: %v", s, d, err)
			}
			if res.Status != netsim.StatusSuccess {
				t.Fatalf("route %d->%d failed", s, d)
			}
		}
	}
}

func TestRouteFailureDetection(t *testing.T) {
	// Two components: every cross pair must terminate with failure, with
	// the terminal round covered.
	u, err := gen.DisjointUnion(gen.Cycle(5), gen.Path(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	// Disable the O(1) certificate: this test pins the walked §4 closure
	// check (certificate-vs-walk agreement is pinned in budget_test.go).
	r := newRouter(t, u, Config{Seed: 11, DisableCertificates: true})
	res, err := r.Route(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("cross-component route status = %v, want failure", res.Status)
	}
	last := res.Rounds[len(res.Rounds)-1]
	if !last.Covered {
		t.Fatal("terminal failed round did not certify coverage")
	}
	if res.ForwardSteps != 0 {
		t.Fatalf("failure reported forward steps %d", res.ForwardSteps)
	}
}

func TestRouteToNonexistentTarget(t *testing.T) {
	// The network cannot know whether t exists: routing to an unknown name
	// must terminate with failure, not error.
	r := newRouter(t, gen.Cycle(6), Config{Seed: 2})
	res, err := r.Route(0, 424242)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("status = %v, want failure", res.Status)
	}
}

func TestRouteKnownBoundSingleRound(t *testing.T) {
	g := gen.Cycle(8)
	// Reduced cycle has 2n gadget nodes; 16 is a valid known bound.
	r := newRouter(t, g, Config{Seed: 3, KnownN: 16})
	res, err := r.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.Rounds) != 1 {
		t.Fatalf("rounds = %d, want 1", len(res.Rounds))
	}
	if res.Bound != 16 {
		t.Fatalf("bound = %d", res.Bound)
	}
}

func TestRouteDoublingGrowsBound(t *testing.T) {
	// On a larger graph the first (bound 4) round cannot cover, so the
	// doubling loop must run multiple rounds for a failure case.
	u, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(3), 1000)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, u, Config{Seed: 13, DisableCertificates: true})
	res, err := r.Route(0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("status = %v", res.Status)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("expected multiple doubling rounds, got %+v", res.Rounds)
	}
	for i := 1; i < len(res.Rounds); i++ {
		if res.Rounds[i].Bound <= res.Rounds[i-1].Bound {
			t.Fatalf("bounds not increasing: %+v", res.Rounds)
		}
	}
}

func TestRouteBacktrackAccounting(t *testing.T) {
	// hops = 2*forward - indexAtDelivery; with delivery at the entry node
	// the full unwind gives hops <= 2*forward.
	r := newRouter(t, gen.Path(6), Config{Seed: 17})
	res, err := r.Route(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatal("route failed")
	}
	if res.Hops < res.ForwardSteps || res.Hops > 2*res.ForwardSteps {
		t.Fatalf("hops %d vs forward %d outside [f, 2f]", res.Hops, res.ForwardSteps)
	}
}

func TestRouteMemoryBudgetEnforced(t *testing.T) {
	// An absurdly small budget must trip the meter, proving enforcement is
	// real.
	r := newRouter(t, gen.Cycle(6), Config{Seed: 1, MemoryBudgetBits: 8})
	_, err := r.Route(0, 3)
	if !errors.Is(err, netsim.ErrMemoryExceeded) {
		t.Fatalf("error = %v, want ErrMemoryExceeded", err)
	}
}

func TestRoutePeakMemoryIsLogarithmic(t *testing.T) {
	// Peak working memory grows like O(log n): going from n=8 to n=64
	// must add only a handful of bits.
	small := newRouter(t, gen.Cycle(8), Config{Seed: 1})
	large := newRouter(t, gen.Cycle(64), Config{Seed: 1})
	rs, err := small.Route(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	rl, err := large.Route(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	if rl.PeakMemoryBits > rs.PeakMemoryBits+64 {
		t.Fatalf("memory grew too fast: %d -> %d bits", rs.PeakMemoryBits, rl.PeakMemoryBits)
	}
}

func TestRouteNoDegreeReductionAblation(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{name: "grid", g: gen.Grid(4, 4), s: 0, d: 15},
		{name: "star", g: gen.Star(10), s: 1, d: 9},
		{name: "complete", g: gen.Complete(8), s: 0, d: 7},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.g, Config{Seed: 23, NoDegreeReduction: true})
			res, err := r.Route(tt.s, tt.d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != netsim.StatusSuccess {
				t.Fatalf("ablation route failed: %+v", res)
			}
		})
	}
}

func TestRouteAblationIsolatedSource(t *testing.T) {
	g := graph.New()
	g.EnsureNode(0)
	g.EnsureNode(1)
	r := newRouter(t, g, Config{Seed: 1, NoDegreeReduction: true})
	if _, err := r.Route(0, 1); !errors.Is(err, ErrIsolatedSource) {
		t.Fatalf("error = %v, want ErrIsolatedSource", err)
	}
}

func TestRouteIsolatedSourceReduced(t *testing.T) {
	// With degree reduction the isolated source becomes a theta gadget and
	// the algorithm terminates with failure — no special case.
	g := graph.New()
	g.EnsureNode(0)
	g.EnsureNode(1)
	r := newRouter(t, g, Config{Seed: 1})
	res, err := r.Route(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("status = %v, want failure", res.Status)
	}
}

func TestRouteDeterministic(t *testing.T) {
	g := gen.Grid(4, 4)
	a := newRouter(t, g, Config{Seed: 9})
	b := newRouter(t, g, Config{Seed: 9})
	ra, err := a.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Hops != rb.Hops || ra.ForwardSteps != rb.ForwardSteps || ra.Bound != rb.Bound {
		t.Fatalf("same-seed routes differ: %+v vs %+v", ra, rb)
	}
}

func TestRouteTraceObservesWalk(t *testing.T) {
	var hops int
	cfg := Config{Seed: 4, Trace: func(hop int64, at graph.NodeID, inPort int, h netsim.Header) {
		hops++
	}}
	r := newRouter(t, gen.Cycle(5), cfg)
	res, err := r.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if hops == 0 {
		t.Fatal("trace never fired")
	}
	if int64(hops) < res.Hops {
		t.Fatalf("trace saw %d activations, result says %d hops", hops, res.Hops)
	}
}

func TestRouteLabelingInvariance(t *testing.T) {
	// Delivery is guaranteed under any port labeling (Definition 3).
	for seed := uint64(0); seed < 5; seed++ {
		g := gen.Grid(3, 4)
		g.ShuffleLabels(seed)
		r := newRouter(t, g, Config{Seed: 31})
		res, err := r.Route(0, 11)
		if err != nil {
			t.Fatalf("labeling %d: %v", seed, err)
		}
		if res.Status != netsim.StatusSuccess {
			t.Fatalf("labeling %d: delivery failed", seed)
		}
	}
}

func TestDefaultMemoryBudgetGrowth(t *testing.T) {
	if DefaultMemoryBudget(16) >= DefaultMemoryBudget(1<<20) {
		t.Fatal("budget must grow with n")
	}
	// Budget at a million nodes is still comfortably small (Θ(log n)).
	if DefaultMemoryBudget(1<<20) > 4096 {
		t.Fatalf("budget = %d bits, suspiciously large", DefaultMemoryBudget(1<<20))
	}
}
