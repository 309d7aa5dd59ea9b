package route

import (
	"errors"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/ues"
)

func TestRestartConfirmDelivers(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		s, d graph.NodeID
	}{
		{name: "path", g: gen.Path(10), s: 0, d: 9},
		{name: "grid", g: gen.Grid(4, 4), s: 0, d: 15},
		{name: "petersen", g: gen.Petersen(), s: 0, d: 7},
		{name: "star", g: gen.Star(8), s: 2, d: 6},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			r := newRouter(t, tt.g, Config{Seed: 7, Confirm: ConfirmRestart})
			res, err := r.Route(tt.s, tt.d)
			if err != nil {
				t.Fatal(err)
			}
			if res.Status != netsim.StatusSuccess {
				t.Fatalf("restart-confirm route failed: %+v", res)
			}
			if res.ForwardSteps <= 0 || res.ForwardSteps > res.Hops {
				t.Fatalf("implausible forward steps %d (hops %d)", res.ForwardSteps, res.Hops)
			}
		})
	}
}

func TestRestartConfirmFailureVerdict(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(5), gen.Cycle(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, u, Config{Seed: 3, Confirm: ConfirmRestart})
	res, err := r.Route(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("status = %v, want failure", res.Status)
	}
}

func TestRestartConfirmMatchesBacktrackVerdicts(t *testing.T) {
	// Both confirmation modes must produce identical verdicts on every
	// pair; only the cost differs.
	g := gen.Grid(3, 3)
	g.EnsureNode(99) // isolated second component
	back := newRouter(t, g, Config{Seed: 5, Confirm: ConfirmBacktrack})
	restart := newRouter(t, g, Config{Seed: 5, Confirm: ConfirmRestart})
	for _, s := range g.Nodes() {
		if s == 99 {
			continue
		}
		for _, d := range g.Nodes() {
			rb, err := back.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := restart.Route(s, d)
			if err != nil {
				t.Fatal(err)
			}
			if rb.Status != rr.Status {
				t.Fatalf("verdicts differ for %d->%d: backtrack %v, restart %v",
					s, d, rb.Status, rr.Status)
			}
		}
	}
}

func TestGrowthFactorFewerRounds(t *testing.T) {
	// A ×4 schedule reaches a covering bound in fewer rounds than ×2 for
	// a definitive failure on the same graph.
	u, err := gen.DisjointUnion(gen.Grid(10, 10), gen.Cycle(3), 1000)
	if err != nil {
		t.Fatal(err)
	}
	// The cross-component pair must burn real rounds for the schedule
	// comparison, so the certificate fast path is disabled.
	r2 := newRouter(t, u, Config{Seed: 13, GrowthFactor: 2, DisableCertificates: true})
	r4 := newRouter(t, u, Config{Seed: 13, GrowthFactor: 4, DisableCertificates: true})
	res2, err := r2.Route(0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	res4, err := r4.Route(0, 1001)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Status != netsim.StatusFailure || res4.Status != netsim.StatusFailure {
		t.Fatal("both should fail definitively")
	}
	if len(res4.Rounds) >= len(res2.Rounds) {
		t.Fatalf("x4 schedule used %d rounds, x2 used %d — expected fewer",
			len(res4.Rounds), len(res2.Rounds))
	}
}

func TestGrowthFactorSanitized(t *testing.T) {
	// Degenerate growth factors (0, 1, negative) must not loop forever.
	u, err := gen.DisjointUnion(gen.Cycle(4), gen.Cycle(3), 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, gf := range []int{-1, 0, 1} {
		r := newRouter(t, u, Config{Seed: 1, GrowthFactor: gf})
		res, err := r.Route(0, 51)
		if err != nil {
			t.Fatalf("growth %d: %v", gf, err)
		}
		if res.Status != netsim.StatusFailure {
			t.Fatalf("growth %d: status %v", gf, res.Status)
		}
	}
}

// TestFaultInjectionFailsLoudly verifies the static-network assumption is
// checked, not silently violated: a lost message surfaces as an error,
// never as a wrong verdict.
func TestFaultInjectionFailsLoudly(t *testing.T) {
	g := gen.Grid(4, 4)
	red := newRouter(t, g, Config{Seed: 7})
	honest, err := red.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if honest.Status != netsim.StatusSuccess {
		t.Fatal("baseline route failed")
	}
	// Drop the message partway through the walk, before it can possibly
	// have delivered.
	dropAt := honest.ForwardSteps / 2
	if dropAt < 1 {
		dropAt = 1
	}
	seq := red.Sequence(4)
	_ = seq
	eng := netsim.NewEngine(red.WorkGraph(),
		&routeHandler{seq: red.Sequence(red.WorkGraph().NumNodes()), originalOf: red.original},
		netsim.WithFault(func(hop int64) bool { return hop == dropAt }))
	start, errEntry := red.entry(0)
	if errEntry != nil {
		t.Fatal(errEntry)
	}
	h := netsim.Header{Src: 0, Dst: 15, Dir: netsim.Forward, Index: 1}
	out, err := eng.Run(start, 0, h, 1<<30)
	if !errors.Is(err, netsim.ErrMessageLost) {
		t.Fatalf("error = %v, want ErrMessageLost", err)
	}
	if out != nil && out.Delivered {
		t.Fatal("lost message must not be delivered")
	}
}

func TestRestartKnownBoundInconclusive(t *testing.T) {
	// With a known bound too small for the confirmation leg, the restart
	// mode must surface ErrSequenceExhausted instead of a verdict.
	g := gen.Grid(5, 5)
	r := newRouter(t, g, Config{Seed: 2, Confirm: ConfirmRestart, KnownN: 2, LengthFactor: 1})
	_, err := r.Route(0, 24)
	if err == nil {
		t.Skip("tiny bound happened to suffice; acceptable")
	}
	if !errors.Is(err, ErrSequenceExhausted) {
		t.Fatalf("error = %v, want ErrSequenceExhausted", err)
	}
}

func TestWireFormatTransparent(t *testing.T) {
	// Serializing the header on every hop must not change any outcome.
	g := gen.Grid(4, 4)
	plain := newRouter(t, g, Config{Seed: 7})
	wired := newRouter(t, g, Config{Seed: 7, WireFormat: true})
	rp, err := plain.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := wired.Route(0, 15)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Status != rw.Status || rp.Hops != rw.Hops || rp.ForwardSteps != rw.ForwardSteps {
		t.Fatalf("wire format changed the run: %+v vs %+v", rp, rw)
	}
}

func TestSequenceFactoryCertified(t *testing.T) {
	// Routing on a 3-node path (4 reduced nodes) with the exhaustively
	// certified sequence: guaranteed with zero empirical assumptions.
	seq, err := ues.CertifiedSmall(4, 2026)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, gen.Path(3), Config{
		KnownN:          4,
		SequenceFactory: func(bound int) ues.Sequence { return seq },
	})
	res, err := r.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusSuccess {
		t.Fatalf("certified route failed: %+v", res)
	}
	// Unknown target: certified failure detection.
	res, err = r.Route(0, 99)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure {
		t.Fatalf("certified failure detection broke: %+v", res)
	}
}

func TestSequenceFactoryUsedInDoublingLoop(t *testing.T) {
	// The factory must receive the per-round bound.
	var bounds []int
	r := newRouter(t, gen.Grid(4, 4), Config{
		Seed: 5,
		SequenceFactory: func(bound int) ues.Sequence {
			bounds = append(bounds, bound)
			return &ues.Pseudorandom{Seed: 5, N: bound, Base: 3}
		},
	})
	if _, err := r.Route(0, 15); err != nil {
		t.Fatal(err)
	}
	if len(bounds) == 0 {
		t.Fatal("factory never invoked")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] < bounds[i-1] {
			t.Fatalf("bounds not non-decreasing: %v", bounds)
		}
	}
}
