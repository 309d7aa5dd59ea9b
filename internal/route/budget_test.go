package route

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
)

// disjoint builds the two-component test graph (grid ⊔ cycle).
func disjoint(t *testing.T) *graph.Graph {
	t.Helper()
	u, err := gen.DisjointUnion(gen.Grid(5, 5), gen.Cycle(6), 100)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestCertificateMatchesWalkVerdicts pins certificate verdicts == walk
// verdicts on a static graph: for every pair, the certified router and the
// certificate-disabled router agree on the status, and a certificate
// appears exactly on the provably-unreachable pairs.
func TestCertificateMatchesWalkVerdicts(t *testing.T) {
	u := disjoint(t)
	cert := newRouter(t, u, Config{Seed: 7})
	walk := newRouter(t, u, Config{Seed: 7, DisableCertificates: true})
	targets := append(append([]graph.NodeID{}, u.SortedNodes()...), 424242)
	for _, s := range []graph.NodeID{0, 24, 100, 103} {
		for _, d := range targets {
			got, err := cert.Route(s, d)
			if err != nil {
				t.Fatalf("certified route %d->%d: %v", s, d, err)
			}
			want, err := walk.Route(s, d)
			if err != nil {
				t.Fatalf("walked route %d->%d: %v", s, d, err)
			}
			if got.Status != want.Status {
				t.Fatalf("route %d->%d: certified status %v, walked %v", s, d, got.Status, want.Status)
			}
			if want.Status == netsim.StatusFailure {
				c := got.Certificate
				if c == nil {
					t.Fatalf("route %d->%d: failure without certificate", s, d)
				}
				if got.Hops != 0 {
					t.Fatalf("route %d->%d: certified failure walked %d hops", s, d, got.Hops)
				}
				if c.SrcComponent == c.DstComponent {
					t.Fatalf("route %d->%d: certificate %+v does not separate the pair", s, d, c)
				}
			} else {
				if got.Certificate != nil {
					t.Fatalf("route %d->%d: success carries certificate %+v", s, d, got.Certificate)
				}
				if got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
					t.Fatalf("route %d->%d: certified (hops %d, hb %d) != walked (hops %d, hb %d)",
						s, d, got.Hops, got.MaxHeaderBits, want.Hops, want.MaxHeaderBits)
				}
			}
		}
	}
}

// runToVerdict drives RouteBudgeted with a fixed per-request budget,
// resuming until a verdict lands. Returns the final result and the number
// of continuations.
func runToVerdict(t *testing.T, r *Router, s, d graph.NodeID, budget int64) (*Result, int) {
	t.Helper()
	var cur *Cursor
	for i := 0; ; i++ {
		if i > 100000 {
			t.Fatal("walk did not converge")
		}
		res, err := r.RouteBudgeted(context.Background(), s, d, budget, cur)
		if err != nil {
			t.Fatalf("budgeted route %d->%d (continuation %d): %v", s, d, i, err)
		}
		if res.Exhausted == "" {
			return res, i
		}
		if res.Exhausted != ExhaustBudget {
			t.Fatalf("exhausted = %q, want budget", res.Exhausted)
		}
		if res.Cursor == nil {
			t.Fatal("exhausted result without cursor")
		}
		cur = res.Cursor
	}
}

// TestRouteBudgetedSplitEqualsUninterrupted is the resume differential: a
// walk split across budget-exhausted continuations must equal the
// uninterrupted walk on verdict, total hops, header bits, bound, forward
// steps, and peak memory.
func TestRouteBudgetedSplitEqualsUninterrupted(t *testing.T) {
	u := disjoint(t)
	r := newRouter(t, u, Config{Seed: 3, DisableCertificates: true})
	pairs := []struct{ s, d graph.NodeID }{
		{0, 24},      // reachable, long walk
		{7, 18},      // reachable
		{100, 103},   // reachable, small component
		{0, 104},     // provably unreachable: full doubling burn
		{24, 424242}, // nonexistent target
	}
	for _, p := range pairs {
		want, err := r.Route(p.s, p.d)
		if err != nil {
			t.Fatalf("route %d->%d: %v", p.s, p.d, err)
		}
		for _, budget := range []int64{1, 7, 64, 1 << 40} {
			got, continuations := runToVerdict(t, r, p.s, p.d, budget)
			if got.Status != want.Status || got.Hops != want.Hops ||
				got.MaxHeaderBits != want.MaxHeaderBits || got.Bound != want.Bound ||
				got.ForwardSteps != want.ForwardSteps || got.PeakMemoryBits != want.PeakMemoryBits {
				t.Fatalf("route %d->%d budget %d: split (st %v, hops %d, hb %d, bound %d, fwd %d, mem %d) != uninterrupted (st %v, hops %d, hb %d, bound %d, fwd %d, mem %d)",
					p.s, p.d, budget,
					got.Status, got.Hops, got.MaxHeaderBits, got.Bound, got.ForwardSteps, got.PeakMemoryBits,
					want.Status, want.Hops, want.MaxHeaderBits, want.Bound, want.ForwardSteps, want.PeakMemoryBits)
			}
			if budget == 1 && continuations < 2 {
				t.Fatalf("route %d->%d: budget 1 finished in %d continuations over %d hops",
					p.s, p.d, continuations, want.Hops)
			}
			if budget == 1<<40 && continuations != 0 {
				t.Fatalf("route %d->%d: huge budget still took %d continuations", p.s, p.d, continuations)
			}
		}
	}
}

// TestRouteBudgetedCertificate: with certificates on, a budgeted request
// for an unreachable pair is answered in O(1) — no hops, no cursor.
func TestRouteBudgetedCertificate(t *testing.T) {
	r := newRouter(t, disjoint(t), Config{Seed: 3})
	res, err := r.RouteBudgeted(context.Background(), 0, 104, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != netsim.StatusFailure || res.Certificate == nil || res.Hops != 0 || res.Cursor != nil {
		t.Fatalf("certified budgeted failure = %+v", res)
	}
}

// TestRouteBudgetedDeadline: an expired context exhausts at the next round
// boundary, and the walk resumes to the uninterrupted verdict.
func TestRouteBudgetedDeadline(t *testing.T) {
	r := newRouter(t, disjoint(t), Config{Seed: 5, DisableCertificates: true})
	want, err := r.Route(0, 24)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := r.RouteBudgeted(ctx, 0, 24, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != ExhaustDeadline || res.Cursor == nil {
		t.Fatalf("expired-context result = %+v", res)
	}
	got, err := r.RouteBudgeted(context.Background(), 0, 24, 0, res.Cursor)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != want.Status || got.Hops != want.Hops || got.MaxHeaderBits != want.MaxHeaderBits {
		t.Fatalf("resumed after deadline (st %v, hops %d, hb %d) != uninterrupted (st %v, hops %d, hb %d)",
			got.Status, got.Hops, got.MaxHeaderBits, want.Status, want.Hops, want.MaxHeaderBits)
	}
}

// TestRouteBudgetedRejects covers the refusal surface: unsupported
// configurations and cursors that do not belong to the query.
func TestRouteBudgetedRejects(t *testing.T) {
	g := gen.Grid(4, 4)
	ctx := context.Background()

	ablated := newRouter(t, g, Config{Seed: 1, NoDegreeReduction: true})
	if _, err := ablated.RouteBudgeted(ctx, 0, 5, 10, nil); !errors.Is(err, ErrBudgetUnsupported) {
		t.Fatalf("ablated router error = %v, want ErrBudgetUnsupported", err)
	}
	disabled := newRouter(t, g, Config{Seed: 1, DisableFlat: true})
	if _, err := disabled.RouteBudgeted(ctx, 0, 5, 10, nil); !errors.Is(err, ErrBudgetUnsupported) {
		t.Fatalf("DisableFlat router error = %v, want ErrBudgetUnsupported", err)
	}

	r := newRouter(t, g, Config{Seed: 1})
	res, err := r.RouteBudgeted(ctx, 0, 15, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Exhausted != ExhaustBudget {
		t.Fatalf("budget-1 walk not exhausted: %+v", res)
	}
	cur := *res.Cursor
	cur.Dst = 3
	if _, err := r.RouteBudgeted(ctx, 0, 15, 1, &cur); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("mismatched-pair cursor error = %v, want ErrBadCursor", err)
	}
	cur = *res.Cursor
	cur.Version = 99
	if _, err := r.RouteBudgeted(ctx, 0, 15, 1, &cur); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("dynamic-version cursor error = %v, want ErrBadCursor", err)
	}
	cur = *res.Cursor
	cur.Node = 1 << 30
	if _, err := r.RouteBudgeted(ctx, 0, 15, 1, &cur); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("out-of-range cursor error = %v, want ErrBadCursor", err)
	}

	if res, err := r.RouteBudgeted(ctx, 9, 9, 1, nil); err != nil || res.Status != netsim.StatusSuccess {
		t.Fatalf("self route = %+v, %v", res, err)
	}
	if _, err := r.RouteBudgeted(ctx, 4242, 0, 1, nil); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("missing source error = %v", err)
	}
}

// TestRouteBudgetedUnboundedEqualsRoute pins that an unbounded RouteBudgeted
// is Route: the same Result, field for field, on a long-walk unit-disk graph
// (200 seeded pairs plus its isolated node in both roles) and on every pair
// of an 8x8 grid.
func TestRouteBudgetedUnboundedEqualsRoute(t *testing.T) {
	same := func(t *testing.T, r *Router, s, d graph.NodeID) {
		t.Helper()
		want, errWant := r.Route(s, d)
		got, errGot := r.RouteBudgeted(context.Background(), s, d, 0, nil)
		if (errWant == nil) != (errGot == nil) {
			t.Fatalf("route %d->%d: Route err %v, RouteBudgeted err %v", s, d, errWant, errGot)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("route %d->%d diverged:\nRoute:         %+v\nRouteBudgeted: %+v", s, d, want, got)
		}
	}

	udg := gen.UDG2D(1024, 0.06, 1).G
	r := newRouter(t, udg, Config{Seed: 7})
	isolated := graph.NodeID(-1)
	for _, v := range udg.SortedNodes() {
		if udg.Degree(v) == 0 {
			isolated = v
			break
		}
	}
	if isolated < 0 {
		t.Fatal("unit-disk graph has no isolated node")
	}
	same(t, r, isolated, 0)
	same(t, r, 0, isolated)
	rng := prng.New(1)
	for range 200 {
		same(t, r, graph.NodeID(rng.Intn(udg.NumNodes())), graph.NodeID(rng.Intn(udg.NumNodes())))
	}

	grid := gen.Grid(8, 8)
	r = newRouter(t, grid, Config{Seed: 7})
	for _, s := range grid.SortedNodes() {
		for _, d := range grid.SortedNodes() {
			same(t, r, s, d)
		}
	}
}
