package route

import (
	"context"
	"errors"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
	"repro/internal/prng"
	"repro/internal/trace"
)

func runWalker(t *testing.T, w *Walker, maxSteps int) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if w.Step() {
			return
		}
	}
	t.Fatalf("walker did not terminate within %d steps", maxSteps)
}

func TestWalkerSuccess(t *testing.T) {
	g := gen.Grid(3, 4)
	r := newRouter(t, g, Config{Seed: 7})
	w, err := r.Walker(0, 11)
	if err != nil {
		t.Fatal(err)
	}
	runWalker(t, w, 1<<22)
	if !w.Done() || w.Status() != netsim.StatusSuccess {
		t.Fatalf("walker = done %v status %v err %v", w.Done(), w.Status(), w.Err())
	}
	if w.Hops() <= 0 {
		t.Fatal("no hops recorded")
	}
	// Further steps are no-ops.
	if !w.Step() {
		t.Fatal("Step after done must return true")
	}
}

func TestWalkerMatchesRoute(t *testing.T) {
	// The step-wise walker must agree with the monolithic Route on both
	// verdict and total hops.
	g := gen.Grid(3, 3)
	r := newRouter(t, g, Config{Seed: 5})
	res, err := r.Route(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	w, err := r.Walker(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	runWalker(t, w, 1<<22)
	if w.Status() != res.Status {
		t.Fatalf("status %v vs %v", w.Status(), res.Status)
	}
	if w.Hops() != res.Hops {
		t.Fatalf("hops %d vs %d", w.Hops(), res.Hops)
	}
}

func TestWalkerDefinitiveFailure(t *testing.T) {
	u, err := gen.DisjointUnion(gen.Cycle(5), gen.Cycle(4), 100)
	if err != nil {
		t.Fatal(err)
	}
	r := newRouter(t, u, Config{Seed: 3})
	w, err := r.Walker(0, 101)
	if err != nil {
		t.Fatal(err)
	}
	runWalker(t, w, 1<<22)
	if w.Status() != netsim.StatusFailure {
		t.Fatalf("status = %v, want failure (err %v)", w.Status(), w.Err())
	}
	if w.Err() != nil {
		t.Fatalf("definitive failure should not be an error: %v", w.Err())
	}
}

func TestWalkerSelfRoute(t *testing.T) {
	r := newRouter(t, gen.Cycle(4), Config{Seed: 1})
	w, err := r.Walker(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Done() || w.Status() != netsim.StatusSuccess || w.Hops() != 0 {
		t.Fatalf("self walker = %v/%v/%d", w.Done(), w.Status(), w.Hops())
	}
}

func TestWalkerMissingSource(t *testing.T) {
	r := newRouter(t, gen.Cycle(4), Config{Seed: 1})
	if _, err := r.Walker(99, 0); !errors.Is(err, graph.ErrNodeNotFound) {
		t.Fatalf("error = %v", err)
	}
}

func TestWalkerKnownBound(t *testing.T) {
	g := gen.Cycle(6)
	r := newRouter(t, g, Config{Seed: 2, KnownN: 12})
	w, err := r.Walker(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	runWalker(t, w, 1<<22)
	if w.Status() != netsim.StatusSuccess {
		t.Fatalf("status = %v", w.Status())
	}
}

func TestWalkerHopsMonotonic(t *testing.T) {
	g := gen.Grid(3, 3)
	r := newRouter(t, g, Config{Seed: 9})
	w, err := r.Walker(0, 8)
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(0)
	for i := 0; i < 1<<22; i++ {
		done := w.Step()
		if h := w.Hops(); h < prev {
			t.Fatalf("hops decreased: %d -> %d", prev, h)
		} else {
			prev = h
		}
		if done {
			return
		}
	}
	t.Fatal("did not terminate")
}

// TestWalkerSize keeps the per-query Walker in the 576-byte size class: Go
// adds an 8-byte malloc header to pointerful objects over 512 bytes, so a
// Walker over 568 bytes lands in the 640-byte class and every walk
// allocates 64 bytes more.
func TestWalkerSize(t *testing.T) {
	if n := unsafe.Sizeof(Walker{}); n > 568 {
		t.Fatalf("Walker is %d bytes, want at most 568", n)
	}
}

// reentryProvider walks a static router as if its world recompiled every h
// hops: each segment is h hops long and ends in a re-entry. After every
// segment and every re-entry it records how many re-entry parts the
// sampled round's replay log holds.
type reentryProvider struct {
	r         *Router
	h         int64
	maxRounds int
	most      int
}

func (p *reentryProvider) Snapshot() (*Router, uint64, error) { return p.r, 1, nil }

func (p *reentryProvider) Limit(*Walker) int64 { return p.h }

func (p *reentryProvider) SegmentEnd(w *Walker, hops int64) (epoch, abort bool, err error) {
	p.most = max(p.most, len(w.log.parts))
	if hops < p.h {
		return false, false, nil // the round ended inside the segment
	}
	if err := w.Reenter(p.r, 1); err != nil {
		return false, false, err
	}
	p.most = max(p.most, len(w.log.parts))
	return true, false, nil
}

func (p *reentryProvider) Retry(w *Walker) error {
	if w.cur.Rounds >= p.maxRounds {
		return ErrSequenceExhausted
	}
	return nil
}

// TestReplayLogBound checks the replay log's trimming on a round that
// re-enters every h hops (h at most one ring): at its fullest it holds
// exactly ceil(ring/h) re-entry parts — the suffix a ring-long tail needs
// besides the live stepper — and the spans still count every hop the walk
// made.
func TestReplayLogBound(t *testing.T) {
	r := newRouter(t, gen.UDG2D(64, 0.3, 1).G, Config{Seed: 5, LengthFactor: 1})
	for _, c := range []struct{ ring, h int }{
		{7, 1}, {7, 3}, {7, 7}, {256, 1}, {256, 64}, {256, 100}, {256, 256},
	} {
		p := &reentryProvider{r: r, h: int64(c.h), maxRounds: 6}
		tc := trace.New(trace.Config{SampleRate: 1, HopRing: c.ring})
		tr := tc.StartRequest("walk", "")
		res, _, err := Walk(trace.NewContext(context.Background(), tr.Root()), p, "route", 0, 63, 0, nil)
		tr.Finish()
		if err != nil && !errors.Is(err, ErrSequenceExhausted) {
			t.Fatalf("ring %d h %d: %v", c.ring, c.h, err)
		}
		if bound := (c.ring + c.h - 1) / c.h; p.most != bound {
			t.Fatalf("ring %d h %d: the replay log held up to %d parts, want %d", c.ring, c.h, p.most, bound)
		}
		var hops int64
		for _, sp := range tr.Export().Spans {
			hops += sp.HopTotal
		}
		if hops != res.Hops {
			t.Fatalf("ring %d h %d: spans counted %d hops, the walk made %d", c.ring, c.h, hops, res.Hops)
		}
	}
}

// TestWalkerSkipsKnownSteps guards the shortcuts that keep the walker from
// simulating steps whose outcome is known, on route_long's network
// (gen.UDG2D(1024, 0.06, 1), protocol seed 7) over the 64 pairs of the
// engine's BenchmarkTracedLongRoute. Unsampled, no walk builds a closure
// cover (the component index decides every check), the last round's
// stepper counts only what the round before it did not walk (its hops
// minus the last round's sequence length), and every round computes its
// whole backward walk instead of walking it: the hops after its
// turnaround, which are its hops minus its sequence length on a failed
// round and minus the walk's forward steps on the delivering one. Sampled
// at ring 256, every round after the first skips the same prefix and
// every round computes the same backward walk, which its span reports as
// skipped_hops and computed_hops, so the sampled walks simulate exactly
// the unsampled steps. It counts steps, not time, so no machine's speed
// can trip it.
func TestWalkerSkipsKnownSteps(t *testing.T) {
	const n, ring = 1024, 256
	r := newRouter(t, gen.UDG2D(n, 0.06, 1).G, Config{Seed: 7})
	tc := trace.New(trace.Config{SampleRate: 1, HopRing: ring})
	src := prng.New(1)
	var reported, skipped, computed, sampled int64
	for range 64 {
		s, d := graph.NodeID(src.Intn(n)), graph.NodeID(src.Intn(n))
		if s == d || r.Certificate(s, d) != nil {
			continue // answered without a walk
		}
		w := &Walker{r: r, ns: "route", cur: Cursor{Src: s, Dst: d}, res: &Result{}}
		res, err := w.walk(context.Background(), 0, nil)
		if err != nil {
			t.Fatalf("%d->%d: %v", s, d, err)
		}
		if w.cover != nil {
			t.Fatalf("%d->%d: built a closure cover the component index decides", s, d)
		}
		rounds := res.Rounds
		last := len(rounds) - 1
		back := make([]int64, len(rounds)) // each round's hops after its turnaround
		for k, rs := range rounds {
			back[k] = rs.Hops - int64(rs.SeqLen)
		}
		if res.Status == netsim.StatusSuccess {
			back[last] = rounds[last].Hops - res.ForwardSteps
		}
		if last > 0 {
			if want := rounds[last].Hops - int64(rounds[last-1].SeqLen); w.flat.Hops() != want {
				t.Fatalf("%d->%d: the last of %d rounds counted %d hops, want %d", s, d, last+1, w.flat.Hops(), want)
			}
		}
		if got := w.flat.Computed(); got != back[last] {
			t.Fatalf("%d->%d: the last of %d rounds computed %d backward hops, want %d", s, d, last+1, got, back[last])
		}
		reported += res.Hops
		for k := range rounds {
			computed += back[k]
			if k > 0 {
				skipped += int64(rounds[k-1].SeqLen)
			}
		}

		tr := tc.StartRequest("walk", "")
		if _, err := r.RouteBudgeted(trace.NewContext(context.Background(), tr.Root()), s, d, 0, nil); err != nil {
			t.Fatalf("%d->%d sampled: %v", s, d, err)
		}
		tr.Finish()
		for _, sp := range tr.Export().Spans {
			for _, ev := range sp.Events {
				if ev.Name == "route.cover_check" && ev.Attrs["walked"] != false {
					t.Fatalf("%d->%d sampled: cover check %v, want walked false", s, d, ev.Attrs)
				}
			}
			if sp.Name != "route.round" {
				continue
			}
			k, _ := sp.Attrs["round"].(int64)
			skip, ok := sp.Attrs["skipped_hops"].(int64)
			if !ok {
				t.Fatalf("%d->%d sampled: round %d has no skipped_hops attribute", s, d, k)
			}
			if k > 1 {
				if want := int64(rounds[k-2].SeqLen); skip != want {
					t.Fatalf("%d->%d sampled: round %d skipped %d hops, want %d", s, d, k, skip, want)
				}
			}
			comp, ok := sp.Attrs["computed_hops"].(int64)
			if !ok {
				t.Fatalf("%d->%d sampled: round %d has no computed_hops attribute", s, d, k)
			}
			if want := back[k-1]; comp != want {
				t.Fatalf("%d->%d sampled: round %d computed %d backward hops, want %d", s, d, k, comp, want)
			}
			sampled += sp.HopTotal - skip - comp
		}
	}
	// Without the shortcuts, each failed round would also walk a closure
	// cover as long as its sequence: as many steps as the next round skips.
	walked := reported - skipped - computed
	t.Logf("%d reported hops: %d steps simulated unsampled, %d sampled (%d before the shortcuts, %d skipped, %d computed)",
		reported, walked, sampled, reported+skipped, skipped, computed)
	if sampled != walked {
		t.Fatalf("sampled walks simulated %d steps, unsampled ones %d", sampled, walked)
	}
}
