package flatgraph_test

import (
	"fmt"
	"testing"

	"repro/internal/flatgraph"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
)

// stepRun is Run(limit) one activation at a time, so it walks every
// backward hop instead of taking the walk back in one move: limit Steps,
// or fewer when the round ends first.
func stepRun(st *flatgraph.RouteStepper, limit int64) bool {
	for n := int64(0); limit < 0 || n < limit; n++ {
		if st.Step() {
			return true
		}
	}
	return st.Run(0)
}

// sameRun fails unless two steppers agree on what Run returned, where
// they stand, their header, Outcome (peak included), Turn and Err.
func sameRun(t *testing.T, label string, a, b *flatgraph.RouteStepper, da, db bool) {
	t.Helper()
	an, ap, aok := a.Turn()
	bn, bp, bok := b.Turn()
	if da != db || stateOf(a) != stateOf(b) || a.Outcome() != b.Outcome() ||
		an != bn || ap != bp || aok != bok || a.Err() != b.Err() {
		t.Fatalf("%s: computed run returned %v at %+v %+v turn (%d,%d,%v) err %v;\nwalked run returned %v at %+v %+v turn (%d,%d,%v) err %v",
			label, da, stateOf(a), a.Outcome(), an, ap, aok, a.Err(), db, stateOf(b), b.Outcome(), bn, bp, bok, b.Err())
	}
}

// TestBackwardWalkLimitEdge takes a round on a grid, toward a present and
// an absent destination, to just before its turnaround at index I, and
// checks the limits around its backward walk to the delivery at index j:
// a limit of I−j walks back and parks undone at j, delivering on the next
// call without another hop, as the walk always has; a limit of I−j+1 (or
// none) takes the walk back in one move. All end where the round stepped
// one activation at a time, which walks every hop, ends, and a delivered
// round rewinds over the same hops whichever way it got there.
func TestBackwardWalkLimitEdge(t *testing.T) {
	g := gen.Grid(4, 4)
	g.ShuffleLabels(2)
	red, f := compileReduced(t, g)
	entryID, _ := red.Entry(0)
	entry, _ := f.Index(entryID)
	seq := flatgraph.Seq{Seed: 3, Base: 3, Length: 300}
	for _, dst := range []graph.NodeID{11, 9999} {
		var st flatgraph.RouteStepper
		if err := st.Reset(f, entry, 0, 0, dst, seq, 1, false, false); err != nil {
			t.Fatal(err)
		}
		hops, stops := stepHops(t, f, st)
		walked := stops[len(stops)-1]
		var forward int64
		for _, h := range hops {
			if !h.backward {
				forward++
			}
		}
		turn, j := forward+1, walked.Outcome().DeliveredIndex
		if walked.Success() != (dst != 9999) || turn-j < 2 {
			t.Fatalf("dst %d: success %v, turnaround at %d, delivery at %d", dst, walked.Success(), turn, j)
		}
		label := fmt.Sprintf("dst %d (turnaround %d, delivery %d)", dst, turn, j)
		if st.Run(forward) {
			t.Fatalf("%s: the round ended within its forward walk", label)
		}

		short := st
		if short.Run(turn-j) || short.Index() != j || !short.Backward() || short.Hops() != forward+turn-j {
			t.Fatalf("%s: a limit of I-j left the stepper at index %d (backward %v) after %d hops, want parked at j after %d",
				label, short.Index(), short.Backward(), short.Hops(), forward+turn-j)
		}
		if short.Run(0) {
			t.Fatalf("%s: Run(0) delivered", label)
		}
		sameRun(t, label+" I-j, then 1", &short, &walked, short.Run(1), true)
		if short.Computed() != 0 {
			t.Fatalf("%s: a walked-back round reports %d computed hops", label, short.Computed())
		}

		for _, limit := range []int64{turn - j + 1, -1} {
			long := st
			sameRun(t, fmt.Sprintf("%s limit %d", label, limit), &long, &walked, long.Run(limit), true)
			if long.Computed() != turn-j {
				t.Fatalf("%s limit %d: computed %d hops, want %d", label, limit, long.Computed(), turn-j)
			}
			for _, back := range []int64{1, 2, turn - j, turn - j + 1, int64(len(hops))} {
				a, b := long, walked
				a.Rewind(back, ignoreHops)
				b.Rewind(back, ignoreHops)
				sameRun(t, fmt.Sprintf("%s limit %d rewound %d", label, limit, back), &a, &b, false, false)
				checkRewind(t, fmt.Sprintf("%s limit %d", label, limit), long, back, stateOf(&b), hops[int64(len(hops))-back:])
			}
		}
	}
}

// TestInheritedRecord walks a failed round, arms a round with a longer
// sequence of the same seed at its turnaround, as package route's jump
// does, and hands it the failed round's delivery with Inherit. Run then
// takes its walk back in one move and must end exactly as the longer
// round stepped from the entry ends; the peak is the whole walk's once
// the failed round's is included.
func TestInheritedRecord(t *testing.T) {
	g := gen.Grid(4, 4)
	g.ShuffleLabels(2)
	red, f := compileReduced(t, g)
	entryID, _ := red.Entry(0)
	entry, _ := f.Index(entryID)
	for _, dst := range []graph.NodeID{15, 9999} {
		short := flatgraph.Seq{Seed: 5, Base: 3, Length: 120}
		long := flatgraph.Seq{Seed: 5, Base: 3, Length: 480}
		var last, fresh flatgraph.RouteStepper
		if err := last.Reset(f, entry, 0, 0, dst, short, 1, false, false); err != nil {
			t.Fatal(err)
		}
		if err := fresh.Reset(f, entry, 0, 0, dst, long, 1, false, false); err != nil {
			t.Fatal(err)
		}
		stepRun(&fresh, -1)
		last.Run(-1)
		tn, tp, ok := last.Turn()
		if !ok || last.Err() != nil || fresh.Err() != nil {
			t.Fatalf("dst %d: the short round turned around %v (errors %v, %v); want a clean failure", dst, ok, last.Err(), fresh.Err())
		}
		var jumped flatgraph.RouteStepper
		if err := jumped.Reset(f, tn, tp, 0, dst, long, int64(short.Length)+1, false, false); err != nil {
			t.Fatal(err)
		}
		at, exit := last.Position()
		jumped.Inherit(at, exit, last.Index())
		if !jumped.Run(-1) || jumped.Computed() == 0 {
			t.Fatalf("dst %d: the jumped round computed %d hops", dst, jumped.Computed())
		}
		got, want := jumped.Outcome(), fresh.Outcome()
		got.Hops += int64(short.Length)
		got.PeakMemoryBits = max(got.PeakMemoryBits, last.Outcome().PeakMemoryBits)
		if stateOf(&jumped) != stateOf(&fresh) || got != want {
			t.Fatalf("dst %d: the jumped round ends at %+v %+v, the fresh one at %+v %+v",
				dst, stateOf(&jumped), got, stateOf(&fresh), want)
		}
	}
}

// FuzzBackwardWalk arms a route round on a random unit-disk graph, toward
// a destination that may be absent, at a random stop of its walk (stop 0
// is the source's entry; later ones re-arm the walk's state there, as a
// cursor does), and runs it in random segments — short, long or
// unlimited — beside a twin that runs each segment one activation at a
// time, which walks every backward hop. After every segment the two must
// agree on the return value, position, index, direction, Outcome and
// Turn. Inherited records are left out: their per-round peak differs by
// design.
func FuzzBackwardWalk(f *testing.F) {
	f.Add(uint64(1), uint64(3), uint16(5), uint16(0), uint64(1))
	f.Add(uint64(7), uint64(9), uint16(999), uint16(0), uint64(2))
	f.Add(uint64(12), uint64(300), uint16(3), uint16(40), uint64(3))
	f.Add(uint64(33), uint64(77), uint16(20), uint16(700), uint64(4))
	f.Add(uint64(5), uint64(399), uint16(2), uint16(65535), uint64(5))
	// A cursor whose walk back meters a larger charge than its forward walk.
	f.Add(uint64(217), uint64(251), uint16(71), uint16(205), uint64(91))
	f.Fuzz(func(t *testing.T, graphSeed, seqSeed uint64, dst, stop uint16, limits uint64) {
		n := 8 + int(graphSeed%40)
		red, fg := compileReduced(t, gen.UDG2D(n, 0.3, graphSeed).G)
		entryID, _ := red.Entry(0)
		entry, _ := fg.Index(entryID)
		seq := flatgraph.Seq{Seed: seqSeed, Base: 3, Length: 1 + int(seqSeed%400)}
		target := graph.NodeID(int(dst) % (n + 4))
		var st flatgraph.RouteStepper
		if err := st.Reset(fg, entry, 0, 0, target, seq, 1, false, false); err != nil {
			t.Fatal(err)
		}
		whole := st
		stepRun(&whole, -1)
		k := int64(stop) % (whole.Hops() + 1)
		probe := st
		stepRun(&probe, k)
		at := stateOf(&probe)
		if err := st.Reset(fg, at.node, at.inPort, 0, target, seq, at.index, at.backward, at.success); err != nil {
			t.Fatal(err)
		}
		twin := st
		r := prng.New(limits)
		for call := 0; ; call++ {
			if call == 1<<12 {
				t.Fatalf("the round armed at stop %d did not end in %d calls", k, call)
			}
			limit := int64(-1)
			switch r.Intn(3) {
			case 0:
				limit = int64(r.Intn(16))
			case 1:
				limit = int64(r.Intn(2*seq.Length + 2))
			}
			da, db := st.Run(limit), stepRun(&twin, limit)
			sameRun(t, fmt.Sprintf("armed at stop %d, call %d, limit %d", k, call, limit), &st, &twin, da, db)
			if da {
				break
			}
		}
	})
}
