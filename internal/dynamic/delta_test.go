package dynamic

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// structSig renders a world's compiled topology in gadget-ID-free form:
// every (original, slot, port) half-edge names its far side the same way.
// Delta and full compiles of the same topology version must be equal under
// this signature — it is exactly the port-preserving isomorphism the delta
// compiler promises.
func structSig(t *testing.T, w *World) string {
	t.Helper()
	red, flat, err := w.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	type ref struct {
		orig graph.NodeID
		slot int
	}
	refs := make(map[graph.NodeID]ref, flat.NumNodes())
	for _, v := range w.Graph().Nodes() {
		for j, gid := range red.Gadget(v) {
			refs[gid] = ref{orig: v, slot: j}
		}
	}
	comps := flat.Components()
	lines := make([]string, 0, 4*flat.NumNodes())
	for i := 0; i < flat.NumNodes(); i++ {
		a := refs[graph.NodeID(i)]
		lines = append(lines, fmt.Sprintf("%d.%d@c%d", a.orig, a.slot, comps.Of(int32(i))))
		for p := int32(0); p < 3; p++ {
			h := flat.Half(int32(i), p)
			b := refs[graph.NodeID(h.To)]
			lines = append(lines, fmt.Sprintf("%d.%d:%d->%d.%d:%d", a.orig, a.slot, p, b.orig, b.slot, h.Port))
		}
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// routePair routes s→t with a frozen epoch clock (so the comparison run
// perturbs neither world) and returns the result.
func routePair(t *testing.T, w *World, s, dst graph.NodeID) *Result {
	t.Helper()
	res, err := NewRouter(w, Config{Seed: 9, HopsPerEpoch: -1}).Route(s, dst)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// compareWorlds asserts that the delta-compiled and full-compiled worlds
// are indistinguishable: same topology accounting, isomorphic snapshots,
// identical canonical components, and identical routing behaviour on
// sampled pairs — verdicts, hops, header bits, and certificate fields.
func compareWorlds(t *testing.T, ctx string, wd, wf *World, routed bool) {
	t.Helper()
	sd, sf := wd.Snapshot(), wf.Snapshot()
	if sd.Nodes != sf.Nodes || sd.Links != sf.Links || sd.Version != sf.Version {
		t.Fatalf("%s: worlds diverged: delta %+v, full %+v", ctx, sd, sf)
	}
	if gd, gf := structSig(t, wd), structSig(t, wf); gd != gf {
		t.Fatalf("%s: compiled snapshots differ structurally:\ndelta:\n%s\nfull:\n%s", ctx, gd, gf)
	}
	if !routed {
		return
	}
	_, fd, err := wd.Compiled()
	if err != nil {
		t.Fatal(err)
	}
	n := graph.NodeID(sd.Nodes)
	pairs := [][2]graph.NodeID{{0, n - 1}, {1, n / 2}, {n / 3, 0}}
	// When the topology is split, add a provably-unreachable pair so the
	// certificate path is compared too.
	if comps := fd.Components(); comps.Count() > 1 {
		var a, b graph.NodeID = -1, -1
		for i := int32(0); i < int32(fd.NumNodes()); i++ {
			if comps.Of(i) == 0 && a < 0 {
				a = fd.OriginalOf(i)
			}
			if comps.Of(i) == 1 && b < 0 {
				b = fd.OriginalOf(i)
			}
		}
		if a >= 0 && b >= 0 {
			pairs = append(pairs, [2]graph.NodeID{a, b})
		}
	}
	for _, p := range pairs {
		rd := routePair(t, wd, p[0], p[1])
		rf := routePair(t, wf, p[0], p[1])
		if rd.Status != rf.Status || rd.Hops != rf.Hops || rd.Rounds != rf.Rounds ||
			rd.MaxHeaderBits != rf.MaxHeaderBits || rd.Bound != rf.Bound {
			t.Fatalf("%s: route %d->%d diverged:\ndelta %+v\nfull  %+v", ctx, p[0], p[1], rd, rf)
		}
		if (rd.Certificate == nil) != (rf.Certificate == nil) {
			t.Fatalf("%s: route %d->%d: delta certificate %v, full certificate %v",
				ctx, p[0], p[1], rd.Certificate, rf.Certificate)
		}
		if rd.Certificate != nil {
			cd, cf := rd.Certificate, rf.Certificate
			if cd.SrcComponent != cf.SrcComponent || cd.DstComponent != cf.DstComponent ||
				cd.Components != cf.Components {
				t.Fatalf("%s: route %d->%d certificates diverged:\ndelta %+v\nfull  %+v",
					ctx, p[0], p[1], cd, cf)
			}
		}
	}
}

// TestDeltaCompileMatchesFull is the tentpole differential: two identical
// worlds under identical schedules, one compiling through the journal/delta
// path and one forced through full rebuilds, must stay indistinguishable
// across >1000 churned epochs — structure, canonical components, verdicts,
// hop counts, header bits, and certificate fields.
func TestDeltaCompileMatchesFull(t *testing.T) {
	cases := []struct {
		name   string
		epochs int
		mk     func() Schedule
		// minDeltaFrac is the fraction of rebuilds that must take the
		// delta path — the O(diff) promise, not just correctness.
		minDeltaFrac float64
	}{
		{"edge-churn", 400, func() Schedule { return &EdgeChurn{Seed: 21, PDrop: 0.04, AddRate: 1.5} }, 0.5},
		{"markov-links", 400, func() Schedule { return &MarkovLinks{Seed: 22, PDown: 0.015, PUp: 0.25} }, 0.5},
		{"random-waypoint", 250, func() Schedule {
			return &RandomWaypoint{Seed: 23, SpeedMin: 0.005, SpeedMax: 0.02, Radius: 0.35}
		}, 0.0},
	}
	total := 0
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := gen.Torus(6, 6)
			wd := NewWorld(base, tc.mk())
			wf := NewWorld(base, tc.mk())
			wf.SetDeltaCompilation(false)
			for e := 1; e <= tc.epochs; e++ {
				if err := wd.Advance(Probe{}); err != nil {
					t.Fatal(err)
				}
				if err := wf.Advance(Probe{}); err != nil {
					t.Fatal(err)
				}
				compareWorlds(t, fmt.Sprintf("%s epoch %d", tc.name, e), wd, wf, e%10 == 0)
			}
			sd := wd.Snapshot()
			if sd.FullRecompiles+sd.DeltaRecompiles != sd.Recompiles {
				t.Fatalf("split accounting: %d delta + %d full != %d total",
					sd.DeltaRecompiles, sd.FullRecompiles, sd.Recompiles)
			}
			if frac := float64(sd.DeltaRecompiles) / float64(sd.Recompiles); frac < tc.minDeltaFrac {
				t.Fatalf("only %d of %d rebuilds (%.0f%%) took the delta path, want >= %.0f%%",
					sd.DeltaRecompiles, sd.Recompiles, 100*frac, 100*tc.minDeltaFrac)
			}
			if sf := wf.Snapshot(); sf.DeltaRecompiles != 0 {
				t.Fatalf("delta-disabled world took the delta path %d times", sf.DeltaRecompiles)
			}
		})
		total += tc.epochs
	}

	// The adversarial schedule reacts to in-flight walks, so it is driven
	// by real routes on each world; walk parity makes the adversary's cuts
	// — and therefore the topologies — identical on both sides.
	t.Run("link-cutter", func(t *testing.T) {
		base := gen.Torus(6, 6)
		wd := NewWorld(base, &LinkCutter{})
		wf := NewWorld(base, &LinkCutter{})
		wf.SetDeltaCompilation(false)
		for i := 0; i < 60; i++ {
			s, dst := graph.NodeID(i%36), graph.NodeID((i*7+11)%36)
			rd, err := NewRouter(wd, Config{Seed: 31, HopsPerEpoch: 8}).Route(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			rf, err := NewRouter(wf, Config{Seed: 31, HopsPerEpoch: 8}).Route(s, dst)
			if err != nil {
				t.Fatal(err)
			}
			if rd.Status != rf.Status || rd.Hops != rf.Hops || rd.Epochs != rf.Epochs ||
				rd.MaxHeaderBits != rf.MaxHeaderBits || rd.Resumptions != rf.Resumptions {
				t.Fatalf("route %d (%d->%d) diverged under the adversary:\ndelta %+v\nfull  %+v",
					i, s, dst, rd, rf)
			}
			compareWorlds(t, fmt.Sprintf("after route %d", i), wd, wf, false)
		}
		sd := wd.Snapshot()
		if sd.Epoch < 200 {
			t.Fatalf("adversary run advanced only %d epochs", sd.Epoch)
		}
		if sd.DeltaRecompiles < sd.Recompiles/2 {
			t.Fatalf("adversary churn: only %d of %d rebuilds took the delta path",
				sd.DeltaRecompiles, sd.Recompiles)
		}
		total += sd.Epoch
	})

	if total < 1000 {
		t.Fatalf("differential covered only %d churned epochs, want >= 1000", total)
	}
}

// TestCompiledConcurrentChurn hammers World.Compiled from many goroutines
// while a mutator churns the topology: every version must be rebuilt at
// most once (concurrent routers share the rebuild), accounting must never
// tear (delta + full == total, observed == total), and the compile cache
// must end warm. Run with -race to check the locking, not just the
// counters.
func TestCompiledConcurrentChurn(t *testing.T) {
	w := NewWorld(gen.Torus(6, 6), &EdgeChurn{Seed: 5, PDrop: 0.02, AddRate: 0.8})
	var obsMu sync.Mutex
	built := make(map[uint64]int)
	observed := 0
	w.SetRecompileObserver(func(path string, version uint64, d time.Duration) {
		obsMu.Lock()
		built[version]++
		observed++
		obsMu.Unlock()
	})

	const (
		readers     = 8
		readerCalls = 400
		epochs      = 200
	)
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < readerCalls; j++ {
				if _, _, err := w.Compiled(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// The mutator churns while the readers hammer, compiling every other
	// epoch itself so the delta path is exercised even if the readers
	// drain their quota early.
	for e := 0; e < epochs; e++ {
		if err := w.Advance(Probe{}); err != nil {
			t.Fatal(err)
		}
		if e%2 == 0 {
			if _, _, err := w.Compiled(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.Gosched()
	}
	wg.Wait()
	if _, _, err := w.Compiled(); err != nil {
		t.Fatal(err)
	}

	s := w.Snapshot()
	obsMu.Lock()
	defer obsMu.Unlock()
	for v, n := range built {
		if n != 1 {
			t.Errorf("version %d was rebuilt %d times", v, n)
		}
	}
	if int64(observed) != s.Recompiles {
		t.Errorf("observer saw %d rebuilds, accounting says %d", observed, s.Recompiles)
	}
	if s.DeltaRecompiles+s.FullRecompiles != s.Recompiles {
		t.Errorf("torn split: %d delta + %d full != %d total",
			s.DeltaRecompiles, s.FullRecompiles, s.Recompiles)
	}
	if s.DeltaRecompileTime+s.FullRecompileTime != s.RecompileTime {
		t.Errorf("torn time split: %v + %v != %v",
			s.DeltaRecompileTime, s.FullRecompileTime, s.RecompileTime)
	}
	if s.DeltaRecompiles == 0 {
		t.Error("no rebuild took the delta path under churn")
	}
	if s.CacheHits == 0 {
		t.Error("no Compiled call hit the cache despite 8 hammering readers")
	}
}
