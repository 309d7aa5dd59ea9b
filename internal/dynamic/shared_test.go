package dynamic

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

// TestSharedWorldFrozenMatchesPrivate is the multi-tenant correctness
// pin: a world pre-advanced through a deterministic churn history and
// then queried concurrently with a frozen epoch clock must answer every
// query exactly as a private world replaying the same history does —
// verdicts and hop counts both. This is what lets the serving layer hand
// one long-lived world to many clients.
func TestSharedWorldFrozenMatchesPrivate(t *testing.T) {
	g := gen.Torus(5, 5)
	const preEpochs = 10
	mkWorld := func() *World {
		w := NewWorld(g, &EdgeChurn{Seed: 11, PDrop: 0.08, AddRate: 1})
		for i := 0; i < preEpochs; i++ {
			if err := w.Advance(Probe{}); err != nil {
				t.Fatal(err)
			}
		}
		return w
	}
	shared, private := mkWorld(), mkWorld()
	if shared.Version() != private.Version() {
		t.Fatalf("deterministic schedule diverged: versions %d vs %d", shared.Version(), private.Version())
	}

	// Frozen clock: the topology holds still during each query, so runs
	// are reproducible and comparable.
	frozen := Config{Seed: 3, HopsPerEpoch: -1}
	type want struct {
		status netsim.Status
		hops   int64
	}
	wants := make(map[graph.NodeID]want)
	for dst := graph.NodeID(0); dst < 25; dst += 3 {
		res, err := NewRouter(private, frozen).Route(0, dst)
		if err != nil {
			t.Fatalf("private route 0->%d: %v", dst, err)
		}
		wants[dst] = want{res.Status, res.Hops}
	}

	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for dst, w := range wants {
				res, err := NewRouter(shared, frozen).Route(0, dst)
				if err != nil {
					t.Errorf("shared route 0->%d: %v", dst, err)
					return
				}
				if res.Status != w.status || res.Hops != w.hops {
					t.Errorf("shared route 0->%d: status %v hops %d, private says %v/%d",
						dst, res.Status, res.Hops, w.status, w.hops)
					return
				}
			}
		}()
	}
	wg.Wait()
	if shared.Epoch() != preEpochs {
		t.Fatalf("frozen queries advanced the clock: epoch %d", shared.Epoch())
	}
}

// TestSharedWorldConcurrentChurnRouters races many routers over one world
// whose clock is live (each walk advances it), under -race: locking must
// keep the world consistent, and every route must end in a verdict or the
// explicit rounds-exhausted error — never a wrong answer or a panic.
func TestSharedWorldConcurrentChurnRouters(t *testing.T) {
	g := gen.Torus(6, 6)
	w := NewWorld(g, &MarkovLinks{Seed: 9, PDown: 0.05, PUp: 0.5})
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < 5; k++ {
				dst := graph.NodeID((7*c + 5*k) % g.NumNodes())
				res, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: 16}).Route(0, dst)
				if err != nil {
					if errors.Is(err, ErrRoundsExhausted) {
						continue
					}
					t.Errorf("router %d: %v", c, err)
					return
				}
				if res.Status != netsim.StatusSuccess && res.Status != netsim.StatusFailure {
					t.Errorf("router %d: no verdict: %+v", c, res)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if w.Epoch() == 0 {
		t.Fatal("live shared world never ticked")
	}
	// The world must still compile and serve after the storm.
	if _, _, err := w.Compiled(); err != nil {
		t.Fatalf("post-storm compile: %v", err)
	}
}

// TestSharedWorldConcurrentAdvance checks that explicit epoch advances
// (the /v1/worlds/{id}/advance shape) interleaved with concurrent routes
// are serialized and counted exactly.
func TestSharedWorldConcurrentAdvance(t *testing.T) {
	w := NewWorld(gen.Torus(4, 4), &EdgeChurn{Seed: 2, PDrop: 0.02, AddRate: 0.5})
	const drivers, each = 4, 25
	var wg sync.WaitGroup
	for d := 0; d < drivers; d++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := w.Advance(Probe{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	// Routers read snapshots while the clock spins.
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := NewRouter(w, Config{Seed: 3, HopsPerEpoch: -1}).Route(0, 9); err != nil &&
					!errors.Is(err, ErrRoundsExhausted) {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := w.Epoch(); got != drivers*each {
		t.Fatalf("epoch %d after %d advances", got, drivers*each)
	}
}

// TestWorldLockedAccessors sanity-checks the synchronized read surface
// the serving layer uses.
func TestWorldLockedAccessors(t *testing.T) {
	g := gen.Grid(3, 3)
	w := NewWorld(g, nil)
	if !w.HasNode(0) || w.HasNode(99) {
		t.Fatal("HasNode wrong")
	}
	if w.NumNodes() != 9 || w.NumEdges() != g.NumEdges() {
		t.Fatalf("NumNodes/NumEdges: %d/%d", w.NumNodes(), w.NumEdges())
	}
	if err := w.RemoveEdgeBetween(0, 1); err != nil {
		t.Fatal(err)
	}
	if w.NumEdges() != g.NumEdges()-1 {
		t.Fatalf("NumEdges after removal: %d", w.NumEdges())
	}
	if fmt.Sprint(w.Version()) != "1" {
		t.Fatalf("version %d", w.Version())
	}
}

// bridgeFlap adds the bridge u–v at odd epochs and removes it at even
// ones, so a world built without it is connected exactly at odd topology
// versions.
type bridgeFlap struct{ u, v graph.NodeID }

func (b bridgeFlap) Advance(w *World, epoch int, _ Probe) error {
	if epoch%2 == 1 {
		_, _, err := w.AddEdge(b.u, b.v)
		return err
	}
	return w.RemoveEdgeBetween(b.u, b.v)
}

// TestCertificateStampNamesItsSnapshot pins that a certificate carries the
// version of the snapshot whose component index decided it, while another
// goroutine advances the shared world as fast as it can. Two 6-cycles are
// bridged only at odd versions, so a certificate — the proof that 0 and
// 103 are disconnected — stamped with an odd version names a topology on
// which the pair was connected.
func TestCertificateStampNamesItsSnapshot(t *testing.T) {
	g, err := gen.DisjointUnion(gen.Cycle(6), gen.Cycle(6), 100)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(g, bridgeFlap{u: 0, v: 100})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := w.Advance(Probe{}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	r := NewRouter(w, Config{Seed: 3, HopsPerEpoch: -1})
	certs := 0
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		res, err := r.Route(0, 103)
		if errors.Is(err, ErrRoundsExhausted) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if c := res.Certificate; c != nil {
			certs++
			if c.Version%2 != 0 {
				t.Fatalf("certificate %d stamped with connected version %d (epoch %d)", certs, c.Version, c.Epoch)
			}
		}
	}
	if certs == 0 {
		t.Fatal("no certificate issued")
	}
	t.Logf("%d certificates, every one stamped with a disconnected version", certs)
}
