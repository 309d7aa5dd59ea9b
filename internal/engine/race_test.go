package engine

import (
	"context"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/netsim"
)

// TestConcurrentQueries is the Theorem 1 "stateless nodes" claim at the
// engine layer: one compiled engine serves many simultaneous sessions of
// every query kind with zero coordination. Run under -race this doubles as
// the data-race proof for the compiled state and the metrics.
func TestConcurrentQueries(t *testing.T) {
	g := gen.UDG2D(60, 0.2, 21).G
	e := mustCompile(t, g, Config{Seed: 17, Workers: 4})
	nodes := g.Nodes()
	dist := g.BFSDist(0)

	sessions := 32
	perSession := 6
	if testing.Short() {
		sessions = 8
	}
	var wg sync.WaitGroup
	errc := make(chan error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for q := 0; q < perSession; q++ {
				dst := nodes[(s*perSession+q*7)%len(nodes)]
				res, err := e.Route(0, dst)
				if err != nil {
					errc <- err
					return
				}
				_, reachable := dist[dst]
				want := netsim.StatusFailure
				if reachable {
					want = netsim.StatusSuccess
				}
				if res.Status != want {
					t.Errorf("session %d: Route(0,%d) = %v, want %v", s, dst, res.Status, want)
					return
				}
			}
			// Interleave the other query kinds and batches through the
			// same compiled state.
			switch s % 4 {
			case 0:
				if _, err := e.Broadcast(nodes[s%len(nodes)]); err != nil {
					errc <- err
				}
			case 1:
				if _, err := e.Count(nodes[s%len(nodes)]); err != nil {
					errc <- err
				}
			case 2:
				if _, err := e.Hybrid(0, nodes[(s*3)%len(nodes)], uint64(s)); err != nil {
					errc <- err
				}
			default:
				pairs := make([]Pair, 8)
				for i := range pairs {
					pairs[i] = Pair{Src: 0, Dst: nodes[(s+i)%len(nodes)]}
				}
				for _, br := range e.RouteBatch(context.Background(), pairs) {
					if br.Err != nil {
						errc <- br.Err
						return
					}
				}
			}
			_ = e.Stats() // snapshot while queries are in flight
		}(s)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("concurrent query error: %v", err)
	}
	if s := e.Stats(); s.Queries() == 0 || s.Errors != 0 {
		t.Fatalf("stats after stress: %+v", s)
	}
}

// TestConcurrentBatches hammers RouteBatch itself from many goroutines so
// the worker pool, result slices, and shared metrics race-test each
// other.
func TestConcurrentBatches(t *testing.T) {
	g := gen.Grid(6, 6)
	e := mustCompile(t, g, Config{Seed: 23, Workers: 3})
	nodes := g.Nodes()
	var wg sync.WaitGroup
	for b := 0; b < 12; b++ {
		wg.Add(1)
		go func(b int) {
			defer wg.Done()
			targets := make([]graph.NodeID, 12)
			for i := range targets {
				targets[i] = nodes[(b*5+i)%len(nodes)]
			}
			for _, br := range e.RouteAll(context.Background(), nodes[b%len(nodes)], targets) {
				if br.Err != nil {
					t.Errorf("batch %d: %v", b, br.Err)
					return
				}
				if br.Res.Status != netsim.StatusSuccess {
					t.Errorf("batch %d: %+v", b, br.Res)
					return
				}
			}
		}(b)
	}
	wg.Wait()
}
