// Prepared: compile a network once and serve many concurrent queries from
// the shared Router — the amortization contract of the prepared engine
// (and the serving model behind cmd/adhocd).
package main

import (
	"fmt"
	"log"

	adhocroute "repro"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	nw := adhocroute.NewUnitDisk2D(120, 0.18, 42)
	fmt.Printf("network: %d nodes, %d links\n", nw.NumNodes(), nw.NumLinks())

	// Compile performs the degree reduction and builds its flat snapshot
	// once; the Router is safe for any number of concurrent queries.
	r, err := nw.Compile(adhocroute.WithSeed(2026), adhocroute.WithWorkers(4))
	if err != nil {
		return err
	}

	// One-to-many fan-out across the worker pool: route from node 0 to
	// every node in the network (unreachable ones fail definitively).
	results := r.RouteAll(0, nw.Nodes())
	var delivered, unreachable int
	var hops int64
	for _, br := range results {
		if br.Err != nil {
			return br.Err
		}
		if br.Result.Status == adhocroute.StatusSuccess {
			delivered++
		} else {
			unreachable++
		}
		hops += br.Result.Hops
	}
	fmt.Printf("fan-out 0 -> *: %d delivered, %d definitively unreachable, %d total hops\n",
		delivered, unreachable, hops)

	// The engine metrics summarize the serving session.
	s := r.Stats()
	fmt.Printf("stats: %d queries, %d hops, %d rounds, %d errors, peak header %d bits\n",
		s.Queries, s.Hops, s.Rounds, s.Errors, s.PeakHeaderBits)
	return nil
}
