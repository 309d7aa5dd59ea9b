// Package flatgraph is the compiled hot path of the routing engine: a flat
// port-table snapshot of the degree-reduced graph G′ plus allocation-free
// walk loops over it.
//
// Paper anchor: §2–§3. Every routing, broadcast, count, and hybrid query
// ultimately reduces to millions of exploration-sequence hops — one
// (inPort + T[i]) mod 3 step per hop on the degree-reduced graph of
// Figure 1. The reference execution path (package netsim driving the
// stateless handlers of package route) pays a map[NodeID][]Half lookup, an
// interface-dispatched Sequence.At, and error plumbing on every one of
// those hops. Braverman's walk rule is deliberately stateless per hop, so
// the entire loop compiles to flat-array arithmetic:
//
//   - nodes are dense int32 indices, which are also their gadget IDs, and
//     the port table is one flat []uint32 indexed by 3*node+port, since
//     every node of G′ has degree 3. Each entry packs a half-edge (far
//     node << 2 | far port; Half32.Pack), so a row costs 12 bytes and a
//     snapshot holds no pointers for the collector to scan. Only this
//     package decodes the entries: Half returns them as Half32 values.
//     Package degred writes the table directly through Pack and New wraps
//     it;
//   - the PRF symbol derivation (ues.Symbol over prng.Mix64) is inlined via
//     the concrete Seq value — no interface call. Seq is the protocol's one
//     representation of T_bound: package route derives it for every round,
//     and its reference path reads the same value as a ues.Sequence;
//   - a reduction's table is validated once when degred.Reduce builds it
//     (CheckConsistent), so the hop loop carries no per-hop error values;
//   - the walkers optionally prefetch direction blocks so the sequence
//     oracle is amortized across hops.
//
// Two walkers remain. RouteStepper.Run is the one metered, resumable hop
// loop: every route and broadcast round of package route runs on it, and
// RouteWalk is one unbounded Run. The sequences' reversibility (§2) lets
// Run skip a round's backward walk, which only retraces the forward walk
// back to its last visit to a gadget of the source: the forward loop
// records that visit and what the walk back would meter, and Run moves
// the stepper straight to the delivered state at the turnaround unless the
// limit stops the walk back first. It also lets RouteStepper.Rewind walk a
// stepper back, reporting each hop it passes over, newest first: package
// route builds a kept round's hop tail from that alone, so Run has no hop
// observer and behaves one way. CoverWalk is the unmetered local walk
// behind route.Cover, which runs the §4 closure check of every failed
// round the component index does not decide, broadcast, and ModeLocal
// counting round.
//
// Concurrency contract: a Graph is immutable after New and safe for any
// number of concurrent walkers — every walk loop works exclusively on its
// caller's stack plus the shared read-only arrays. The hop-granular
// RouteStepper holds per-walk state and is single-goroutine, but any
// number of steppers may share one Graph.
//
// The slow token engine remains the semantic reference: the walkers here
// replicate its verdicts, hop counts, traces, and even its header-size
// and memory-metering statistics exactly, and the differential tests in
// package route/count pin that equivalence on random labeled multigraphs.
package flatgraph
