// Package dynamic is the dynamic-network subsystem: routing over
// topologies that change while messages are in flight.
//
// Paper anchor: §1.1 assumes the contrary ("we assume that the network is
// static"), but the mechanism the paper builds — stateless intermediate
// nodes, all routing state in an O(log n) header (Theorem 1) — is exactly
// what makes the walk *resumable*: at any instant the entire run is
// (current node, header), so when the topology changes the message simply
// keeps applying the walk rule on whatever graph now exists. This package
// operationalizes that observation:
//
//   - a World owns a mutable port-labeled graph (plus optional node
//     positions), an epoch clock, and a per-epoch compile cache of the
//     Figure 1 degree reduction and its flat CSR snapshot;
//   - Schedules mutate the world at epoch boundaries: Bernoulli edge
//     churn, Markov on/off links, random-waypoint mobility that re-derives
//     unit-disk (optionally Gabriel) edges from moving positions, and an
//     adversarial scheduler that cuts the link the walk is about to use;
//   - a Router runs package route's walk driver with a snapshot provider:
//     the driver walks hop segments (flatgraph.RouteStepper on the hot
//     path, netsim.Stepper as the instrumented reference), and at each
//     segment end the provider advances the world every HopsPerEpoch hops
//     and carries the stateless header across snapshot recompiles.
//
// Verdict semantics under dynamics: a success verdict is sound by
// construction (every hop traversed a then-existing edge, so reaching a
// gadget of t is a real delivery); a failure verdict is only reported
// after the §4 closure check certifies, on the instantaneous topology,
// that t lies outside the source's component.
//
// Concurrency contract: a World is safe for concurrent use — any number
// of Routers may share one (the serving layer's named long-lived worlds),
// each advancing the clock as its own walk progresses. All world state is
// guarded by an internal mutex; Advance additionally serializes whole
// epochs so one schedule's mutation burst never interleaves with
// another's, and Compiled rebuilds the snapshot under the lock so
// concurrent routers blocked on the same stale version share one
// recompile (cache hits, misses, and rebuild time are tracked per world —
// see Snapshot). The compiled artifacts returned by Compiled are
// immutable snapshots, safe to walk after the world has moved on. A
// Router, by contrast, is per-query state: build one per walk. The one
// unlocked accessor is Graph(); concurrent readers must use the locked
// HasNode/NumNodes/NumEdges/Edges instead.
package dynamic
