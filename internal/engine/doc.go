// Package engine implements the prepared routing engine: all per-network
// machinery compiled once, then shared by any number of concurrent
// queries.
//
// Paper anchor: the engine packages the full pipeline of Braverman's "On
// ad hoc routing with guaranteed delivery" (PODC 2008) behind one compile
// step — the Figure 1 degree reduction (every node replaced by a cycle of
// degree-3 gadgets), the port-labeled work graph G′ and its flat CSR
// snapshot, and the exploration-sequence family T_n of §2 that Algorithm
// Route (§3) and Algorithm CountNodes (§4) walk. Theorem 1's guarantees —
// delivery iff reachable, O(log n) header, O(log n) node memory — hold
// per query; the engine adds the serving-side observation that because
// the protocol keeps no per-session state anywhere, the compiled network
// is a read-only artifact any number of queries can share.
//
// Concurrency contract: Compile (or CompileWithReduced) is the only
// expensive call and must complete before the engine is shared. After it,
// every query method — Route, RouteWithPath, Broadcast, Count, Hybrid,
// RouteDynamic, and the batch entry points — is safe to call from any
// number of goroutines with zero external coordination: construction
// state is immutable, per-query state lives on the query's stack, and the
// only shared mutable state is the lock-free sequence cache (append-only
// sync.Map) and the metrics (atomic counters and fixed-bucket histograms;
// see RegisterMetrics). RouteBatch/RouteAll bound their own worker pool
// (Config.Workers) and honor context cancellation between members.
//
// Routing entry points: Route and RouteBudgeted serve the compiled
// network, RouteDynamic and RouteDynamicBudgeted an evolving world, and
// all four run package route's single walk driver. The Budgeted forms take
// the hop budget, the resume cursor, and a ctx that carries the deadline
// and — read with trace.FromContext — the request span; there are no
// separate traced variants, a sampled span in ctx is what turns per-round
// spans on. Callers that want an unbounded walk to ignore cancellation
// pass context.WithoutCancel, which keeps the span.
//
// Observability: every engine carries always-on instrumentation — query
// counters by kind, latency histograms for the route/dynamic/batch entry
// points, and the paper's own per-route quantities (hop count, header
// bits) as distributions. RegisterMetrics exports them in Prometheus form
// via internal/obs; the recording cost is a few atomic adds and two clock
// reads per query, pinned within budget by
// BenchmarkInstrumentedSharedWorldRoute.
package engine
