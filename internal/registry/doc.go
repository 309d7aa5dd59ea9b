// Package registry is the multi-tenant serving layer's state: a bounded
// LRU cache of compiled routing engines keyed by network spec, and a
// bounded table of named long-lived dynamic worlds.
//
// Paper anchor: the protocol is compile-once and stateless per query
// (Theorem 1 keeps every per-message register in the O(log n) header and
// intermediate nodes memoryless), which is exactly the shape that serves
// many tenants from shared artifacts. The expensive work — the Figure 1
// degree reduction, the flat snapshot, the §2 sequence family —
// happens once per distinct network, and every subsequent query, from any
// client, reads the immutable compiled state. The registry
// operationalizes that amortization across networks: requests name a
// network by spec, the first request compiles it, and a bounded LRU keeps
// the hottest engines resident. Worlds do the same for dynamic state:
// instead of paying a private evolving World per request, clients create
// a named world once and route over it concurrently.
//
// Concurrency contract: Registry and Worlds are safe for concurrent use;
// each is a single mutex around its table (held only for map/list
// bookkeeping, never during a compile). Concurrent Obtains of one spec
// are deduplicated by a hand-rolled singleflight — exactly one caller
// compiles, the rest block on the flight and share the outcome — while
// Obtains of distinct specs compile in parallel. Evicted engines are
// merely forgotten, never torn down: whoever still references one (a
// world seeded from it, a request in flight) keeps using it safely,
// because compiled engines are immutable. Compile latency and
// hit/miss/dedup/eviction traffic are exported via RegisterMetrics.
package registry
