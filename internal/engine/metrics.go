package engine

import (
	"sync/atomic"
	"time"

	"repro/internal/count"
	"repro/internal/dynamic"
	"repro/internal/hybrid"
	"repro/internal/obs"
	"repro/internal/route"
)

// metrics is the engine's lock-free instrumentation. Counters are
// monotonic; PeakHeaderBits is a CAS-maintained maximum; the histograms
// are fixed-bucket atomics (obs.Histogram), so recording a query costs a
// handful of atomic adds — cheap enough to stay always on without
// regressing the sub-microsecond warm route path (pinned by
// BenchmarkInstrumentedSharedWorldRoute against BENCH_PR4.json).
//
// Latency is sampled: a clock-read pair costs ~90 ns on a busy serving
// host — a tenth of the whole warm route — so Route and RouteDynamic time
// every sampleEvery-th query, selected off the query counter they already
// pay for (no extra atomic op on the unsampled path). The latency
// histograms' _count therefore totals samples, not queries; use the
// *_total counters for traffic. Batch latency is always timed (batches
// are rare relative to their members), as is everything at the HTTP
// layer, where syscall costs dwarf the clock reads.
type metrics struct {
	routes     atomic.Int64
	broadcasts atomic.Int64
	counts     atomic.Int64
	hybrids    atomic.Int64
	batches    atomic.Int64
	errors     atomic.Int64

	dynamicRoutes      atomic.Int64
	dynamicEpochs      atomic.Int64
	dynamicRecompiles  atomic.Int64
	dynamicResumptions atomic.Int64

	// Bounded-work accounting: failure verdicts answered in O(1) by a
	// reachability certificate (no walk), queries that stopped on a hop
	// budget or deadline with a resume cursor, and queries that re-entered
	// a prior walk from one.
	certificates    atomic.Int64
	budgetExhausted atomic.Int64
	resumedWalks    atomic.Int64

	hops   atomic.Int64
	rounds atomic.Int64

	seqHits   atomic.Int64
	seqMisses atomic.Int64

	peakHeaderBits atomic.Int64

	// Latency distributions for the serving-relevant entry points, plus
	// the paper's own per-route quantities: the hop distribution (§3's
	// polynomial walk bound observed) and the header-bit distribution
	// (Theorem 1's O(log n) observed).
	routeSeconds   *obs.Histogram
	dynamicSeconds *obs.Histogram
	batchSeconds   *obs.Histogram
	hopsPerRoute   *obs.Histogram
	headerBits     *obs.Histogram

	// Per-network vector children, cached by AttachVecs (nil when the
	// engine is not attached to a Vecs). Cached handles keep the vector
	// map off the query path: the per-query cost is one nil check plus
	// the atomic adds the series themselves need.
	vecStatic  *obs.Counter
	vecDynamic *obs.Counter
	vecErrors  *obs.Counter
	vecSeconds *obs.Histogram
}

// sampleEvery is the latency sampling period for the sub-microsecond
// query paths (Route, RouteDynamic). Must be a power of two: the sampling
// decision is a mask on the query counter.
const sampleEvery = 8

// Value-histogram bounds: hops per route are polynomial in n (powers of
// two resolve the doubling schedule's growth); header bits are Θ(log n)
// (tight linear buckets around the observed 40-90 bit range).
var (
	hopBounds       = []int64{16, 64, 256, 1 << 10, 1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20, 1 << 22}
	headerBitBounds = []int64{16, 32, 48, 64, 80, 96, 128, 192, 256}
)

func newMetrics() *metrics {
	return &metrics{
		routeSeconds: obs.NewLatencyHistogram("adhoc_engine_route_seconds",
			"Latency of Route/RouteWithPath queries on the compiled network.", nil),
		dynamicSeconds: obs.NewLatencyHistogram("adhoc_engine_dynamic_route_seconds",
			"Latency of RouteDynamic queries over evolving worlds (includes churn-forced recompiles).", nil),
		batchSeconds: obs.NewLatencyHistogram("adhoc_engine_batch_seconds",
			"Latency of whole RouteBatch/RouteAll invocations (all members).", nil),
		hopsPerRoute: obs.NewHistogram("adhoc_engine_route_hops",
			"Message hops per routing query (the §3 walk bound, observed).", nil, hopBounds),
		headerBits: obs.NewHistogram("adhoc_engine_route_header_bits",
			"Peak serialized header bits per routing query (Theorem 1's O(log n), observed).", nil, headerBitBounds),
	}
}

// RegisterMetrics exports this engine's instrumentation into o under the
// adhoc_engine_* families: the query/hop/round counters as collect-time
// reads of the existing atomics (zero added hot-path cost), the latency
// and distribution histograms directly, and the one-time compile duration
// as a gauge. Register exactly one engine per obs.Registry (the families
// are unlabeled); the serving layer registers the boot engine and exports
// tenant engines in aggregate via the network registry.
func (e *Engine) RegisterMetrics(o *obs.Registry) error {
	ctr := func(v *atomic.Int64) func() float64 {
		return func() float64 { return float64(v.Load()) }
	}
	return o.Register(
		obs.NewCounterFunc("adhoc_engine_routes_total", "Completed Route/RouteWithPath queries (includes batch members).", nil, ctr(&e.m.routes)),
		obs.NewCounterFunc("adhoc_engine_broadcasts_total", "Completed Broadcast queries.", nil, ctr(&e.m.broadcasts)),
		obs.NewCounterFunc("adhoc_engine_counts_total", "Completed Count queries (§4 CountNodes).", nil, ctr(&e.m.counts)),
		obs.NewCounterFunc("adhoc_engine_hybrids_total", "Completed Hybrid queries (Corollary 2 race).", nil, ctr(&e.m.hybrids)),
		obs.NewCounterFunc("adhoc_engine_batches_total", "RouteBatch/RouteAll invocations (not their members).", nil, ctr(&e.m.batches)),
		obs.NewCounterFunc("adhoc_engine_errors_total", "Queries that returned an error.", nil, ctr(&e.m.errors)),
		obs.NewCounterFunc("adhoc_engine_dynamic_routes_total", "Completed RouteDynamic queries.", nil, ctr(&e.m.dynamicRoutes)),
		obs.NewCounterFunc("adhoc_engine_dynamic_epochs_total", "World epochs advanced by dynamic queries.", nil, ctr(&e.m.dynamicEpochs)),
		obs.NewCounterFunc("adhoc_engine_dynamic_recompiles_total", "Snapshot recompiles forced by topology churn.", nil, ctr(&e.m.dynamicRecompiles)),
		obs.NewCounterFunc("adhoc_engine_dynamic_resumptions_total", "Mid-walk header migrations across recompiled snapshots.", nil, ctr(&e.m.dynamicResumptions)),
		obs.NewCounterFunc("adhoc_engine_certificates_total", "Failure verdicts answered in O(1) by a reachability certificate (no walk).", nil, ctr(&e.m.certificates)),
		obs.NewCounterFunc("adhoc_engine_budget_exhausted_total", "Queries stopped by a hop budget or deadline, returning a resume cursor.", nil, ctr(&e.m.budgetExhausted)),
		obs.NewCounterFunc("adhoc_engine_resumed_walks_total", "Queries that re-entered a prior walk from a resume cursor.", nil, ctr(&e.m.resumedWalks)),
		obs.NewCounterFunc("adhoc_engine_hops_total", "Total message hops across all queries.", nil, ctr(&e.m.hops)),
		obs.NewCounterFunc("adhoc_engine_rounds_total", "Total doubling rounds across all queries.", nil, ctr(&e.m.rounds)),
		obs.NewCounterFunc("adhoc_engine_seq_cache_hits_total", "T_bound sequence-family cache hits.", nil, ctr(&e.m.seqHits)),
		obs.NewCounterFunc("adhoc_engine_seq_cache_misses_total", "T_bound sequence-family cache misses (compiles).", nil, ctr(&e.m.seqMisses)),
		obs.NewGaugeFunc("adhoc_engine_peak_header_bits", "Largest serialized header observed by any query (Theorem 1's O(log n)).", nil, ctr(&e.m.peakHeaderBits)),
		obs.NewGaugeFunc("adhoc_engine_compile_seconds", "Wall time the one-off engine compile took (degree reduction + flat snapshot).", nil,
			func() float64 { return e.compileTime.Seconds() }),
		e.m.routeSeconds,
		e.m.dynamicSeconds,
		e.m.batchSeconds,
		e.m.hopsPerRoute,
		e.m.headerBits,
	)
}

// Snapshot is a point-in-time copy of the engine metrics. Counters taken
// mid-query may be mutually inconsistent by a query's worth of updates;
// each individual value is exact.
type Snapshot struct {
	// Routes, Broadcasts, Counts, and Hybrids count completed queries by
	// kind (Routes includes RouteWithPath and batch members).
	Routes     int64 `json:"routes"`
	Broadcasts int64 `json:"broadcasts"`
	Counts     int64 `json:"counts"`
	Hybrids    int64 `json:"hybrids"`
	// Batches counts RouteBatch/RouteAll invocations (not their members).
	Batches int64 `json:"batches"`
	// Errors counts queries that returned an error.
	Errors int64 `json:"errors"`
	// DynamicRoutes counts RouteDynamic queries; the companion counters
	// total the epochs their worlds advanced, the snapshot recompiles the
	// churn forced, and the mid-walk header migrations taken.
	DynamicRoutes      int64 `json:"dynamic_routes"`
	DynamicEpochs      int64 `json:"dynamic_epochs"`
	DynamicRecompiles  int64 `json:"dynamic_recompiles"`
	DynamicResumptions int64 `json:"dynamic_resumptions"`
	// Certificates counts failure verdicts answered in O(1) by a
	// reachability certificate; BudgetExhausted counts queries stopped by a
	// hop budget or deadline (each returned a resume cursor); ResumedWalks
	// counts queries that continued a prior walk from one.
	Certificates    int64 `json:"certificates"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	ResumedWalks    int64 `json:"resumed_walks"`
	// Hops is the total message hops across all queries.
	Hops int64 `json:"hops"`
	// Rounds is the total doubling rounds across all queries.
	Rounds int64 `json:"rounds"`
	// SeqCacheHits/SeqCacheMisses instrument the T_bound family cache.
	SeqCacheHits   int64 `json:"seq_cache_hits"`
	SeqCacheMisses int64 `json:"seq_cache_misses"`
	// PeakHeaderBits is the largest serialized message header observed by
	// any query — the empirical O(log n) of Theorem 1.
	PeakHeaderBits int64 `json:"peak_header_bits"`
}

// Queries returns the total number of completed queries of all kinds.
func (s Snapshot) Queries() int64 {
	return s.Routes + s.Broadcasts + s.Counts + s.Hybrids + s.DynamicRoutes
}

// Stats returns a snapshot of the engine's metrics.
func (e *Engine) Stats() Snapshot {
	return Snapshot{
		Routes:             e.m.routes.Load(),
		Broadcasts:         e.m.broadcasts.Load(),
		Counts:             e.m.counts.Load(),
		Hybrids:            e.m.hybrids.Load(),
		Batches:            e.m.batches.Load(),
		Errors:             e.m.errors.Load(),
		Hops:               e.m.hops.Load(),
		Rounds:             e.m.rounds.Load(),
		SeqCacheHits:       e.m.seqHits.Load(),
		SeqCacheMisses:     e.m.seqMisses.Load(),
		PeakHeaderBits:     e.m.peakHeaderBits.Load(),
		DynamicRoutes:      e.m.dynamicRoutes.Load(),
		DynamicEpochs:      e.m.dynamicEpochs.Load(),
		DynamicRecompiles:  e.m.dynamicRecompiles.Load(),
		DynamicResumptions: e.m.dynamicResumptions.Load(),
		Certificates:       e.m.certificates.Load(),
		BudgetExhausted:    e.m.budgetExhausted.Load(),
		ResumedWalks:       e.m.resumedWalks.Load(),
	}
}

// The raw instrumentation histograms, exposed so the SLO layer can derive
// burn-rate sources from the numbers the scrape already shows (no second
// measurement path). Read-only for callers.

// RouteSecondsHistogram is the sampled static-route latency distribution.
func (e *Engine) RouteSecondsHistogram() *obs.Histogram { return e.m.routeSeconds }

// DynamicSecondsHistogram is the sampled dynamic-route latency distribution.
func (e *Engine) DynamicSecondsHistogram() *obs.Histogram { return e.m.dynamicSeconds }

// HopsHistogram is the hops-per-route distribution (§3's walk bound,
// observed) — the source for bound-derived hop-stretch objectives.
func (e *Engine) HopsHistogram() *obs.Histogram { return e.m.hopsPerRoute }

func (m *metrics) maxHeader(bits int) {
	v := int64(bits)
	for {
		cur := m.peakHeaderBits.Load()
		if v <= cur || m.peakHeaderBits.CompareAndSwap(cur, v) {
			return
		}
	}
}

func (m *metrics) recordErr(err error) {
	if err != nil {
		m.errors.Add(1)
	}
}

// sampleStart begins a latency sample when n (the 1-based query ordinal
// from the kind's own counter) lands on the sampling grid; the zero
// time.Time means "not sampled" to the record functions.
func sampleStart(n int64) time.Time {
	if n&(sampleEvery-1) == 0 {
		return time.Now()
	}
	return time.Time{}
}

// recordRoute books one Route/RouteWithPath outcome. The route counter
// was already incremented at query start (it doubles as the latency
// sampling grid); start is zero on unsampled queries.
func (m *metrics) recordRoute(res *route.Result, err error, start time.Time) {
	if m.vecStatic != nil {
		m.vecStatic.Inc()
		if err != nil {
			m.vecErrors.Inc()
		}
	}
	if !start.IsZero() {
		el := int64(time.Since(start))
		m.routeSeconds.Observe(el)
		if m.vecSeconds != nil {
			m.vecSeconds.Observe(el)
		}
	}
	m.recordErr(err)
	if res == nil {
		return
	}
	m.hops.Add(res.Hops)
	m.rounds.Add(int64(len(res.Rounds)))
	if res.Certificate != nil {
		m.certificates.Add(1)
	}
	if res.Exhausted != "" {
		m.budgetExhausted.Add(1)
	}
	m.hopsPerRoute.Observe(res.Hops)
	m.headerBits.Observe(int64(res.MaxHeaderBits))
	m.maxHeader(res.MaxHeaderBits)
}

func (m *metrics) recordBroadcast(res *route.BroadcastResult, err error) {
	m.broadcasts.Add(1)
	m.recordErr(err)
	if res == nil {
		return
	}
	m.hops.Add(res.Hops)
	m.rounds.Add(int64(len(res.Rounds)))
	m.maxHeader(res.MaxHeaderBits)
}

func (m *metrics) recordCount(res *count.Result, err error) {
	m.counts.Add(1)
	m.recordErr(err)
	if res == nil {
		return
	}
	m.hops.Add(res.Hops)
	m.rounds.Add(int64(res.Rounds))
}

// recordDynamic books one RouteDynamic outcome; the dynamic-route counter
// was incremented at query start, start is zero on unsampled queries.
func (m *metrics) recordDynamic(res *dynamic.Result, err error, start time.Time) {
	if m.vecDynamic != nil {
		m.vecDynamic.Inc()
		if err != nil {
			m.vecErrors.Inc()
		}
	}
	if !start.IsZero() {
		el := int64(time.Since(start))
		m.dynamicSeconds.Observe(el)
		if m.vecSeconds != nil {
			m.vecSeconds.Observe(el)
		}
	}
	m.recordErr(err)
	if res == nil {
		return
	}
	m.hops.Add(res.Hops)
	m.rounds.Add(int64(res.Rounds))
	m.dynamicEpochs.Add(int64(res.Epochs))
	m.dynamicRecompiles.Add(int64(res.Recompiles))
	m.dynamicResumptions.Add(int64(res.Resumptions))
	if res.Certificate != nil {
		m.certificates.Add(1)
	}
	if res.Exhausted != "" {
		m.budgetExhausted.Add(1)
	}
	m.hopsPerRoute.Observe(res.Hops)
	m.headerBits.Observe(int64(res.MaxHeaderBits))
	m.maxHeader(res.MaxHeaderBits)
}

func (m *metrics) recordHybrid(res *hybrid.Result, err error) {
	m.hybrids.Add(1)
	m.recordErr(err)
	if res == nil {
		return
	}
	m.hops.Add(res.CombinedSteps)
}
