package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/profrec"
	"repro/internal/registry"
	"repro/internal/route"
	"repro/internal/slo"
	"repro/internal/token"
	"repro/internal/trace"
)

// Request-handling limits. Every knob is flag-tunable; the defaults are
// the serve(1) values.
const (
	defaultMaxBody     = 1 << 20 // 1 MiB request bodies
	defaultMaxBatch    = 4096    // batch members per request
	defaultMaxInflight = 256     // concurrently admitted requests
	maxWorldAdvance    = 1024    // epochs per explicit advance request
)

// serverConfig carries the serving-layer knobs from flags (or tests) into
// newServer. The zero value enables everything at the defaults above with
// profiling off.
type serverConfig struct {
	pprof       bool
	maxBody     int64 // bytes; < 0 disables the cap
	maxBatch    int   // batch members; < 0 disables the cap
	maxInflight int   // admitted requests; < 0 disables admission control
	registry    registry.Config
	maxWorlds   int
	// metricsAddr moves GET /metrics to a dedicated listener (the ops
	// convention that keeps the scrape surface off the public port).
	// Empty serves /metrics on the main mux.
	metricsAddr string

	// Tracing knobs (see trace.go). traceSample is the head-sampling
	// probability in [0,1]; an upstream traceparent sampled flag always
	// wins, so even at 0 a caller can force a trace. traceSlow is the
	// retention latency threshold (0 retains every sampled trace — the
	// test/debug mode; negative disables latency retention, keeping only
	// errors). traceCapacity sizes the flight-recorder ring (0 = package
	// default). logOut, when non-nil, receives one structured JSON line
	// per request (-log-format=json).
	traceSample   float64
	traceSlow     time.Duration
	traceCapacity int
	logOut        io.Writer

	// SLO knobs (see slo.go). sloSpec declares the objectives ("" = the
	// defaultSLOSpec; sloDisabled turns the evaluator and GET /v1/slo off);
	// sloInterval paces the background burn-rate ticker (0 = 10s).
	sloSpec     string
	sloInterval time.Duration

	// Profile flight-recorder knobs (see profiles.go). Zero values take the
	// profrec package defaults (16 snapshots, 5s CPU window, 30s trip rate
	// limit). profGuard is the request-latency threshold that trips a
	// capture directly from ServeHTTP; 0 disables the guard (the flag
	// default is defaultProfGuard).
	profCapacity    int
	profCPUWindow   time.Duration
	profMinInterval time.Duration
	profGuard       time.Duration

	// chaos, when non-nil, is the fault injector (-chaos-* flags, gated on
	// -chaos-enable): request-level faults/delays fire in ServeHTTP, and
	// every world this server creates inherits it for compile faults, hop
	// delays, and epoch stalls.
	chaos *chaos.Injector
	// drainLog, when non-nil, receives one JSON line per resume token
	// minted while the server was draining — the in-flight walk cursors a
	// replacement instance can pick up.
	drainLog io.Writer

	// tokenKey, when non-empty, is the shared HMAC key for resume tokens
	// (-token-key). Empty keeps the single-process default: a random
	// per-boot key. Cluster mode requires a shared key — tokens must
	// verify on whichever shard the resumed walk lands on.
	tokenKey []byte
	// cluster, when non-nil, runs this server as one shard of a
	// consistent-hash cluster (-cluster): gossip membership, ownership
	// routing on /v1/networks* and /v1/worlds*, and world rebalancing.
	cluster *clusterConfig
}

func (c serverConfig) bodyLimit() int64 {
	if c.maxBody == 0 {
		return defaultMaxBody
	}
	if c.maxBody < 0 {
		return 0
	}
	return c.maxBody
}

func (c serverConfig) batchLimit() int {
	if c.maxBatch == 0 {
		return defaultMaxBatch
	}
	if c.maxBatch < 0 {
		return 0
	}
	return c.maxBatch
}

func (c serverConfig) inflightLimit() int {
	if c.maxInflight == 0 {
		return defaultMaxInflight
	}
	if c.maxInflight < 0 {
		return 0
	}
	return c.maxInflight
}

// server exposes compiled engines over HTTP/JSON. The boot network
// (compiled from the flags) serves the classic unprefixed endpoints; the
// registry compiles and caches further networks on demand
// (/v1/networks/…), and the world table holds named long-lived evolving
// topologies shared by all their clients (/v1/worlds/…). Static queries
// need no coordination (stateless protocol on immutable compiled state);
// shared worlds carry their own locking.
type server struct {
	eng  *engine.Engine
	pos  map[graph.NodeID]geom.Point // node placement, when the boot network is geometric
	desc string

	reg    *registry.Registry
	worlds *registry.Worlds

	maxBody  int64
	maxBatch int
	inflight chan struct{} // admission semaphore; nil = unlimited

	obs *obs.Registry // Prometheus metric registry (GET /metrics)
	hm  *httpMetrics  // per-endpoint request instrumentation

	tracer *trace.Tracer // request tracing + flight recorder (GET /v1/traces)
	reqLog *requestLog   // structured request log (-log-format=json); nil = quiet

	// vecs is the process-wide per-network metric family set: the boot
	// engine and every registry tenant attach their cached label children
	// to it (capped; overflow collapses into "other").
	vecs *engine.Vecs
	// slo evaluates the declared objectives as multi-window burn rates
	// (GET /v1/slo); nil when -slo=off. sloNow is its clock (a test hook);
	// sloInterval paces the background ticker RunSLO starts.
	slo         *slo.Evaluator
	sloNow      func() time.Time
	sloInterval time.Duration
	// prof is the profile flight recorder (GET /v1/profiles): tripped by a
	// burning SLO or by profGuard-slow requests.
	prof      *profrec.Recorder
	profGuard time.Duration

	// tok signs the opaque resume tokens budgeted walks mint. Without
	// -token-key the key is per-process (tokens live exactly as long as
	// the server); with it, tokens are portable across every process
	// sharing the key — the basis of cross-shard resume in cluster mode.
	tok   *token.Signer
	chaos *chaos.Injector // nil = no fault injection

	// cluster is the distribution layer (nil in single-server mode): ring
	// ownership, gossip, forwarding, world migration. See cluster.go.
	cluster *clusterNode

	// Drain state: BeginDrain flips draining (healthz goes 503) and cancels
	// drainCtx, which interrupts in-flight budgeted walks at their next
	// round boundary so each can mint a resume token before the listener
	// closes. Tokens minted while draining are persisted to drainLog.
	draining   atomic.Bool
	drainCtx   context.Context
	drainFired context.CancelFunc
	drainMu    sync.Mutex
	drainLog   io.Writer

	// retrySeq rotates the Retry-After jitter so simultaneously rejected
	// clients do not reconverge on the same retry instant.
	retrySeq atomic.Int64

	mux *http.ServeMux
}

// newServer wires the endpoint table around the boot engine plus the
// multi-tenant registry and world table. desc describes the boot network
// (shown by /v1/network); pos, when non-nil, is the placement mobility
// schedules start from. cfg.pprof additionally mounts net/http/pprof
// under /debug/pprof/; it is opt-in (the -pprof flag) because the profile
// endpoints expose internals and can be made to burn CPU on demand.
func newServer(eng *engine.Engine, pos map[graph.NodeID]geom.Point, desc string, cfg serverConfig) *server {
	s := &server{
		eng:      eng,
		pos:      pos,
		desc:     desc,
		reg:      registry.New(cfg.registry),
		worlds:   registry.NewWorlds(cfg.maxWorlds),
		maxBody:  cfg.bodyLimit(),
		maxBatch: cfg.batchLimit(),
		obs:      obs.NewRegistry(),
		tracer: trace.New(trace.Config{
			SampleRate:    cfg.traceSample,
			SlowThreshold: cfg.traceSlow,
			Capacity:      cfg.traceCapacity,
		}),
		reqLog:      newRequestLog(cfg.logOut),
		tok:         token.NewSigner(cfg.tokenKey),
		chaos:       cfg.chaos,
		drainLog:    cfg.drainLog,
		sloNow:      time.Now,
		sloInterval: cfg.sloInterval,
		profGuard:   cfg.profGuard,
		prof: profrec.New(profrec.Config{
			Capacity:    cfg.profCapacity,
			CPUWindow:   cfg.profCPUWindow,
			MinInterval: cfg.profMinInterval,
		}),
		mux: http.NewServeMux(),
	}
	// One per-network vector set for the process: the boot engine attaches
	// under "boot", and the registry attaches each tenant inside compile()
	// before the engine is published. Capacity follows the registry bound
	// plus the boot network, with slack for LRU churn (evicted networks'
	// series persist until the cap, then collapse into "other").
	nets := cfg.registry.Capacity
	if nets <= 0 {
		nets = registry.DefaultCapacity
	}
	s.vecs = engine.NewVecs(2 * (nets + 1))
	s.eng.AttachVecs(s.vecs, "boot")
	s.reg.SetVecs(s.vecs)
	// Bind the SLO objectives to the boot engine's metrics. run() already
	// validated the flag value against the same builder, so a failure here
	// is a wiring bug, not user input.
	if spec := resolveSLOSpec(cfg.sloSpec); spec != "" {
		objs, err := buildObjectives(s.eng, spec)
		if err != nil {
			panic(fmt.Sprintf("adhocd: %v", err))
		}
		s.slo = slo.NewEvaluator(objs...)
		// A burning objective trips the profile flight recorder: the CPU
		// and heap evidence is captured during the incident, not after.
		s.slo.OnBurn = func(name string) { s.prof.Trip("slo:" + name) }
	}
	s.drainCtx, s.drainFired = context.WithCancel(context.Background())
	if n := cfg.inflightLimit(); n > 0 {
		s.inflight = make(chan struct{}, n)
	}
	// The cluster node must exist before the endpoint table: the tenant
	// routes below are wrapped with ownership routing, and the wrapper
	// reads s.cluster per request (nil = serve locally, the single-server
	// fast path).
	if cfg.cluster != nil {
		s.cluster = newClusterNode(s, *cfg.cluster)
	}
	// handle registers a route and collects its pattern so the HTTP
	// metrics layer pre-builds one latency histogram + status counters per
	// endpoint (the per-request path is then a read-only map lookup).
	var patterns []string
	handle := func(pattern string, h http.HandlerFunc) {
		s.mux.HandleFunc(pattern, h)
		patterns = append(patterns, pattern)
	}
	handle("GET /healthz", s.handleHealth)
	handle("GET /v1/network", s.handleNetwork)
	handle("GET /v1/stats", s.handleStats)
	handle("POST /v1/route", s.defaultEngine(s.handleRoute))
	handle("POST /v1/batch", s.defaultEngine(s.handleBatch))
	handle("POST /v1/broadcast", s.handleBroadcast)
	handle("POST /v1/count", s.handleCount)
	handle("POST /v1/hybrid", s.handleHybrid)
	handle("POST /v1/dynamic", s.handleDynamic)

	// Multi-tenant surface: runtime-compiled networks and shared worlds.
	// Each route is wrapped with cluster ownership routing (a nil check in
	// single-server mode): the key derivations place networks by their
	// spec-derived ID and worlds by name, so every shard resolves the same
	// owner for the same resource. List endpoints stay local — each shard
	// reports what it serves.
	handle("POST /v1/networks", s.clustered(netCreateKey, s.handleNetworkCreate))
	handle("GET /v1/networks", s.handleNetworkList)
	handle("GET /v1/networks/{id}", s.clustered(netIDKey, s.handleNetworkInfo))
	handle("POST /v1/networks/{id}/route", s.clustered(netIDKey, s.namedEngine(s.handleRoute)))
	handle("POST /v1/networks/{id}/batch", s.clustered(netIDKey, s.namedEngine(s.handleBatch)))
	handle("POST /v1/worlds", s.clustered(worldCreateKey, s.handleWorldCreate))
	handle("GET /v1/worlds", s.handleWorldList)
	handle("GET /v1/worlds/{id}", s.clustered(worldIDKey, s.handleWorldInfo))
	handle("POST /v1/worlds/{id}/advance", s.clustered(worldIDKey, s.handleWorldAdvance))
	handle("POST /v1/worlds/{id}/route", s.clustered(worldIDKey, s.handleWorldRoute))
	handle("DELETE /v1/worlds/{id}", s.clustered(worldIDKey, s.handleWorldDelete))

	// The cluster control surface: the shard map, the gossip exchange, and
	// the world-migration handoff (the latter two bypass admission control
	// in ServeHTTP — membership and drain must work on a saturated shard).
	if s.cluster != nil {
		handle("GET /v1/cluster", s.cluster.handleInfo)
		handle("POST "+cluster.GossipPath, s.cluster.handleGossip)
		handle("POST "+migratePath, s.cluster.handleMigrate)
	}

	// Flight recorder: retained slow/failed traces, newest first.
	handle("GET /v1/traces", s.handleTraceList)
	handle("GET /v1/traces/{id}", s.handleTraceGet)

	// SLO burn state and the profile flight recorder's captures.
	if s.slo != nil {
		handle("GET /v1/slo", s.handleSLO)
	}
	handle("GET /v1/profiles", s.handleProfileList)
	handle("GET /v1/profiles/{id}", s.handleProfileGet)

	// The scrape endpoint stays on the main mux unless an ops-dedicated
	// listener was requested (-metrics-addr), in which case serve() mounts
	// MetricsHandler there instead.
	if cfg.metricsAddr == "" {
		handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
			s.obs.Handler().ServeHTTP(w, r)
		})
	}

	if cfg.pprof && cfg.metricsAddr == "" {
		// pprof.Index dispatches the named profiles (heap, goroutine, …)
		// itself; only the handlers with dedicated logic need explicit
		// routes. With a dedicated ops listener (-metrics-addr) the
		// profile endpoints move there instead — serve() mounts them next
		// to /metrics — keeping the public port free of introspection
		// surfaces.
		handle("GET /debug/pprof/", pprof.Index)
		handle("GET /debug/pprof/cmdline", pprof.Cmdline)
		handle("GET /debug/pprof/profile", pprof.Profile)
		handle("GET /debug/pprof/symbol", pprof.Symbol)
		handle("GET /debug/pprof/trace", pprof.Trace)
	}
	// Registration can only fail on a static wiring bug (duplicate metric
	// family); panic so any test catches it immediately.
	if err := s.registerMetrics(patterns); err != nil {
		panic(fmt.Sprintf("adhocd: metric registration: %v", err))
	}
	return s
}

// MetricsHandler serves the Prometheus exposition — mounted on the main
// mux (default) or a dedicated -metrics-addr listener.
func (s *server) MetricsHandler() http.Handler { return s.obs.Handler() }

// ServeHTTP implements http.Handler: metering, admission control, then
// the request body cap, then the endpoint table. Liveness probes bypass
// admission — a saturated server is still alive. Every request (including
// rejected and unmatched ones) is metered: latency by endpoint pattern,
// status class, and the in-flight gauge.
func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	sr := &statusRecorder{ResponseWriter: w}
	s.hm.inflight.Inc()
	defer s.hm.inflight.Dec()
	// Tracing decides per request (upstream traceparent or sampling coin);
	// a sampled request carries its root span in the context for the
	// handlers to hang walk spans off.
	tr, r := s.startTrace(sr, r)
	// r.Pattern is filled in by the mux match (empty for 404s and
	// admission rejections, which land in the "other" endpoint bucket).
	defer func() {
		// Sampled requests carry their trace ID into the latency histogram
		// as an OpenMetrics exemplar — the join key from a slow bucket to
		// the retained trace in /v1/traces/{id}.
		traceID := ""
		if tr.Sampled() {
			traceID = tr.ID().String()
		}
		s.hm.record(r.Pattern, sr.status(), start, traceID)
		// The latency guard: one pathological request is an incident worth
		// profiling even before an SLO window accumulates enough spend to
		// burn. Trip is rate-limited inside the recorder.
		if s.profGuard > 0 && time.Since(start) >= s.profGuard {
			s.prof.Trip("latency-guard:" + r.Pattern)
		}
		s.finishTrace(tr, r, sr.status())
		s.reqLog.write(r, sr.status(), time.Since(start), tr)
	}()
	// Liveness probes and metric scrapes bypass admission: a saturated
	// server is still alive, and monitoring must not go blind during
	// exactly the overload it exists to observe. (With -metrics-addr the
	// dedicated listener skips ServeHTTP entirely; this covers the
	// default main-mux mount.)
	if r.Method == http.MethodGet && (r.URL.Path == "/healthz" || r.URL.Path == "/metrics") {
		s.mux.ServeHTTP(sr, r)
		return
	}
	// Cluster control traffic also bypasses admission (and request chaos):
	// an overloaded shard must not be gossiped dead by its own admission
	// control, and a draining shard must be able to hand worlds to a busy
	// peer. Both handlers apply their own body caps.
	if s.cluster != nil && r.Method == http.MethodPost &&
		(r.URL.Path == cluster.GossipPath || r.URL.Path == migratePath) {
		s.mux.ServeHTTP(sr, r)
		return
	}
	if s.inflight != nil {
		select {
		case s.inflight <- struct{}{}:
			defer func() { <-s.inflight }()
		default:
			s.hm.rejected.Inc()
			sr.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
			writeJSON(sr, http.StatusTooManyRequests,
				errorBody{Error: "server at capacity: too many in-flight requests"})
			return
		}
	}
	// Handler-level chaos fires after admission so injected faults consume
	// a real admission slot (the overload they simulate would too), but
	// before any routing work. Nil injector costs one branch.
	s.chaos.RequestDelay()
	if err := s.chaos.RequestFault(); err != nil {
		writeJSON(sr, http.StatusInternalServerError, errorBody{Error: err.Error()})
		return
	}
	if s.maxBody > 0 && r.Body != nil {
		// Oversized bodies fail inside decodeBody with a MaxBytesError,
		// mapped to 413 there. MaxBytesReader gets the raw writer, not
		// the metering wrapper: it detects the server's response type by
		// direct assertion (no Unwrap) to set Connection: close when the
		// limit trips, and the wrapper would defeat that.
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	s.mux.ServeHTTP(sr, r)
}

// retryAfterSeconds derives backoff advice for a rejected request from how
// oversubscribed the server is: the deeper the queue of requests beyond the
// admission cap, the longer the advice, plus a small rotating jitter so the
// rejected cohort does not retry in lockstep and re-collide. Successive
// rejections therefore get different values (pinned by a regression test) —
// the old fixed "1" synchronized every rejected client onto the same retry
// instant.
func (s *server) retryAfterSeconds() int {
	over := int64(0)
	if s.inflight != nil {
		// The in-flight gauge counts every request inside ServeHTTP, admitted
		// or not; the surplus over the admission cap is the rejected crowd
		// currently being told to come back.
		over = s.hm.inflight.Value() - int64(cap(s.inflight))
	}
	if over < 0 {
		over = 0
	}
	sec := 1 + over/8 + s.retrySeq.Add(1)%3
	if sec > 30 {
		sec = 30
	}
	return int(sec)
}

// BeginDrain moves the server into draining: healthz answers 503 so load
// balancers stop sending traffic, and the drain context is canceled, which
// interrupts in-flight budgeted walks at their next round boundary so each
// can mint a resume token (persisted to the drain log when configured)
// before the listener closes. Idempotent.
func (s *server) BeginDrain() {
	if s.draining.CompareAndSwap(false, true) {
		s.drainFired()
		// In cluster mode, drain is also departure: broadcast the death
		// verdict (peers shrink their rings immediately instead of waiting
		// out the failure detector) and hand every local world to its new
		// owner while the listener is still up to answer forwards.
		if s.cluster != nil {
			s.cluster.leave()
		}
	}
}

// walkCtx builds the walk context for a query; it carries the request's
// span either way. A bounded query (budget, deadline, or resume token)
// joins the request context (client disconnects cancel the walk) with the
// drain context (drain interrupts the walk so it can hand back a cursor),
// plus the client's deadline when one was asked for. An unbounded query
// ignores both and runs to its verdict, since it has no way to hand back a
// cursor.
func (s *server) walkCtx(r *http.Request, bounded bool, deadlineMS int64) (context.Context, context.CancelFunc) {
	if !bounded {
		return context.WithoutCancel(r.Context()), func() {}
	}
	ctx, cancel := context.WithCancel(r.Context())
	stop := context.AfterFunc(s.drainCtx, cancel)
	if s.drainCtx.Err() != nil {
		// AfterFunc delivers asynchronously; a walk admitted after the drain
		// began must observe the cancellation before its first round, not
		// race the callback goroutine.
		cancel()
	}
	if deadlineMS > 0 {
		var tcancel context.CancelFunc
		ctx, tcancel = context.WithTimeout(ctx, time.Duration(deadlineMS)*time.Millisecond)
		inner := cancel
		cancel = func() { tcancel(); inner() }
	}
	return ctx, func() { stop(); cancel() }
}

// logDrainCursor persists one resume token minted while draining: a JSON
// line a replacement instance (or the restarted client) can replay. Outside
// a drain, or without a drain log, it is a no-op.
func (s *server) logDrainCursor(scope string, src, dst int64, tok string) {
	if s.drainLog == nil || !s.draining.Load() {
		return
	}
	line, err := json.Marshal(struct {
		Scope  string `json:"scope"`
		Src    int64  `json:"src"`
		Dst    int64  `json:"dst"`
		Resume string `json:"resume"`
	}{scope, src, dst, tok})
	if err != nil {
		return
	}
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	_, _ = s.drainLog.Write(append(line, '\n'))
}

// engineHandler is a query handler parameterized by the engine it serves —
// the same handler code serves the boot network and every registry tenant.
// scope names the engine for resume-token binding: a token minted against
// one network (or world) cannot be replayed against another.
type engineHandler func(w http.ResponseWriter, r *http.Request, eng *engine.Engine, scope string)

// scopeBoot is the resume-token scope of the boot network's endpoints.
const scopeBoot = "net:boot"

// defaultEngine binds an engineHandler to the boot network.
func (s *server) defaultEngine(h engineHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) { h(w, r, s.eng, scopeBoot) }
}

// namedEngine binds an engineHandler to the registry network named in the
// {id} path segment. An unknown (or evicted) ID is 404: the client
// re-registers the spec via POST /v1/networks, which is idempotent.
func (s *server) namedEngine(h engineHandler) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ent, ok := s.networkFor(w, r.PathValue("id"))
		if !ok {
			return
		}
		h(w, r, ent.Eng, "net:"+ent.ID)
	}
}

// writeJSON emits v with the proper content type.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

// writeErr maps routing errors onto HTTP statuses: unknown nodes are 404,
// an unusable resume cursor or an unsupported budget combination is 400
// (the client sent it), everything else a query can provoke is 500 (the
// engine validated the request shape by then).
func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusInternalServerError
	switch {
	case errors.Is(err, graph.ErrNodeNotFound):
		status = http.StatusNotFound
	case errors.Is(err, route.ErrBadCursor), errors.Is(err, route.ErrBudgetUnsupported):
		status = http.StatusBadRequest
	}
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeBody parses the request body into v, rejecting unknown fields so
// client typos surface as 400s instead of silent defaults. A body over
// the server's size cap is 413; trailing data after the JSON value is
// 400 (a second concatenated payload must not be silently dropped).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeDecodeErr(w, err)
		return false
	}
	if err := dec.Decode(new(json.RawMessage)); !errors.Is(err, io.EOF) {
		if err != nil {
			writeDecodeErr(w, err)
			return false
		}
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "trailing data after JSON body"})
		return false
	}
	return true
}

// writeDecodeErr distinguishes "body too large" (413, the cap is the
// server's) from malformed JSON (400, the bytes are the client's).
func writeDecodeErr(w http.ResponseWriter, err error) {
	var tooBig *http.MaxBytesError
	if errors.As(err, &tooBig) {
		writeJSON(w, http.StatusRequestEntityTooLarge,
			errorBody{Error: fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit)})
		return
	}
	writeJSON(w, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("bad request body: %v", err)})
}

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		// 503 tells load balancers to stop routing here; in-flight work is
		// still finishing (or minting resume tokens) under -drain-timeout.
		writeJSON(w, http.StatusServiceUnavailable, struct {
			OK     bool   `json:"ok"`
			Status string `json:"status"`
		}{false, "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"ok": true})
}

// networkInfo describes a served network. The shape contract shared with
// worldInfo (pinned by TestInfoShapeContract): nodes, links, and
// compile_ms always present and consistent.
type networkInfo struct {
	ID           string  `json:"id,omitempty"`
	Desc         string  `json:"desc"`
	Nodes        int     `json:"nodes"`
	Links        int     `json:"links"`
	ReducedNodes int     `json:"reduced_nodes"`
	Workers      int     `json:"workers"`
	Seed         uint64  `json:"seed"`
	CompileMS    float64 `json:"compile_ms"`
	// Spec is the canonical spec a registry network was compiled from,
	// included by GET /v1/networks/{id} only: with it, any client (or
	// shard) can re-register the identical network anywhere — the ID is
	// spec-derived, so the round trip is exact.
	Spec *registry.Spec `json:"spec,omitempty"`
}

// infoOf summarizes a served engine. compile is the one-off preparation
// cost: the engine compile for the boot network, topology build + compile
// for registry tenants (Entry.CompileTime).
func infoOf(id, desc string, eng *engine.Engine, compile time.Duration) networkInfo {
	return networkInfo{
		ID:           id,
		Desc:         desc,
		Nodes:        eng.Graph().NumNodes(),
		Links:        eng.Graph().NumEdges(),
		ReducedNodes: eng.Reduced().Graph().NumNodes(),
		Workers:      eng.Workers(),
		Seed:         eng.Config().Seed,
		CompileMS:    float64(compile) / float64(time.Millisecond),
	}
}

func (s *server) handleNetwork(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, infoOf("", s.desc, s.eng, s.eng.CompileDuration()))
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	snap := s.eng.Stats()
	// The chaos block appears only when fault injection is armed, so the
	// steady-state stats shape is unchanged.
	var chaosStats *chaos.Stats
	if s.chaos != nil {
		cs := s.chaos.Stats()
		chaosStats = &cs
	}
	writeJSON(w, http.StatusOK, struct {
		engine.Snapshot
		Queries  int64          `json:"queries"`
		Registry registry.Stats `json:"registry"`
		Worlds   int            `json:"worlds"`
		Chaos    *chaos.Stats   `json:"chaos,omitempty"`
	}{Snapshot: snap, Queries: snap.Queries(), Registry: s.reg.Stats(), Worlds: s.worlds.Len(), Chaos: chaosStats})
}

// routeRequest asks for one s→t query; WithPath additionally reconstructs
// the forward path. The bounded-work knobs: BudgetHops caps the walk's
// message hops, DeadlineMS bounds its wall time, and Resume continues an
// earlier exhausted walk from its (signed, opaque) token. Any of the three
// makes the query budgeted — incompatible with with_path, whose path
// reconstruction needs the uninterrupted walk.
type routeRequest struct {
	Src        int64  `json:"src"`
	Dst        int64  `json:"dst"`
	WithPath   bool   `json:"with_path,omitempty"`
	BudgetHops int64  `json:"budget_hops,omitempty"`
	DeadlineMS int64  `json:"deadline_ms,omitempty"`
	Resume     string `json:"resume,omitempty"`
}

// bounded reports whether the request asked for a budgeted walk.
func (req routeRequest) bounded() bool {
	return req.BudgetHops > 0 || req.DeadlineMS > 0 || req.Resume != ""
}

// routeReply reports one routing outcome. Status "budget_exhausted" means
// no verdict yet: Exhausted says which limit struck (budget or deadline)
// and Resume is the token that continues the walk where it stopped.
// Certificate, when present, proves the failure verdict was answered in
// O(1) from the component index instead of by walking.
type routeReply struct {
	Src          int64              `json:"src"`
	Dst          int64              `json:"dst"`
	Status       string             `json:"status"`
	Hops         int64              `json:"hops"`
	ForwardSteps int64              `json:"forward_steps"`
	Rounds       int                `json:"rounds"`
	Bound        int                `json:"bound"`
	HeaderBits   int                `json:"header_bits"`
	Path         []int64            `json:"path,omitempty"`
	Exhausted    string             `json:"exhausted,omitempty"`
	Resume       string             `json:"resume,omitempty"`
	Certificate  *route.Certificate `json:"certificate,omitempty"`
	Error        string             `json:"error,omitempty"`
}

// statusBudgetExhausted is the reply status of a walk stopped by a budget
// or deadline: not a verdict, resume with the token to get one.
const statusBudgetExhausted = "budget_exhausted"

func routeReplyOf(src, dst graph.NodeID, res *route.Result) routeReply {
	return routeReply{
		Src:          int64(src),
		Dst:          int64(dst),
		Status:       res.Status.String(),
		Hops:         res.Hops,
		ForwardSteps: res.ForwardSteps,
		Rounds:       len(res.Rounds),
		Bound:        res.Bound,
		HeaderBits:   res.MaxHeaderBits,
		Certificate:  res.Certificate,
	}
}

func (s *server) handleRoute(w http.ResponseWriter, r *http.Request, eng *engine.Engine, scope string) {
	var req routeRequest
	if !decodeBody(w, r, &req) {
		return
	}
	src, dst := graph.NodeID(req.Src), graph.NodeID(req.Dst)
	if req.WithPath {
		if req.bounded() {
			writeJSON(w, http.StatusBadRequest,
				errorBody{Error: "with_path cannot be combined with budget_hops, deadline_ms, or resume"})
			return
		}
		res, path, err := eng.RouteWithPath(src, dst)
		if err != nil {
			writeErr(w, err)
			return
		}
		reply := routeReplyOf(src, dst, res)
		for _, v := range path {
			reply.Path = append(reply.Path, int64(v))
		}
		writeJSON(w, http.StatusOK, reply)
		return
	}
	cur, ok := s.verifyResume(w, scope, req.Resume)
	if !ok {
		return
	}
	ctx, cancel := s.walkCtx(r, req.bounded(), req.DeadlineMS)
	defer cancel()
	res, err := eng.RouteBudgeted(ctx, src, dst, req.BudgetHops, cur)
	if err != nil {
		writeErr(w, err)
		return
	}
	reply := routeReplyOf(src, dst, res)
	if res.Exhausted != "" {
		tok, err := s.tok.Sign(scope, res.Cursor)
		if err != nil {
			writeErr(w, err)
			return
		}
		reply.Status = statusBudgetExhausted
		reply.Exhausted = string(res.Exhausted)
		reply.Resume = tok
		s.logDrainCursor(scope, req.Src, req.Dst, tok)
	}
	writeJSON(w, http.StatusOK, reply)
}

// verifyResume authenticates an optional resume token for scope, answering
// 400 itself on any verification failure. An empty token is a nil cursor.
func (s *server) verifyResume(w http.ResponseWriter, scope, tok string) (*route.Cursor, bool) {
	if tok == "" {
		return nil, true
	}
	cur, err := s.tok.Verify(scope, tok)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return nil, false
	}
	return cur, true
}

// batchRequest carries either explicit pairs or a one-to-many fan-out
// (src + targets). Exactly one of the two shapes must be used.
type batchRequest struct {
	Pairs   [][2]int64 `json:"pairs,omitempty"`
	Src     *int64     `json:"src,omitempty"`
	Targets []int64    `json:"targets,omitempty"`
}

// batchReply reports a whole batch; members appear in request order.
type batchReply struct {
	Results   []routeReply `json:"results"`
	Succeeded int          `json:"succeeded"`
	Failed    int          `json:"failed"`
}

func (s *server) handleBatch(w http.ResponseWriter, r *http.Request, eng *engine.Engine, _ string) {
	var req batchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	// One request must not purchase unbounded walk work: the member count
	// is capped server-side (the batch analogue of the dynamics clamps).
	if n := len(req.Pairs) + len(req.Targets); s.maxBatch > 0 && n > s.maxBatch {
		writeJSON(w, http.StatusBadRequest,
			errorBody{Error: fmt.Sprintf("batch of %d members exceeds server limit %d", n, s.maxBatch)})
		return
	}
	var pairs []engine.Pair
	switch {
	case len(req.Pairs) > 0 && (req.Src != nil || len(req.Targets) > 0):
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "use either pairs or src+targets, not both"})
		return
	case len(req.Pairs) > 0:
		pairs = make([]engine.Pair, len(req.Pairs))
		for i, p := range req.Pairs {
			pairs[i] = engine.Pair{Src: graph.NodeID(p[0]), Dst: graph.NodeID(p[1])}
		}
	case req.Src != nil && len(req.Targets) > 0:
		pairs = make([]engine.Pair, len(req.Targets))
		for i, t := range req.Targets {
			pairs[i] = engine.Pair{Src: graph.NodeID(*req.Src), Dst: graph.NodeID(t)}
		}
	default:
		writeJSON(w, http.StatusBadRequest, errorBody{Error: "empty batch: provide pairs or src+targets"})
		return
	}
	// The request context cancels members that have not started when the
	// client disconnects, so an abandoned fan-out stops burning workers.
	reply := batchReply{Results: make([]routeReply, len(pairs))}
	for i, br := range eng.RouteBatch(r.Context(), pairs) {
		if br.Err != nil {
			reply.Results[i] = routeReply{Src: int64(br.Src), Dst: int64(br.Dst), Error: br.Err.Error()}
			reply.Failed++
			continue
		}
		reply.Results[i] = routeReplyOf(br.Src, br.Dst, br.Res)
		reply.Succeeded++
	}
	writeJSON(w, http.StatusOK, reply)
}

// sourceRequest is the single-source request shape (broadcast, count).
type sourceRequest struct {
	Src int64 `json:"src"`
}

func (s *server) handleBroadcast(w http.ResponseWriter, r *http.Request) {
	var req sourceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.eng.Broadcast(graph.NodeID(req.Src))
	if err != nil {
		writeErr(w, err)
		return
	}
	nodes := make([]int64, len(res.Nodes))
	for i, v := range res.Nodes {
		nodes[i] = int64(v)
	}
	writeJSON(w, http.StatusOK, struct {
		Src     int64   `json:"src"`
		Reached int     `json:"reached"`
		Nodes   []int64 `json:"nodes"`
		Hops    int64   `json:"hops"`
		Rounds  int     `json:"rounds"`
	}{req.Src, res.Reached, nodes, res.Hops, len(res.Rounds)})
}

func (s *server) handleCount(w http.ResponseWriter, r *http.Request) {
	var req sourceRequest
	if !decodeBody(w, r, &req) {
		return
	}
	res, err := s.eng.Count(graph.NodeID(req.Src))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Src          int64 `json:"src"`
		Count        int   `json:"count"`
		ReducedCount int   `json:"reduced_count"`
		Rounds       int   `json:"rounds"`
		MessageHops  int64 `json:"message_hops"`
	}{req.Src, res.OriginalCount, res.ReducedCount, res.Rounds, res.Hops})
}

// hybridRequest asks for a Corollary 2 race. WalkSeed is a pointer so an
// explicit seed of 0 is distinguishable from "use the engine default".
type hybridRequest struct {
	Src      int64   `json:"src"`
	Dst      int64   `json:"dst"`
	WalkSeed *uint64 `json:"walk_seed,omitempty"`
}

func (s *server) handleHybrid(w http.ResponseWriter, r *http.Request) {
	var req hybridRequest
	if !decodeBody(w, r, &req) {
		return
	}
	walkSeed := s.eng.Config().Seed ^ 0x5eed
	if req.WalkSeed != nil {
		walkSeed = *req.WalkSeed
	}
	res, err := s.eng.Hybrid(graph.NodeID(req.Src), graph.NodeID(req.Dst), walkSeed)
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Src           int64  `json:"src"`
		Dst           int64  `json:"dst"`
		Status        string `json:"status"`
		Winner        string `json:"winner"`
		CombinedSteps int64  `json:"combined_steps"`
	}{req.Src, req.Dst, res.Status.String(), res.Winner, res.CombinedSteps})
}

// Server-side bounds on the dynamics knobs: a round is already capped by
// the sequence budget, so capping rounds and the epoch frequency bounds
// the total recompile work one request can demand.
const (
	maxDynamicRounds       = 256
	minDynamicHopsPerEpoch = 8
)

// clampDynamics applies the server-side bounds to client dynamics knobs.
// A negative hops_per_epoch freezes the epoch clock (the world evolves
// only via explicit advances), which is cheaper than any positive value
// and therefore always allowed.
func clampDynamics(hopsPerEpoch, maxRounds int) dynamic.Config {
	cfg := dynamic.Config{HopsPerEpoch: hopsPerEpoch, MaxRounds: maxRounds}
	if cfg.MaxRounds > maxDynamicRounds {
		cfg.MaxRounds = maxDynamicRounds
	}
	if cfg.HopsPerEpoch > 0 && cfg.HopsPerEpoch < minDynamicHopsPerEpoch {
		cfg.HopsPerEpoch = minDynamicHopsPerEpoch
	}
	return cfg
}

// dynamicRequest asks for one s→t query over an evolving private copy of
// the served network. The schedule spec selects and parameterizes the
// dynamics; hops_per_epoch couples protocol time to topology time
// (values below the server minimum are raised to it; rounds are capped).
type dynamicRequest struct {
	Src          int64        `json:"src"`
	Dst          int64        `json:"dst"`
	Schedule     dynamic.Spec `json:"schedule"`
	HopsPerEpoch int          `json:"hops_per_epoch,omitempty"`
	MaxRounds    int          `json:"max_rounds,omitempty"`
}

// dynamicReply reports the outcome plus the dynamics accounting: how many
// epochs elapsed, what the churn cost in recompiles, and how often the
// stateless header migrated across snapshots.
type dynamicReply struct {
	Src           int64              `json:"src"`
	Dst           int64              `json:"dst"`
	Status        string             `json:"status"`
	Hops          int64              `json:"hops"`
	Rounds        int                `json:"rounds"`
	AbortedRounds int                `json:"aborted_rounds"`
	Bound         int                `json:"bound"`
	Epochs        int                `json:"epochs"`
	Recompiles    int                `json:"recompiles"`
	Resumptions   int                `json:"resumptions"`
	HeaderBits    int                `json:"header_bits"`
	FinalLinks    int                `json:"final_links"`
	Exhausted     string             `json:"exhausted,omitempty"`
	Resume        string             `json:"resume,omitempty"`
	Certificate   *route.Certificate `json:"certificate,omitempty"`
}

func dynamicReplyOf(src, dst int64, res *dynamic.Result, world *dynamic.World) dynamicReply {
	return dynamicReply{
		Src:           src,
		Dst:           dst,
		Status:        res.Status.String(),
		Hops:          res.Hops,
		Rounds:        res.Rounds,
		AbortedRounds: res.AbortedRounds,
		Bound:         res.Bound,
		Epochs:        res.Epochs,
		Recompiles:    res.Recompiles,
		Resumptions:   res.Resumptions,
		HeaderBits:    res.MaxHeaderBits,
		FinalLinks:    world.NumEdges(),
		Certificate:   res.Certificate,
	}
}

func (s *server) handleDynamic(w http.ResponseWriter, r *http.Request) {
	var req dynamicRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sched, err := req.Schedule.Build()
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	world := s.eng.NewWorld(sched)
	if s.pos != nil {
		world.SetPositions(s.pos)
	}
	world.SetChaos(s.chaos)
	// Unlike the other endpoints, a dynamic query's cost scales with its
	// knobs (each churned epoch buys a recompile), so they are clamped
	// server-side: one request must not purchase unbounded CPU.
	res, err := s.eng.RouteDynamicBudgeted(context.WithoutCancel(r.Context()), world,
		graph.NodeID(req.Src), graph.NodeID(req.Dst), 0, nil, clampDynamics(req.HopsPerEpoch, req.MaxRounds))
	if err != nil {
		writeErr(w, err)
		return
	}
	writeJSON(w, http.StatusOK, dynamicReplyOf(req.Src, req.Dst, res, world))
}
