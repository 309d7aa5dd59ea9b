// Command adhocd serves guaranteed-delivery routing over HTTP/JSON: it
// loads (or generates) a boot network, compiles it once into a prepared
// engine, and answers route/batch/broadcast/count/hybrid queries
// concurrently — and it serves further networks compiled at runtime from
// client specs, plus named long-lived dynamic worlds shared by all their
// clients.
//
// Usage:
//
//	adhocd -addr :8080 -load net.txt
//	adhocd -addr :8080 -gen grid -rows 16 -cols 16
//	adhocd -addr :8080 -gen udg2d -n 256 -radius 0.15 -gen-seed 1
//
// Boot-network endpoints:
//
//	GET  /healthz       — liveness (bypasses admission control)
//	GET  /metrics       — Prometheus text exposition (engine, registry,
//	                      world, and per-endpoint HTTP metrics); moved to
//	                      a dedicated listener by -metrics-addr
//	GET  /v1/network    — served network summary
//	GET  /v1/stats      — engine metrics + registry/world occupancy
//	POST /v1/route      — {"src":0,"dst":35,"with_path":false}
//	POST /v1/batch      — {"pairs":[[0,1],[2,3]]} or {"src":0,"targets":[1,2]}
//	POST /v1/broadcast  — {"src":0}
//	POST /v1/count      — {"src":0}
//	POST /v1/hybrid     — {"src":0,"dst":35,"walk_seed":9}
//	POST /v1/dynamic    — {"src":0,"dst":35,"schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":9}}
//	GET  /v1/traces     — flight recorder: retained slow/failed traces, newest first
//	GET  /v1/traces/{id} — one retained trace: span tree, events, per-hop tail
//
// Multi-tenant endpoints:
//
//	POST   /v1/networks            — compile a network from a spec
//	                                 ({"kind":"grid","rows":8,"cols":8,"seed":7} or
//	                                  {"kind":"edges","edges":[[0,1],[1,2]]});
//	                                 idempotent, singleflight-deduped, LRU-cached
//	GET    /v1/networks            — resident networks + cache stats
//	GET    /v1/networks/{id}       — one network's summary
//	POST   /v1/networks/{id}/route — route on a registered network
//	POST   /v1/networks/{id}/batch — batch on a registered network
//	POST   /v1/worlds              — create a named shared dynamic world
//	                                 ({"name":"sweep1","schedule":{...},"network_id":"net-…"})
//	GET    /v1/worlds              — list worlds
//	GET    /v1/worlds/{id}         — world state (epoch, version, links)
//	POST   /v1/worlds/{id}/advance — tick the epoch clock ({"epochs":10})
//	POST   /v1/worlds/{id}/route   — route over the shared evolving world
//	DELETE /v1/worlds/{id}         — drop a world
//
// /v1/dynamic routes over an evolving private copy of the boot network per
// request; /v1/worlds/{id}/route instead shares one concurrency-safe world
// across all its clients, so the compiled snapshot cache stays warm across
// queries. Served engine topologies are never mutated.
//
// Hardening: request bodies are capped (-max-body → 413), batch sizes are
// capped (-max-batch → 400), concurrent requests are bounded (-max-inflight
// → 429), registry specs are size-limited (-max-network-nodes → 413), and
// client disconnects cancel not-yet-started batch members.
//
// With -pprof, net/http/pprof is additionally mounted under /debug/pprof/
// so serving hot spots can be profiled in place.
//
// Observability: every request is metered (latency histogram and status
// class per endpoint, in-flight gauge, admission rejections), and the
// engine, network registry, and world table export their counters and
// latency distributions. Requests are additionally traced: the W3C
// traceparent header is honored and propagated, sampling is head-based
// (-trace-sample) with an always-on flight recorder retaining the last
// slow/failed traces (-trace-slow, -trace-capacity) for GET /v1/traces,
// and -log-format=json emits one structured line per request. See
// docs/OPERATIONS.md for the metric catalogue, alerting notes, and the
// tracing guide, and cmd/loadgen for driving the daemon with realistic
// load.
//
// Bounded work: POST /v1/route, /v1/networks/{id}/route, and
// /v1/worlds/{id}/route accept budget_hops (max message hops), deadline_ms
// (wall-time bound; a negative value of either, or a deadline past the
// largest time.Duration, is a 400), and resume (an opaque signed token
// from an earlier "budget_exhausted" reply). A walk stopped by either limit returns its
// position as a resume token instead of burning the full doubling budget;
// provably-unreachable pairs on multi-component networks are answered in
// O(1) with a reachability certificate. Resume tokens are HMAC-signed and
// bound to the network or world they were minted for. With -token-key
// every process sharing the key verifies them, so tokens survive a daemon
// restart and resume on any shard; without it the key is random per
// process and tokens die with it.
//
// Fault injection (-chaos-*): a deterministic, seeded chaos harness can
// fail snapshot recompiles, delay walk hops, stall epoch advances, and
// fault or delay whole requests — for load-testing the budget/retry/drain
// machinery. All chaos flags are refused unless -chaos-enable is also set,
// so a production launch cannot arm fault injection by accident.
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: healthz flips to 503
// ("draining") so load balancers drain it, in-flight requests finish
// within -drain, and in-flight budgeted walks are interrupted at their
// next round boundary so each returns a resume token; with -drain-log
// those tokens are also appended to a file for a replacement instance to
// replay.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/chaos"
	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/graph"
	"repro/internal/registry"
	"repro/internal/token"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, nil); err != nil {
		fmt.Fprintln(os.Stderr, "adhocd:", err)
		os.Exit(1)
	}
}

// run builds the engine from flags and serves until ctx-cancellation or a
// listener error. ready, if non-nil, receives the bound address once the
// listener is up (used by tests to serve on :0).
func run(args []string, out io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("adhocd", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		load     = fs.String("load", "", "network file in the text codec (overrides -gen)")
		genKind  = fs.String("gen", "grid", "generated network kind: grid, udg2d, udg3d")
		rows     = fs.Int("rows", 16, "grid rows")
		cols     = fs.Int("cols", 16, "grid cols")
		n        = fs.Int("n", 256, "node count (udg kinds)")
		radius   = fs.Float64("radius", 0.15, "unit-disk radius (udg kinds)")
		genSeed  = fs.Uint64("gen-seed", 1, "generator seed (udg kinds)")
		seed     = fs.Uint64("seed", 7, "protocol seed selecting the sequence family T_n")
		known    = fs.Int("known", 0, "known component bound (0 = doubling loop)")
		workers  = fs.Int("workers", 0, "batch worker pool size (0 = GOMAXPROCS)")
		drainFor = fs.Duration("drain", 5*time.Second, "graceful shutdown drain timeout")
		drainLog = fs.String("drain-log", "", "append resume tokens of walks interrupted by shutdown to this file (one JSON line each)")
		pprofOn  = fs.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ (on the ops listener when -metrics-addr is set)")
		metrics  = fs.String("metrics-addr", "", "serve GET /metrics (and /debug/pprof/ with -pprof) on this dedicated listener instead of the main port")

		chaosEnable      = fs.Bool("chaos-enable", false, "master switch for fault injection; every other -chaos-* flag is refused without it")
		chaosSeed        = fs.Uint64("chaos-seed", 1, "chaos fault-stream seed (deterministic, replayable)")
		chaosCompileFail = fs.Float64("chaos-compile-fail-rate", 0, "probability a world snapshot recompile fails")
		chaosHopDelay    = fs.Duration("chaos-hop-delay", 0, "latency injected into dynamic walk hops")
		chaosHopRate     = fs.Float64("chaos-hop-delay-rate", 0, "probability a hop pays -chaos-hop-delay (0 = every hop)")
		chaosEpochStall  = fs.Duration("chaos-epoch-stall", 0, "latency injected into world epoch advances")
		chaosEpochRate   = fs.Float64("chaos-epoch-stall-rate", 0, "probability an advance pays -chaos-epoch-stall (0 = every advance)")
		chaosReqFail     = fs.Float64("chaos-request-fail-rate", 0, "probability a request 500s before any routing work")
		chaosReqDelay    = fs.Duration("chaos-request-delay", 0, "latency injected ahead of handler work")
		chaosReqRate     = fs.Float64("chaos-request-delay-rate", 0, "probability a request pays -chaos-request-delay (0 = every request)")

		logFormat   = fs.String("log-format", "text", `request log format: "text" (quiet) or "json" (one structured line per request)`)
		traceSample = fs.Float64("trace-sample", defaultTraceSample, "head-sampling probability for request traces in [0,1]; an upstream traceparent sampled flag always wins")
		traceSlow   = fs.Duration("trace-slow", defaultTraceSlow, "flight-recorder retention threshold: keep sampled traces at least this slow (0 keeps all; errors are always kept)")
		traceCap    = fs.Int("trace-capacity", defaultTraceCapacity, "retained traces in the flight-recorder ring (at least 1)")

		sloSpec     = fs.String("slo", defaultSLOSpec, `objective spec evaluated as 5m/1h burn rates (GET /v1/slo), e.g. "route_p99<250ms,hop_p99<4log,wrong_verdicts==0"; "off" disables`)
		sloInterval = fs.Duration("slo-interval", 10*time.Second, "burn-rate evaluation tick interval")

		profCapacity    = fs.Int("prof-capacity", 16, "profile flight-recorder ring size (snapshots)")
		profCPUWindow   = fs.Duration("prof-cpu-window", 5*time.Second, "CPU capture window per profile trip")
		profMinInterval = fs.Duration("prof-min-interval", 30*time.Second, "minimum spacing between profile trips (rate limit)")
		profGuard       = fs.Duration("prof-guard", defaultProfGuard, "request latency that trips a profile capture directly (0 disables the guard)")

		clusterOn        = fs.Bool("cluster", false, "run as one shard of a consistent-hash cluster (requires -cluster-name and -token-key)")
		clusterName      = fs.String("cluster-name", "", "stable shard identity on the ring (required with -cluster)")
		clusterAdvertise = fs.String("cluster-advertise", "", "base URL peers reach this shard at, e.g. http://10.0.0.5:8080 (default: derived from the bound listener; required for multi-host clusters)")
		clusterPeers     = fs.String("cluster-peers", "", "comma-separated seed base URLs for gossip bootstrap")
		clusterVnodes    = fs.Int("cluster-vnodes", cluster.DefaultVnodes, "virtual nodes per member on the placement ring")
		clusterInterval  = fs.Duration("cluster-gossip-interval", 500*time.Millisecond, "gossip tick cadence")
		clusterSuspect   = fs.Int("cluster-suspect-ticks", cluster.DefaultSuspectAfterTicks, "ticks of heartbeat silence before a peer is suspected")
		clusterDead      = fs.Int("cluster-dead-ticks", cluster.DefaultDeadAfterTicks, "further ticks of silence before a suspected peer is declared dead")
		tokenKeySrc      = fs.String("token-key", "", `resume-token HMAC key: a file path or "env:NAME", containing >=16 bytes of hex; tokens then survive restarts and verify on every process sharing the key (required with -cluster). Default: a random per-process key`)

		maxBody     = fs.Int64("max-body", defaultMaxBody, "request body cap in bytes (-1 = unlimited)")
		maxBatch    = fs.Int("max-batch", defaultMaxBatch, "batch members per request (-1 = unlimited)")
		maxInflight = fs.Int("max-inflight", defaultMaxInflight, "concurrently admitted requests (-1 = unlimited)")
		maxNets     = fs.Int("max-networks", registry.DefaultCapacity, "resident runtime-compiled networks (LRU beyond)")
		maxNetNodes = fs.Int("max-network-nodes", registry.DefaultMaxNodes, "node cap for runtime-compiled network specs")
		maxWorlds   = fs.Int("max-worlds", registry.DefaultWorldLimit, "resident named dynamic worlds")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logFormat != "text" && *logFormat != "json" {
		return fmt.Errorf("unknown -log-format %q (want text or json)", *logFormat)
	}
	if !(*traceSample >= 0 && *traceSample <= 1) {
		return fmt.Errorf("invalid -trace-sample %v (want a probability in [0,1])", *traceSample)
	}
	if *traceCap < 1 {
		return fmt.Errorf("invalid -trace-capacity %d (want at least 1)", *traceCap)
	}
	// Cluster flags follow the chaos-enable pattern: -cluster-* without
	// -cluster is refused (a typoed launch must not half-configure a
	// shard), and -cluster without the identity and shared token key is
	// refused (anonymous shards can't own keys; per-process token keys
	// would strand every cross-shard resume).
	var clusterCfg *clusterConfig
	var tokenKey []byte
	if src := *tokenKeySrc; src != "" {
		key, err := token.LoadKey(src)
		if err != nil {
			return err
		}
		tokenKey = key
	}
	if !*clusterOn {
		var stray string
		fs.Visit(func(f *flag.Flag) {
			if strings.HasPrefix(f.Name, "cluster-") {
				stray = f.Name
			}
		})
		if stray != "" {
			return fmt.Errorf("-%s requires -cluster", stray)
		}
	} else {
		if *clusterName == "" {
			return errors.New("-cluster requires -cluster-name (the shard's stable ring identity)")
		}
		if tokenKey == nil {
			return errors.New("-cluster requires -token-key (resume tokens must verify on every shard)")
		}
		var peers []string
		for _, p := range strings.Split(*clusterPeers, ",") {
			if p = strings.TrimSpace(p); p != "" {
				peers = append(peers, p)
			}
		}
		clusterCfg = &clusterConfig{
			name:      *clusterName,
			advertise: *clusterAdvertise,
			peers:     peers,
			vnodes:    *clusterVnodes,
			interval:  *clusterInterval,
			suspect:   *clusterSuspect,
			dead:      *clusterDead,
		}
	}
	// Chaos is armed only behind the master switch: a production launch
	// cannot inject faults by a single mistyped flag.
	chaosCfg := chaos.Config{
		Seed:             *chaosSeed,
		CompileFailRate:  *chaosCompileFail,
		HopDelay:         *chaosHopDelay,
		HopDelayRate:     *chaosHopRate,
		EpochStall:       *chaosEpochStall,
		EpochStallRate:   *chaosEpochRate,
		RequestFailRate:  *chaosReqFail,
		RequestDelay:     *chaosReqDelay,
		RequestDelayRate: *chaosReqRate,
	}
	chaosArmed := chaosCfg.CompileFailRate > 0 || chaosCfg.HopDelay > 0 || chaosCfg.EpochStall > 0 ||
		chaosCfg.RequestFailRate > 0 || chaosCfg.RequestDelay > 0
	var inj *chaos.Injector
	switch {
	case chaosArmed && !*chaosEnable:
		return errors.New("-chaos-* flags require -chaos-enable")
	case *chaosEnable:
		inj = chaos.New(chaosCfg)
	}
	g, pos, desc, err := buildGraph(*load, *genKind, *rows, *cols, *n, *radius, *genSeed)
	if err != nil {
		return err
	}
	eng, err := engine.Compile(g, engine.Config{
		Seed:       *seed,
		KnownBound: *known,
		Workers:    *workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "adhocd: compiled %s (%d nodes, %d links, %d reduced nodes)\n",
		desc, g.NumNodes(), g.NumEdges(), eng.Reduced().Flat().NumNodes())
	// Reject a typoed -slo before the server boots (newServer treats a
	// binding failure as a wiring bug and panics).
	if spec := resolveSLOSpec(*sloSpec); spec != "" {
		if _, err := buildObjectives(eng, nil, spec); err != nil {
			return err
		}
	}
	var logOut io.Writer
	if *logFormat == "json" {
		logOut = out
	}
	var drainOut io.Writer
	if *drainLog != "" {
		f, err := os.OpenFile(*drainLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("drain log: %w", err)
		}
		defer f.Close()
		drainOut = f
	}
	srv := newServer(eng, pos, desc, serverConfig{
		pprof:       *pprofOn,
		maxBody:     *maxBody,
		maxBatch:    *maxBatch,
		maxInflight: *maxInflight,
		maxWorlds:   *maxWorlds,
		metricsAddr: *metrics,
		registry: registry.Config{
			Capacity: *maxNets,
			MaxNodes: *maxNetNodes,
			Workers:  *workers,
		},
		traceSample:   *traceSample,
		traceSlow:     *traceSlow,
		traceCapacity: *traceCap,
		logOut:        logOut,
		chaos:         inj,
		drainLog:      drainOut,
		tokenKey:      tokenKey,
		cluster:       clusterCfg,

		sloSpec:         *sloSpec,
		sloInterval:     *sloInterval,
		profCapacity:    *profCapacity,
		profCPUWindow:   *profCPUWindow,
		profMinInterval: *profMinInterval,
		profGuard:       *profGuard,
	})
	// The ops mux backs the dedicated -metrics-addr listener: the scrape
	// endpoint, plus the pprof surface when -pprof is set (so profiling
	// stays off the public port whenever an ops port exists).
	var ops http.Handler
	if *metrics != "" {
		om := http.NewServeMux()
		om.Handle("GET /metrics", srv.MetricsHandler())
		if *pprofOn {
			om.HandleFunc("GET /debug/pprof/", pprof.Index)
			om.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
			om.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
			om.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
			om.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		}
		ops = om
	}
	return serve(*addr, srv, *metrics, ops, out, ready, *drainFor)
}

// buildGraph loads the network file, or generates the requested family.
// Geometric families additionally return the node placement, which the
// /v1/dynamic endpoint's mobility models evolve.
func buildGraph(load, kind string, rows, cols, n int, radius float64, seed uint64) (*graph.Graph, map[graph.NodeID]geom.Point, string, error) {
	if load != "" {
		f, err := os.Open(load)
		if err != nil {
			return nil, nil, "", err
		}
		defer f.Close()
		g, err := graph.Decode(f)
		if err != nil {
			return nil, nil, "", fmt.Errorf("decode %s: %w", load, err)
		}
		return g, nil, fmt.Sprintf("file:%s", load), nil
	}
	switch kind {
	case "grid":
		return gen.Grid(rows, cols), nil, fmt.Sprintf("grid %dx%d", rows, cols), nil
	case "udg2d":
		geo := gen.UDG2D(n, radius, seed)
		return geo.G, geo.Pos, fmt.Sprintf("udg2d n=%d r=%g", n, radius), nil
	case "udg3d":
		geo := gen.UDG3D(n, radius, seed)
		return geo.G, geo.Pos, fmt.Sprintf("udg3d n=%d r=%g", n, radius), nil
	default:
		return nil, nil, "", fmt.Errorf("unknown -gen kind %q (want grid, udg2d, udg3d)", kind)
	}
}

// serve runs the HTTP server until SIGINT/SIGTERM, then drains. When
// metricsAddr is non-empty, a second listener serves the ops handler
// (Prometheus exposition plus, with -pprof, the profile endpoints) there
// and shuts down with the main one. Listeners are bound synchronously so
// the addresses are known (tests bind :0 and learn the chosen ports via
// ready / the log lines) and all writes to out happen on this goroutine.
func serve(addr string, h http.Handler, metricsAddr string, ops http.Handler, out io.Writer, ready chan<- string, drain time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srvs := []*http.Server{{Handler: h}}
	lns := []net.Listener{ln}
	if metricsAddr != "" {
		mln, err := net.Listen("tcp", metricsAddr)
		if err != nil {
			ln.Close()
			return fmt.Errorf("metrics listener: %w", err)
		}
		fmt.Fprintf(out, "adhocd: metrics on %s\n", mln.Addr())
		srvs = append(srvs, &http.Server{Handler: ops})
		lns = append(lns, mln)
	}
	fmt.Fprintf(out, "adhocd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	// Start the background burn-rate ticker; it stops with the listeners.
	sloStop := make(chan struct{})
	defer close(sloStop)
	if d, ok := h.(interface{ RunSLO(<-chan struct{}) }); ok {
		go d.RunSLO(sloStop)
	}
	// Start the cluster gossip loop (a no-op without -cluster), handing it
	// the dialable form of the bound address for shards launched without
	// an explicit -cluster-advertise (tests and single-host clusters on
	// :0 learn their port only now).
	if c, ok := h.(interface {
		RunCluster(string, <-chan struct{})
	}); ok {
		go c.RunCluster(advertiseURL(ln.Addr()), sloStop)
	}

	errCh := make(chan error, len(srvs))
	for i := range srvs {
		go func(srv *http.Server, ln net.Listener) {
			errCh <- srv.Serve(ln)
		}(srvs[i], lns[i])
	}

	select {
	case err := <-errCh:
		// One listener failing takes the daemon down; close the rest.
		for _, srv := range srvs {
			srv.Close()
		}
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(out, "adhocd: shutting down")
	// Flip the handler to draining before Shutdown: healthz answers 503 so
	// load balancers stop sending, and in-flight budgeted walks are
	// interrupted at their next round boundary to mint resume tokens
	// instead of being cut off by the listener closing.
	if d, ok := h.(interface{ BeginDrain() }); ok {
		d.BeginDrain()
	}
	shutCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	for _, srv := range srvs {
		if err := srv.Shutdown(shutCtx); err != nil {
			return err
		}
	}
	for range srvs {
		if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
	}
	return nil
}
