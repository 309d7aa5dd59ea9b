package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/count"
	"repro/internal/degred"
	"repro/internal/graph"
	"repro/internal/hybrid"
	"repro/internal/route"
	"repro/internal/trace"
)

// ErrNoGraph is returned by Compile when given a nil graph.
var ErrNoGraph = errors.New("engine: nil graph")

// Config parameterizes a compiled Engine. The zero value is usable and
// gives the paper's defaults.
type Config struct {
	// Seed selects the exploration sequence family T_n shared by all
	// queries served by this engine.
	Seed uint64
	// LengthFactor scales sequence lengths (ues.Length); 0 = default.
	LengthFactor int
	// KnownBound, if > 0, promises an upper bound on component sizes in
	// the reduced graph, skipping the doubling loop on every query.
	KnownBound int
	// MaxBound caps the doubling loop (0 = 4·|V(G′)|).
	MaxBound int
	// NoDegreeReduction walks the original graph directly (the Figure 1
	// ablation). Counting still uses the reduction, as in §4.
	NoDegreeReduction bool
	// MemoryBudgetBits overrides the enforced per-activation node memory
	// budget (0 = the Θ(log n) default).
	MemoryBudgetBits int
	// MessageFaithfulCounting makes Count execute §4's Retrieve
	// primitives as real message walks with full hop accounting.
	MessageFaithfulCounting bool
	// DisableCertificates turns off the O(1) reachability-certificate
	// answer for provably-unreachable pairs, forcing every failure verdict
	// through the full doubling-loop walk (the paper's unoptimized §3
	// behavior; also what trace tests that want to watch a failing walk
	// need).
	DisableCertificates bool
	// Workers bounds the batch worker pool (0 = GOMAXPROCS).
	Workers int
}

// Engine is a routing engine compiled for one fixed network. All methods
// are safe for concurrent use; construction state is immutable after
// Compile and per-query state lives entirely on the query's stack (plus
// the metrics).
type Engine struct {
	g       *graph.Graph
	red     *degred.Reduced
	router  *route.Router
	counter *count.Counter
	cfg     Config
	m       *metrics

	// compileTime is the wall time Compile spent building this engine —
	// the amortized cost every query shares. Immutable after Compile.
	compileTime time.Duration
}

// Compile builds the engine for g: one degree reduction, its flat
// snapshot, one router and one counter. g must not be mutated afterwards.
func Compile(g *graph.Graph, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, ErrNoGraph
	}
	start := time.Now()
	red, err := degred.Reduce(g)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e, err := CompileWithReduced(g, red, cfg)
	if err != nil {
		return nil, err
	}
	// Charge the reduction to the compile clock too: CompileWithReduced
	// only timed its own share.
	e.compileTime = time.Since(start)
	return e, nil
}

// CompileWithReduced builds the engine from a precomputed degree reduction
// of g, for callers (like the facade) that cache the reduction artifact
// across engines with different protocol configurations.
func CompileWithReduced(g *graph.Graph, red *degred.Reduced, cfg Config) (*Engine, error) {
	if g == nil {
		return nil, ErrNoGraph
	}
	if red == nil {
		return nil, errors.New("engine: nil reduction")
	}
	start := time.Now()
	e := &Engine{g: g, red: red, cfg: cfg, m: newMetrics()}
	rcfg := e.routeConfig()
	var err error
	if cfg.NoDegreeReduction {
		e.router, err = route.New(g, rcfg)
	} else {
		e.router, err = route.NewFromReduced(g, red, rcfg)
	}
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.counter, err = count.NewFromReduced(g, red, e.countConfig())
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	e.compileTime = time.Since(start)
	return e, nil
}

// routeConfig derives the router configuration.
func (e *Engine) routeConfig() route.Config {
	return route.Config{
		Seed:                e.cfg.Seed,
		LengthFactor:        e.cfg.LengthFactor,
		KnownN:              e.cfg.KnownBound,
		MaxBound:            e.cfg.MaxBound,
		NoDegreeReduction:   e.cfg.NoDegreeReduction,
		MemoryBudgetBits:    e.cfg.MemoryBudgetBits,
		DisableCertificates: e.cfg.DisableCertificates,
	}
}

func (e *Engine) countConfig() count.Config {
	mode := count.ModeLocal
	if e.cfg.MessageFaithfulCounting {
		mode = count.ModeMessages
	}
	return count.Config{
		Seed:         e.cfg.Seed,
		LengthFactor: e.cfg.LengthFactor,
		Mode:         mode,
		MaxBound:     e.cfg.MaxBound,
	}
}

// Graph returns the compiled network. Read-only.
func (e *Engine) Graph() *graph.Graph { return e.g }

// Reduced returns the shared degree-reduction artifact. Read-only.
func (e *Engine) Reduced() *degred.Reduced { return e.red }

// Config returns the engine's configuration.
func (e *Engine) Config() Config { return e.cfg }

// CompileDuration returns the wall time Compile spent building this
// engine (degree reduction, router, counter, flat snapshot) — the
// one-off cost every query amortizes.
func (e *Engine) CompileDuration() time.Duration { return e.compileTime }

// Workers returns the effective batch worker-pool size.
func (e *Engine) Workers() int {
	if e.cfg.Workers > 0 {
		return e.cfg.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Route answers one s→t query on the compiled network.
func (e *Engine) Route(s, t graph.NodeID) (*route.Result, error) {
	start := sampleStart(e.m.routes.Add(1))
	res, err := e.router.Route(s, t)
	e.m.recordRoute(res, err, start, nil)
	return res, err
}

// RouteBudgeted is Route with bounded work: the walk performs at most
// maxHops message hops (0 = unlimited) and honors ctx's deadline or
// cancellation at round boundaries. When either limit strikes first the
// result carries Exhausted and a resume Cursor; pass that cursor back to
// continue the walk exactly where it stopped. Provably-unreachable pairs
// on multi-component networks are answered in O(1) with a reachability
// Certificate instead of a walk (unless Config.DisableCertificates). The
// span ctx carries (trace.FromContext) gets a child span for the query,
// one span per round with the walk's hop tail, and the verdict attributes;
// an unbounded call (maxHops 0, no cursor, a ctx that is never canceled)
// serves the query exactly like Route.
func (e *Engine) RouteBudgeted(ctx context.Context, s, t graph.NodeID, maxHops int64, cur *route.Cursor) (*route.Result, error) {
	var qsp *trace.Span
	if sp := trace.FromContext(ctx); sp.Recording() {
		qsp = sp.Child("engine.route")
		defer qsp.End()
		qsp.SetAttr(trace.Int("src", int64(s)), trace.Int("dst", int64(t)))
		ctx = trace.NewContext(ctx, qsp)
	}
	if s == t {
		cur = nil // answered at once: no walk resumes, nothing to subtract
	}
	start := sampleStart(e.m.routes.Add(1))
	if cur != nil {
		e.m.resumedWalks.Add(1)
	}
	res, err := e.router.RouteBudgeted(ctx, s, t, maxHops, cur)
	e.m.recordRoute(res, err, start, cur)
	annotateRoute(qsp, res, err)
	return res, err
}

// annotateRoute records a route result's headline statistics on the query
// span.
func annotateRoute(sp *trace.Span, res *route.Result, err error) {
	if err != nil {
		sp.SetAttr(trace.String("error", err.Error()))
	}
	if res == nil {
		return
	}
	sp.SetAttr(
		trace.String("status", res.Status.String()),
		trace.Int("hops", res.Hops),
		trace.Int("rounds", int64(len(res.Rounds))),
		trace.Int("bound", int64(res.Bound)),
		trace.Int("max_header_bits", int64(res.MaxHeaderBits)),
	)
	if res.Certificate != nil {
		sp.SetAttr(trace.Bool("certificate", true))
	}
	if res.Exhausted != "" {
		sp.SetAttr(trace.String("exhausted", string(res.Exhausted)))
	}
}

// RouteWithPath routes s→t and reconstructs the forward path on success.
func (e *Engine) RouteWithPath(s, t graph.NodeID) (*route.Result, []graph.NodeID, error) {
	start := sampleStart(e.m.routes.Add(1))
	res, path, err := e.router.RouteWithPath(s, t)
	e.m.recordRoute(res, err, start, nil)
	return res, path, err
}

// Broadcast delivers a payload to every node of s's component.
func (e *Engine) Broadcast(s graph.NodeID) (*route.BroadcastResult, error) {
	res, err := e.router.Broadcast(s)
	e.m.recordBroadcast(res, err)
	return res, err
}

// Count computes |C_s| per §4, sharing the compiled degree reduction.
func (e *Engine) Count(s graph.NodeID) (*count.Result, error) {
	res, err := e.counter.Count(s)
	e.m.recordCount(res, err)
	return res, err
}

// Hybrid races a random walk against the compiled guaranteed router
// (Corollary 2). walkSeed seeds the probabilistic prober only.
func (e *Engine) Hybrid(s, t graph.NodeID, walkSeed uint64) (*hybrid.Result, error) {
	res, err := hybrid.RouteHybridWith(e.router, s, t, walkSeed)
	e.m.recordHybrid(res, err)
	return res, err
}
