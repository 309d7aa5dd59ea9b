package perf

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"repro/internal/degred"
	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/flatgraph"
	"repro/internal/netsim"
	"repro/internal/registry"
	"repro/internal/route"
	"repro/internal/token"
)

// Span is one timed call into a layer. The benchmark records spans around
// its own calls into each module; the daemon records none.
type Span struct {
	Workload string `json:"workload"`
	Rung     string `json:"rung"`
	Parent   string `json:"parent,omitempty"`
	Query    int    `json:"query"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
}

// span is the compact in-memory form of a Span.
type span struct {
	rung       string
	wl, query  int32
	start, end int64
}

// Spans keeps a run's spans in memory until they are written out.
type Spans struct {
	t0        time.Time
	workloads []string // spans of workloads[i] carry wl == i
	list      []span
}

// NewSpans starts an empty recorder; span times count from now.
func NewSpans() *Spans { return &Spans{t0: time.Now()} }

// begin attributes the spans that follow to workload.
func (s *Spans) begin(workload string) { s.workloads = append(s.workloads, workload) }

// parentRung names the rung whose work contains each rung's work.
var parentRung = map[string]string{
	"flatgraph.walk":   "route.route",
	"flatgraph.cover":  "route.route",
	"route.route":      "engine.route",
	"engine.route":     "adhocd.http",
	"engine.budgeted":  "adhocd.http",
	"token.sign":       "adhocd.http",
	"token.verify":     "adhocd.http",
	"registry.obtain":  "adhocd.http",
	"dynamic.route":    "adhocd.http",
	"dynamic.advance":  "adhocd.http",
	"dynamic.compiled": "dynamic.advance",
}

// time runs f as one span of rung for query q and returns its duration.
func (s *Spans) time(rung string, q int, f func()) time.Duration {
	a := time.Now()
	f()
	b := time.Now()
	s.list = append(s.list, span{rung: rung, wl: int32(len(s.workloads) - 1), query: int32(q),
		start: a.Sub(s.t0).Nanoseconds(), end: b.Sub(s.t0).Nanoseconds()})
	return b.Sub(a)
}

// WriteFile writes every span as one JSON array.
func (s *Spans) WriteFile(path string) error {
	out := make([]Span, len(s.list))
	for i, sp := range s.list {
		wl := ""
		if sp.wl >= 0 {
			wl = s.workloads[sp.wl]
		}
		out[i] = Span{Workload: wl, Rung: sp.rung, Parent: parentRung[sp.rung], Query: int(sp.query), Start: sp.start, End: sp.end}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// spanOverhead is the cost of recording one empty span, in ns.
func spanOverhead() float64 {
	s := NewSpans()
	const n = 20000
	t0 := time.Now()
	for i := range n {
		s.time("bench", i, func() {})
	}
	return float64(time.Since(t0).Nanoseconds()) / n
}

// view is the in-process stack serving one static network: the engine, a
// router built the way the engine builds its own, the flat snapshot, and a
// world that never changes for the dynamic rung.
type view struct {
	eng    *engine.Engine
	router *route.Router
	red    *degred.Reduced
	flat   *flatgraph.Graph
	world  *dynamic.World
}

func newView(eng *engine.Engine) (*view, error) {
	red := eng.Reduced()
	r, err := route.NewFromReduced(eng.Graph(), red, route.Config{Seed: eng.Config().Seed})
	if err != nil {
		return nil, err
	}
	return &view{eng: eng, router: r, red: red, flat: red.Flat(), world: eng.NewWorld(dynamic.Static{})}, nil
}

// ladder replays a prefix of a workload's stream through every rung, one
// query at a time, in an order that balances which rung of each pair runs
// first (see query).
type ladder struct {
	in     *inputs
	sp     *Spans
	c1, c2 *conn // daemon at the default -trace-sample, and at -trace-sample 0
	reg    *registry.Registry
	boot   *view
	tenant map[int]*view
	world  *dynamic.World // world_churn: in-process twin of world w0
	signer *token.Signer

	// Per-query samples, index-aligned where a paired difference is taken.
	http, httpT0, inproc                       []float64
	walk, cover, walkCover, routeT, engineT    []float64
	hops, rounds, coverSteps, segments         []float64
	budgeted, sign, verify                     []float64
	obtainHit, obtainMiss, reduce              []float64
	dynRoute, advance, compiled                []float64
	walkNs, walkHops, finalHops, allHops       int64
	certs, static                              int
	dynRecompiles, dynRounds, dynAborted, dynN int64

	mismatches int
	problems   []string
}

func (l *ladder) check(ok bool, q int, format string, args ...any) {
	if ok {
		return
	}
	l.mismatches++
	if len(l.problems) < 8 {
		l.problems = append(l.problems, fmt.Sprintf("%s query %d: %s", l.in.wl.Name, q, fmt.Sprintf(format, args...)))
	}
}

// tenantView returns the view of tenant k's current engine, rebuilding it
// when the registry recompiled the tenant after an eviction.
func (l *ladder) tenantView(k int, eng *engine.Engine) (*view, error) {
	if v := l.tenant[k]; v != nil && v.eng == eng {
		return v, nil
	}
	v, err := newView(eng)
	if err != nil {
		return nil, err
	}
	l.tenant[k] = v
	return v, nil
}

// sameReply reports whether two daemons answered one request alike.
func sameReply(a, b outcome) bool {
	return a.Status == b.Status && a.Hops == b.Hops && a.Rounds == b.Rounds && a.Bound == b.Bound &&
		a.AbortedRounds == b.AbortedRounds && a.Epoch == b.Epoch && a.Links == b.Links &&
		a.segments == b.segments && a.reregistered == b.reregistered
}

func sameResult(a, b *route.Result) bool {
	return a.Status == b.Status && a.Hops == b.Hops && len(a.Rounds) == len(b.Rounds) && a.Bound == b.Bound
}

// query runs one query through every rung and checks that each in-process
// rung reproduces the HTTP reply.
func (l *ladder) query(i int, q query) error {
	wl := l.in.wl.Name
	ctx := context.Background()
	v := l.boot
	var inproc time.Duration
	cached := true
	if q.op == opTenant {
		// The registry goes first: its engine is what the other rungs run on.
		var ent *registry.Entry
		var err error
		d := l.sp.time("registry.obtain", i, func() { ent, cached, err = l.reg.Obtain(l.in.tenants[q.net].spec) })
		if err != nil {
			return err
		}
		if cached {
			l.obtainHit = append(l.obtainHit, us(d))
		} else {
			l.obtainMiss = append(l.obtainMiss, ms(d))
		}
		inproc += d
		if v, err = l.tenantView(q.net, ent.Eng); err != nil {
			return err
		}
	}
	var ref *route.Result
	if q.op != opAdvance {
		var err error
		if ref, err = v.router.Route(q.src, q.dst); err != nil {
			return err
		}
	}

	var (
		o1, o2                               outcome
		httpD, httpT0D, walkD, coverD        time.Duration
		routeD, engineD, budgetD, tokD, dynD time.Duration
		rs, es, last                         *route.Result
		dres                                 *dynamic.Result
		segs                                 int
		walkHops                             int64
	)
	rungs := []func() error{
		func() error {
			httpD = l.sp.time("adhocd.http", i, func() { o1 = l.in.do(l.c1, q) })
			return nil
		},
		func() error {
			httpT0D = l.sp.time("adhocd.http_t0", i, func() { o2 = l.in.do(l.c2, q) })
			return nil
		},
	}
	if q.op == opAdvance {
		rungs = append(rungs, func() error {
			for range worldAdvanceEpochs {
				var err error
				d := l.sp.time("dynamic.advance", i, func() { err = l.world.Advance(dynamic.Probe{}) })
				if err != nil {
					return err
				}
				dynD += d
				l.advance = append(l.advance, us(d))
				// Compiling here instead of on the next route changes no
				// verdict or hop count, only which call pays the recompile.
				l.compiled = append(l.compiled, us(l.sp.time("dynamic.compiled", i, func() { _, _, err = l.world.Compiled() })))
				if err != nil {
					return err
				}
			}
			return nil
		})
	} else {
		rungs = append(rungs,
			func() error { // flatgraph: replay the reference rounds on the snapshot
				entry, _ := v.red.Entry(q.src)
				si, _ := v.flat.Index(entry)
				for _, r := range ref.Rounds {
					seq := flatgraph.Seq{Seed: v.eng.Config().Seed, Base: 3, Length: r.SeqLen}
					var out flatgraph.RouteOutcome
					var err error
					walkD += l.sp.time("flatgraph.walk", i, func() { out, err = v.flat.RouteWalk(si, q.src, q.dst, seq) })
					if err != nil {
						return err
					}
					walkHops += out.Hops
					l.check(out.Hops == r.Hops && out.Success == (r.Outcome == netsim.StatusSuccess), i,
						"RouteWalk at bound %d: %d hops success=%v, round had %d hops %v", r.Bound, out.Hops, out.Success, r.Hops, r.Outcome)
					if out.Success {
						continue
					}
					var closed bool
					coverD += l.sp.time("flatgraph.cover", i, func() {
						visited := make([]bool, v.flat.NumNodes())
						if _, err = v.flat.CoverWalk(si, seq, visited, nil); err == nil {
							closed = v.flat.Closed(visited)
						}
					})
					if err != nil {
						return err
					}
					l.check(closed == r.Covered, i, "CoverWalk closure %v, round covered %v", closed, r.Covered)
				}
				return nil
			},
			func() error {
				var err error
				routeD = l.sp.time("route.route", i, func() { rs, err = v.router.Route(q.src, q.dst) })
				return err
			},
			func() error {
				var err error
				engineD = l.sp.time("engine.route", i, func() { es, err = v.eng.Route(q.src, q.dst) })
				return err
			},
			func() error { // budgeted segments resumed through signed tokens
				var cur *route.Cursor
				for {
					var err error
					d := l.sp.time("engine.budgeted", i, func() {
						last, err = v.eng.RouteBudgeted(ctx, q.src, q.dst, resumeBudget, cur)
					})
					if err != nil {
						return err
					}
					budgetD += d
					segs++
					l.budgeted = append(l.budgeted, us(d))
					if last.Exhausted == "" {
						return nil
					}
					var tok string
					ds := l.sp.time("token.sign", i, func() { tok, err = l.signer.Sign("net:boot", last.Cursor) })
					if err != nil {
						return err
					}
					dv := l.sp.time("token.verify", i, func() { cur, err = l.signer.Verify("net:boot", tok) })
					if err != nil {
						return err
					}
					tokD += ds + dv
					l.sign = append(l.sign, us(ds))
					l.verify = append(l.verify, us(dv))
				}
			},
			func() error {
				w, eng := v.world, v.eng
				if q.op == opWorldRoute {
					w, eng = l.world, l.in.eng
				}
				var err error
				dynD = l.sp.time("dynamic.route", i, func() {
					dres, err = eng.RouteDynamic(w, q.src, q.dst, dynamic.Config{HopsPerEpoch: worldHopsPerEpoch})
				})
				if err != nil || q.op == opWorldRoute {
					return err
				}
				// The frozen world's epoch clock still ticks; its compile
				// cache always hits.
				l.advance = append(l.advance, us(l.sp.time("dynamic.advance", i, func() { err = w.Advance(dynamic.Probe{}) })))
				if err == nil {
					l.compiled = append(l.compiled, us(l.sp.time("dynamic.compiled", i, func() { _, _, err = w.Compiled() })))
				}
				return err
			})
		if q.op != opTenant {
			rungs = append(rungs, func() error {
				var err error
				l.obtainHit = append(l.obtainHit, us(l.sp.time("registry.obtain", i, func() { _, _, err = l.reg.Obtain(l.in.wl.boot) })))
				return err
			})
		}
	}
	// Rotate the order per query, and reverse it on every other query: a
	// rung that runs right after another finds the caches it warmed, and a
	// rotation alone would hand that advantage to the same rung of each
	// adjacent pair almost every time.
	n := len(rungs)
	for j := range n {
		k := (i/2 + j) % n
		if i%2 == 1 {
			k = ((i/2-j)%n + n) % n
		}
		if err := rungs[k](); err != nil {
			return fmt.Errorf("perf: %s ladder query %d: %w", wl, i, err)
		}
	}

	// Every in-process rung must reproduce the daemon's reply.
	l.check(o1.err == "" && o2.err == "", i, "HTTP error: %q / %q", o1.err, o2.err)
	l.check(sameReply(o1, o2), i, "daemons at -trace-sample 1 and 0 disagree: %+v vs %+v", o1.reply, o2.reply)
	switch q.op {
	case opRoute, opTenant:
		l.check(o1.Status == ref.Status.String() && o1.Hops == ref.Hops && o1.Rounds == len(ref.Rounds) && o1.Bound == ref.Bound,
			i, "reply %s/%d hops/%d rounds/bound %d, in-process %s/%d/%d/%d",
			o1.Status, o1.Hops, o1.Rounds, o1.Bound, ref.Status, ref.Hops, len(ref.Rounds), ref.Bound)
	case opResume:
		l.check(o1.Status == ref.Status.String() && o1.Hops == ref.Hops && o1.Bound == ref.Bound &&
			o1.Rounds == len(last.Rounds) && o1.segments == segs, i,
			"reply %s/%d hops/%d rounds/bound %d in %d segments, in-process %s/%d/%d/%d in %d",
			o1.Status, o1.Hops, o1.Rounds, o1.Bound, o1.segments, ref.Status, ref.Hops, len(last.Rounds), ref.Bound, segs)
	case opWorldRoute:
		l.check(sameDynamic(dres, o1.reply), i, "world reply %+v, in-process %+v", o1.reply, *dres)
	case opAdvance:
		snap := l.world.Snapshot()
		l.check(snap.Epoch == o1.Epoch && snap.Links == o1.Links, i,
			"advance reply epoch %d links %d, in-process %d %d", o1.Epoch, o1.Links, snap.Epoch, snap.Links)
	}
	if q.op == opTenant {
		l.check(o1.reregistered == !cached, i, "daemon re-registered=%v, in-process registry hit=%v", o1.reregistered, cached)
	}

	switch q.op {
	case opRoute, opTenant:
		inproc += engineD
	case opResume:
		inproc += budgetD + tokD
	default:
		inproc += dynD
	}
	l.http = append(l.http, us(httpD))
	l.httpT0 = append(l.httpT0, us(httpT0D))
	l.inproc = append(l.inproc, us(inproc))
	if q.op == opWorldRoute {
		l.dynRoute = append(l.dynRoute, ms(dynD))
		l.dynRecompiles += int64(o1.Recompiles)
		l.dynRounds += int64(o1.Rounds)
		l.dynAborted += int64(o1.AbortedRounds)
		l.dynN++
	} else if q.op != opAdvance {
		l.dynRoute = append(l.dynRoute, ms(dynD))
		l.dynRecompiles += int64(dres.Recompiles)
		l.dynRounds += int64(dres.Rounds)
		l.dynAborted += int64(dres.AbortedRounds)
		l.dynN++
	}
	if q.op == opAdvance {
		return nil
	}

	// The static rungs must agree with each other and with the reference.
	l.check(sameResult(rs, ref) && sameResult(es, ref), i, "route/engine rungs disagree with the reference walk")
	l.check(last.Status == ref.Status && last.Hops == ref.Hops && last.Bound == ref.Bound, i,
		"budgeted walk %s/%d/%d, uninterrupted %s/%d/%d", last.Status, last.Hops, last.Bound, ref.Status, ref.Hops, ref.Bound)
	l.check(walkHops == ref.Hops, i, "flat rounds walked %d hops, route reported %d", walkHops, ref.Hops)
	l.static++
	l.walk = append(l.walk, us(walkD))
	l.cover = append(l.cover, us(coverD))
	l.walkNs += walkD.Nanoseconds()
	l.walkHops += walkHops
	l.routeT = append(l.routeT, us(routeD))
	l.walkCover = append(l.walkCover, us(walkD+coverD))
	l.engineT = append(l.engineT, us(engineD))
	l.hops = append(l.hops, float64(ref.Hops))
	l.rounds = append(l.rounds, float64(len(ref.Rounds)))
	var steps int64
	for k, r := range ref.Rounds {
		if k == len(ref.Rounds)-1 {
			l.finalHops += r.Hops
		}
		if r.Outcome != netsim.StatusSuccess {
			steps += int64(r.SeqLen)
		}
	}
	l.allHops += ref.Hops
	l.coverSteps = append(l.coverSteps, float64(steps))
	if ref.Certificate != nil {
		l.certs++
	}
	seg := 1
	if q.op == opResume {
		seg = o1.segments
	}
	l.segments = append(l.segments, float64(seg))
	return nil
}

// runLadder boots two fresh daemons (default flags, and -trace-sample 0),
// replays the first opt.LadderQueries requests of connection 0's stream
// through every rung, and returns the per-layer metrics. e carries the
// client- and server-side counters of the end-to-end run.
func (in *inputs) runLadder(opt Options, e *e2e) (map[string]Metric, []string, error) {
	sp := opt.Spans
	if sp == nil {
		sp = NewSpans()
	}
	sp.begin(in.wl.Name)
	l := &ladder{in: in, sp: sp, reg: registry.New(registry.Config{}), tenant: map[int]*view{}, signer: token.NewSigner(nil)}
	var err error
	if l.boot, err = newView(in.eng); err != nil {
		return nil, nil, err
	}

	// Compile costs, off the query path: degree reduction of every
	// distinct network, and registry misses on a fresh registry.
	nets := []*network{in.boot}
	if in.tenants != nil {
		nets = in.tenants
	}
	for _, n := range nets {
		for range 3 {
			var err error
			l.reduce = append(l.reduce, ms(sp.time("degred.reduce", -1, func() { _, err = degred.Reduce(n.g) })))
			if err != nil {
				return nil, nil, err
			}
		}
	}
	if in.tenants == nil {
		for range 3 {
			var err error
			l.obtainMiss = append(l.obtainMiss, ms(sp.time("registry.obtain", -1, func() {
				_, _, err = registry.New(registry.Config{}).Obtain(in.wl.boot)
			})))
			if err != nil {
				return nil, nil, err
			}
		}
		if _, _, err := l.reg.Obtain(in.wl.boot); err != nil {
			return nil, nil, err
		}
	}
	// The in-process registry and worlds start where the daemons' setup
	// leaves theirs.
	for _, t := range in.tenants {
		if _, _, err := l.reg.Obtain(t.spec); err != nil {
			return nil, nil, err
		}
	}
	if in.wl.Name == WorldChurn {
		sched, err := in.worldSpec(0).Build()
		if err != nil {
			return nil, nil, err
		}
		l.world = in.eng.NewWorld(sched)
	}

	d1, _, err := in.bootReady(opt.Bin)
	if err != nil {
		return nil, nil, err
	}
	defer d1.stop()
	d2, _, err := in.bootReady(opt.Bin, "-trace-sample", "0")
	if err != nil {
		return nil, nil, err
	}
	defer d2.stop()
	l.c1, l.c2 = newConn(d1.base), newConn(d2.base)
	defer l.c1.close()
	defer l.c2.close()

	s := in.stream(0)
	deadline := time.Now().Add(opt.LadderCap)
	for i := 0; i < opt.LadderQueries && time.Now().Before(deadline); i++ {
		if err := l.query(i, s.next()); err != nil {
			return nil, nil, err
		}
	}
	if l.mismatches > len(l.problems) {
		l.problems = append(l.problems, fmt.Sprintf("%s: %d ladder mismatches in all", in.wl.Name, l.mismatches))
	}
	return l.metrics(e), l.problems, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// metrics reduces the ladder's samples to the per-layer metrics.
func (l *ladder) metrics(e *e2e) map[string]Metric {
	m := map[string]Metric{}
	put := func(name string, v float64, n int) {
		m[name] = Metric{Value: v, Unit: perLayerUnit[name], Samples: n}
	}
	p50 := func(xs []float64) float64 { return Percentile(xs, 50) }
	p99 := func(xs []float64) float64 { return Percentile(xs, 99) }
	ns := len(l.walk)

	put("flatgraph.walk_ns_per_hop", ratio(l.walkNs, l.walkHops), ns)
	put("flatgraph.walk_us", p50(l.walk), ns)
	put("flatgraph.walk_p99_us", p99(l.walk), ns)
	put("flatgraph.cover_us", p50(l.cover), ns)
	put("route.route_us", p50(l.routeT), ns)
	put("route.self_us", PairedMedian(l.routeT, l.walkCover), ns)
	put("route.hops_per_query", p50(l.hops), ns)
	put("route.hops_per_query_p99", p99(l.hops), ns)
	put("route.cover_steps_per_query", p50(l.coverSteps), ns)
	put("route.rounds_per_query", p50(l.rounds), ns)
	put("route.useful_hop_ratio", ratio(l.finalHops, l.allHops), ns)
	put("route.certificate_ratio", ratio(int64(l.certs), int64(l.static)), ns)
	put("route.segments_per_query", mean(l.segments), ns)
	put("engine.route_us", p50(l.engineT), ns)
	put("engine.self_us", PairedMedian(l.engineT, l.routeT), ns)
	put("engine.budgeted_us", p50(l.budgeted), len(l.budgeted))
	put("token.sign_us", p50(l.sign), len(l.sign))
	put("token.verify_us", p50(l.verify), len(l.verify))

	nq := len(l.http)
	httpP50 := p50(l.http)
	put("adhocd.http_us", httpP50, nq)
	put("adhocd.http_p99_us", p99(l.http), nq)
	put("adhocd.serve_us", PairedMedian(l.http, l.inproc), nq)
	put("adhocd.trace_us", PairedMedian(l.http, l.httpT0), nq)
	put("adhocd.queue_us", e.p50-httpP50, nq)
	ls := e.loop
	put("adhocd.reply_bytes", ratio(ls.bytes, ls.requests), int(ls.requests))
	put("adhocd.rejected_429", float64(ls.rejected), int(ls.attempted))
	put("adhocd.errors_5xx", float64(ls.server5xx), int(ls.attempted))
	put("adhocd.peak_rss_mb", e.peakRSS, 1)
	put("adhocd.heap_mb", e.counters.heapMB, 1)
	put("adhocd.gc_pause_s", e.counters.gcPauseS, 1)

	put("registry.obtain_hit_us", p50(l.obtainHit), len(l.obtainHit))
	put("registry.obtain_miss_ms", p50(l.obtainMiss), len(l.obtainMiss))
	b, a := e.before.Registry, e.after.Registry
	hits, misses := a.Hits-b.Hits, a.Misses-b.Misses
	put("registry.hit_ratio", ratio(hits, hits+misses), int(hits+misses))
	put("registry.compiles", float64(a.Compiles-b.Compiles), 1)
	put("registry.evictions", float64(a.Evictions-b.Evictions), 1)
	put("registry.dedups", float64(a.Dedups-b.Dedups), 1)
	put("degred.reduce_ms", p50(l.reduce), len(l.reduce))

	put("dynamic.route_ms", p50(l.dynRoute), len(l.dynRoute))
	put("dynamic.advance_us", p50(l.advance), len(l.advance))
	put("dynamic.compiled_us", p50(l.compiled), len(l.compiled))
	put("dynamic.recompiles_per_route", ratio(l.dynRecompiles, l.dynN), int(l.dynN))
	put("dynamic.aborted_round_ratio", ratio(l.dynAborted, l.dynRounds), int(l.dynN))
	c := e.counters
	put("dynamic.delta_share", ratio(c.delta, c.recompiles), int(c.recompiles))
	put("dynamic.cache_hit_ratio", ratio(c.cacheHits, c.cacheHits+c.recompiles), int(c.cacheHits+c.recompiles))
	put("bench.span_overhead_ns", spanOverhead(), 20000)
	return m
}
