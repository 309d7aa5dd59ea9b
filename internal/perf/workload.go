package perf

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/dynamic"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/prng"
	"repro/internal/registry"
)

// Workload names, as BENCHMARK.json and later changes refer to them.
const (
	RouteShort  = "route_short"
	RouteLong   = "route_long"
	RouteResume = "route_resume"
	WorldChurn  = "world_churn"
	TenantChurn = "tenant_churn"
)

// Load and workload shape. The numbers are part of the benchmark's
// definition: changing one changes what every recorded result means.
const (
	// conns is the closed loop's client count: one keep-alive connection
	// per goroutine, one goroutine per vCPU of the 2-vCPU machine the
	// bounds were measured on.
	conns = 2
	// resumeBudget is the hop budget of every route_resume segment.
	resumeBudget = 256
	// maxSegments guards a resume loop against a token that never ends.
	maxSegments = 1 << 16
	// resumePool is how many distinct route_resume pairs a seed draws;
	// each pair's uninterrupted hop count is computed before the run.
	resumePool = 8192
	// worldHopsPerEpoch couples world_churn walks to the epoch clock.
	worldHopsPerEpoch = 256
	// Every worldAdvanceEvery-th world_churn request advances the world by
	// worldAdvanceEpochs epochs instead of routing.
	worldAdvanceEvery  = 8
	worldAdvanceEpochs = 4
	// tenantSpecs is how many specs tenant_churn registers: more than the
	// registry's default capacity of 8, so about a third of requests miss.
	tenantSpecs = 12
)

// Workload is one traffic mix driven against a freshly booted daemon.
type Workload struct {
	Name string
	// Why says what the workload isolates (mirrored in BENCHMARK.json).
	Why string
	// boot is the network the daemon compiles at start-up, written as a
	// registry spec with adhocd's default protocol seed 7.
	boot registry.Spec
}

// Workloads lists the benchmark's workloads in run order.
var Workloads = []Workload{
	{RouteShort, "8x8 grid with uniform pairs: the walk is a small share of a request, so serving changes show and walk changes should not",
		registry.Spec{Kind: "grid", Rows: 8, Cols: 8, Seed: 7}},
	{RouteLong, "1024-node unit-disk graph, one node isolated: the doubling walk dominates; the rare cross-component pairs get O(1) certificates",
		registry.Spec{Kind: "udg2d", N: 1024, Radius: 0.06, GenSeed: 1, Seed: 7}},
	{RouteResume, "256-node unit-disk graph walked in 256-hop budgeted segments resumed from signed tokens (cursor, budget and token path)",
		registry.Spec{Kind: "udg2d", N: 256, Radius: 0.15, GenSeed: 1, Seed: 7}},
	{WorldChurn, "two 16x16 Markov link-flap worlds, one writer each: world routes force delta recompiles, every 8th request advances",
		registry.Spec{Kind: "grid", Rows: 16, Cols: 16, Seed: 7}},
	{TenantChurn, "12 tenant specs over an LRU of 8: registry hits set p50 and tenant compiles set p99",
		registry.Spec{Kind: "grid", Rows: 8, Cols: 8, Seed: 7}},
}

// Lookup returns the named workload.
func Lookup(name string) (*Workload, bool) {
	for i := range Workloads {
		if Workloads[i].Name == name {
			return &Workloads[i], true
		}
	}
	return nil, false
}

// bootArgs are the daemon flags that generate the workload's boot network;
// everything else stays at adhocd's production defaults.
func (w *Workload) bootArgs() []string {
	s := w.boot
	if s.Kind == "grid" {
		return []string{"-gen", "grid", "-rows", strconv.Itoa(s.Rows), "-cols", strconv.Itoa(s.Cols)}
	}
	return []string{"-gen", s.Kind, "-n", strconv.Itoa(s.N),
		"-radius", strconv.FormatFloat(s.Radius, 'g', -1, 64),
		"-gen-seed", strconv.FormatUint(s.GenSeed, 10)}
}

// network is a static network the daemon serves, rebuilt in-process with
// internal/gen, plus its reachability oracle.
type network struct {
	spec registry.Spec
	g    *graph.Graph
	comp []int32 // BFS component label per node (generated IDs are 0..n-1)
}

func newNetwork(spec registry.Spec) *network {
	var g *graph.Graph
	switch spec.Kind {
	case "grid":
		g = gen.Grid(spec.Rows, spec.Cols)
	case "udg2d":
		g = gen.UDG2D(spec.N, spec.Radius, spec.GenSeed).G
	default:
		panic("perf: no generator for " + spec.Kind)
	}
	return &network{spec: spec, g: g, comp: components(g)}
}

// components labels every node with its component by breadth-first
// search. It is the oracle behind wrong_verdicts, so it deliberately uses
// nothing but the graph's adjacency.
func components(g *graph.Graph) []int32 {
	comp := make([]int32, g.NumNodes())
	for i := range comp {
		comp[i] = -1
	}
	var next int32
	for _, s := range g.Nodes() {
		if comp[s] >= 0 {
			continue
		}
		comp[s] = next
		queue := []graph.NodeID{s}
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for p := 0; p < g.Degree(v); p++ {
				h, err := g.Neighbor(v, p)
				if err != nil {
					panic(err) // p < Degree(v) by construction
				}
				if comp[h.To] < 0 {
					comp[h.To] = next
					queue = append(queue, h.To)
				}
			}
		}
		next++
	}
	return comp
}

func (n *network) reachable(s, t graph.NodeID) bool { return n.comp[s] == n.comp[t] }

// op is the kind of one logical request.
type op uint8

const (
	opRoute      op = iota // POST /v1/route
	opResume               // POST /v1/route in budgeted segments until a verdict
	opTenant               // POST /v1/networks/{id}/route, re-registering on 404
	opWorldRoute           // POST /v1/worlds/{id}/route
	opAdvance              // POST /v1/worlds/{id}/advance
)

// query is one logical request.
type query struct {
	op       op
	net      int // tenant index (opTenant) or world index (world ops)
	src, dst graph.NodeID
	pool     int // route_resume pair index
}

// resumePair is a route_resume pair with its uninterrupted outcome.
type resumePair struct {
	src, dst graph.NodeID
	status   string
	hops     int64
}

// inputs is everything a seed determines for one workload: the networks,
// their oracles, and the request streams. The daemon receives only the
// requests.
type inputs struct {
	wl      *Workload
	seed    uint64
	boot    *network
	eng     *engine.Engine // in-process twin of the daemon's boot engine
	tenants []*network
	pool    []resumePair

	tenantSpec  [][]byte // POST /v1/networks bodies
	tenantRoute []string // per-tenant route paths
}

func newInputs(wl *Workload, seed uint64) (*inputs, error) {
	in := &inputs{wl: wl, seed: seed, boot: newNetwork(wl.boot)}
	var err error
	if in.eng, err = engine.Compile(in.boot.g, engine.Config{Seed: wl.boot.Seed}); err != nil {
		return nil, err
	}
	switch wl.Name {
	case TenantChurn:
		for k := 1; k <= tenantSpecs; k++ {
			spec := registry.Spec{Kind: "udg2d", N: 256, Radius: 0.15, GenSeed: uint64(k)}
			body, err := json.Marshal(spec)
			if err != nil {
				return nil, err
			}
			in.tenants = append(in.tenants, newNetwork(spec))
			in.tenantSpec = append(in.tenantSpec, body)
			in.tenantRoute = append(in.tenantRoute, "/v1/networks/"+spec.ID()+"/route")
		}
	case RouteResume:
		rng := prng.New(prng.At(seed, 1<<32))
		n := in.boot.g.NumNodes()
		for range resumePool {
			s, t := pair(rng, n)
			res, err := in.eng.Route(s, t)
			if err != nil {
				return nil, fmt.Errorf("perf: resume oracle %d->%d: %w", s, t, err)
			}
			in.pool = append(in.pool, resumePair{src: s, dst: t, status: res.Status.String(), hops: res.Hops})
		}
	}
	return in, nil
}

// pair draws a uniform pair of distinct nodes among n.
func pair(rng *prng.Source, n int) (graph.NodeID, graph.NodeID) {
	a := rng.Intn(n)
	b := rng.Intn(n - 1)
	if b >= a {
		b++
	}
	return graph.NodeID(a), graph.NodeID(b)
}

// worldSpec is the schedule of world i: stationary Markov link flapping.
// (Bernoulli churn is not used: it shrinks the grid to a few dozen links
// within ~10k epochs, after which every query is an O(1) certificate.)
func (in *inputs) worldSpec(i int) dynamic.Spec {
	return dynamic.Spec{Kind: "markov", PDown: 0.01, PUp: 0.5, Seed: in.seed + uint64(i)}
}

func worldPath(i int, verb string) string { return "/v1/worlds/w" + strconv.Itoa(i) + "/" + verb }

// stream is connection conn's deterministic request sequence.
type stream struct {
	in   *inputs
	conn int
	rng  *prng.Source
	n    int
}

func (in *inputs) stream(conn int) *stream {
	return &stream{in: in, conn: conn, rng: prng.New(prng.At(in.seed, uint64(conn)))}
}

func (s *stream) next() query {
	s.n++
	in := s.in
	switch in.wl.Name {
	case RouteResume:
		k := s.rng.Intn(len(in.pool))
		return query{op: opResume, src: in.pool[k].src, dst: in.pool[k].dst, pool: k}
	case TenantChurn:
		k := s.rng.Intn(len(in.tenants))
		a, b := pair(s.rng, in.tenants[k].g.NumNodes())
		return query{op: opTenant, net: k, src: a, dst: b}
	case WorldChurn:
		// Connection i is world i's only writer, so each world's history
		// is a deterministic function of the seed.
		if s.n%worldAdvanceEvery == 0 {
			return query{op: opAdvance, net: s.conn}
		}
		a, b := pair(s.rng, in.boot.g.NumNodes())
		return query{op: opWorldRoute, net: s.conn, src: a, dst: b}
	default:
		a, b := pair(s.rng, in.boot.g.NumNodes())
		return query{op: opRoute, src: a, dst: b}
	}
}

// setup prepares a freshly booted daemon for the workload: the worlds or
// the tenant specs. It is part of setup_s.
func (in *inputs) setup(c *conn) error {
	switch in.wl.Name {
	case WorldChurn:
		for i := range conns {
			body, err := json.Marshal(struct {
				Name     string       `json:"name"`
				Schedule dynamic.Spec `json:"schedule"`
			}{"w" + strconv.Itoa(i), in.worldSpec(i)})
			if err != nil {
				return err
			}
			if _, err := c.call(http.MethodPost, "/v1/worlds", body, nil); err != nil {
				return fmt.Errorf("perf: create world %d: %w", i, err)
			}
		}
	case TenantChurn:
		for k, body := range in.tenantSpec {
			if _, err := c.call(http.MethodPost, "/v1/networks", body, nil); err != nil {
				return fmt.Errorf("perf: register tenant %d: %w", k+1, err)
			}
		}
	}
	return nil
}

// outcome is what one logical request returned.
type outcome struct {
	reply               // the final reply
	segments     int    // HTTP route requests sent (resume segments)
	reregistered bool   // a tenant 404 was answered by re-registering
	bytes        int    // reply bytes over all HTTP requests
	code         int    // HTTP status of a failed request (0 = transport)
	err          string // non-empty when the request failed
}

var advanceBody = []byte(`{"epochs":` + strconv.Itoa(worldAdvanceEpochs) + `}`)

// do runs one logical request over c. A request that fails reports it in
// the outcome; world requests that fail still count, since they may have
// moved the world.
func (in *inputs) do(c *conn, q query) outcome {
	var o outcome
	var err error
	post := func(path string, body []byte) {
		o.reply = reply{}
		var n int
		n, err = c.call(http.MethodPost, path, body, &o.reply)
		o.bytes += n
		o.segments++
	}
	switch q.op {
	case opRoute:
		post("/v1/route", routeBody(int64(q.src), int64(q.dst), 0, "", 0))
	case opResume:
		tok := ""
		for err == nil {
			post("/v1/route", routeBody(int64(q.src), int64(q.dst), resumeBudget, tok, 0))
			if err != nil || o.Status != "budget_exhausted" {
				break
			}
			if tok = o.Resume; tok == "" || o.segments >= maxSegments {
				err = errors.New("perf: budget_exhausted reply without a usable resume token")
			}
		}
	case opTenant:
		path := in.tenantRoute[q.net]
		body := routeBody(int64(q.src), int64(q.dst), 0, "", 0)
		post(path, body)
		var se *statusError
		if errors.As(err, &se) && se.code == http.StatusNotFound {
			o.reregistered = true
			var n int
			if n, err = c.call(http.MethodPost, "/v1/networks", in.tenantSpec[q.net], nil); err == nil {
				post(path, body)
			}
			o.bytes += n
		}
	case opWorldRoute:
		post(worldPath(q.net, "route"), routeBody(int64(q.src), int64(q.dst), 0, "", worldHopsPerEpoch))
	case opAdvance:
		post(worldPath(q.net, "advance"), advanceBody)
	}
	if err != nil {
		o.err = err.Error()
		var se *statusError
		if errors.As(err, &se) {
			o.code = se.code
		}
	}
	return o
}

// verdictOK checks a static request's verdict against the oracle: success
// exactly when BFS puts both ends in one component, and for route_resume
// the split walk's total hops equal the uninterrupted walk's. World
// requests are checked afterwards by replay.
func (in *inputs) verdictOK(q query, o outcome) bool {
	want := func(reachable bool) bool {
		if reachable {
			return o.Status == "success"
		}
		return o.Status == "failure"
	}
	switch q.op {
	case opRoute:
		return want(in.boot.reachable(q.src, q.dst))
	case opTenant:
		return want(in.tenants[q.net].reachable(q.src, q.dst))
	case opResume:
		p := in.pool[q.pool]
		return want(in.boot.reachable(q.src, q.dst)) && o.Status == p.status && o.Hops == p.hops
	}
	return true
}

// logged is one world request kept for the replay oracle.
type logged struct {
	q query
	o outcome
}

// replayWorld re-runs world i's logged requests in-process from a fresh
// world (Engine.NewWorld, then RouteDynamic / Advance in log order) and
// counts replies whose verdict, hops, rounds, bound or aborted rounds —
// or, for advances, epoch and link count — differ from the daemon's.
func (in *inputs) replayWorld(i int, log []logged) (int, error) {
	sched, err := in.worldSpec(i).Build()
	if err != nil {
		return 0, err
	}
	w := in.eng.NewWorld(sched)
	wrong := 0
	for _, e := range log {
		var res *dynamic.Result
		var err error
		if e.q.op == opAdvance {
			for range worldAdvanceEpochs {
				if err = w.Advance(dynamic.Probe{}); err != nil {
					break
				}
			}
		} else {
			res, err = in.eng.RouteDynamic(w, e.q.src, e.q.dst, dynamic.Config{HopsPerEpoch: worldHopsPerEpoch})
		}
		if (err != nil) != (e.o.err != "") {
			wrong++
			continue
		}
		if err != nil {
			continue
		}
		if res == nil {
			snap := w.Snapshot()
			if snap.Epoch != e.o.Epoch || snap.Links != e.o.Links {
				wrong++
			}
		} else if !sameDynamic(res, e.o.reply) {
			wrong++
		}
	}
	return wrong, nil
}

func sameDynamic(res *dynamic.Result, r reply) bool {
	return res.Status.String() == r.Status && res.Hops == r.Hops && res.Rounds == r.Rounds &&
		res.Bound == r.Bound && res.AbortedRounds == r.AbortedRounds
}
