// Command loadgen is a closed-loop HTTP load generator for adhocd: a
// fixed pool of concurrent workers, each issuing the next request as soon
// as the previous one completes, so measured latency includes queueing at
// the server but the offered load never outruns the server's admission
// (the closed-loop discipline — throughput is a *result*, not an input).
//
// Scenarios model the daemon's serving shapes, mixed by weight:
//
//	route    POST /v1/route            — the warm static path (µs-scale)
//	batch    POST /v1/batch            — amortized fan-out (-batch-size pairs)
//	world    POST /v1/worlds/{id}/route — shared dynamic world, frozen clock
//	compile  POST /v1/networks         — registry-miss compile storm (every
//	                                     request posts a never-seen spec)
//	resume   POST /v1/route            — bounded-work differential: walk the
//	                                     pair uninterrupted for a reference
//	                                     verdict, then again chopped into
//	                                     -resume-budget hop segments resumed
//	                                     from the server's signed tokens; a
//	                                     verdict mismatch counts as a wrong
//	                                     verdict (total.wrong_verdicts must
//	                                     stay 0 — the CI chaos smoke gate)
//
// Every request retries on 429/503 with jittered exponential backoff,
// honoring the server's Retry-After advice (capped so advice cannot stall
// the run); the report counts retries and token resumptions per scenario.
//
// Usage:
//
//	loadgen -addr http://127.0.0.1:8080 -c 32 -d 10s \
//	        -mix route=8,batch=1,world=1,compile=1 -json report.json
//
// The report gives throughput and p50/p90/p95/p99/max latency overall and
// per scenario, as text on stdout and optionally as JSON (-json path, "-"
// for stdout) — the shape CI archives next to the benchstat artifact.
//
// Every request carries a generated W3C traceparent (sampled), so the
// daemon traces each one; the report lists the trace IDs of the k slowest
// requests per scenario (-slowest), resolvable against the daemon's
// flight recorder via GET /v1/traces/{id}.
//
// With -slo, loadgen additionally fetches the server's declared
// objectives (GET /v1/slo) after the run and exits nonzero on any
// violation: a server-side objective left burning, a measured latency
// quantile over its declared threshold, or wrong verdicts against the
// zero-tolerance wrong_verdicts objective (which only a client replaying
// walks against a reference can evaluate — the resume scenario).
//
// Percentiles are exact (every sample is kept and sorted at the end), not
// bucket-estimated: a 10-second run at full tilt stores a few million
// int64s, which is cheap, and exactness matters when the thing under test
// is a sub-microsecond route behind an HTTP stack.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

// scenarioNames is the fixed scenario order (reports list them this way).
var scenarioNames = []string{"route", "batch", "world", "compile", "resume"}

// config carries the parsed flags.
type config struct {
	addr         string
	c            int
	d            time.Duration
	mix          map[string]int
	batchSize    int
	resumeBudget int
	seed         int64
	jsonPath     string
	slowest      int
	slo          bool
	cluster      bool
}

func parseFlags(args []string) (*config, error) {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8080", "adhocd base URL")
		c         = fs.Int("c", 8, "concurrent closed-loop workers")
		d         = fs.Duration("d", 10*time.Second, "test duration")
		mix       = fs.String("mix", "route=1", "scenario mix as name=weight[,name=weight...]; scenarios: route, batch, world, compile, resume")
		batchSize = fs.Int("batch-size", 16, "pairs per batch request")
		resumeBdg = fs.Int("resume-budget", 64, "hop budget per segment of the resume scenario (deliberately small so walks split)")
		seed      = fs.Int64("seed", 1, "workload randomness seed")
		jsonOut   = fs.String("json", "", "write the JSON report to this path (\"-\" = stdout)")
		slowest   = fs.Int("slowest", 3, "report the trace IDs of the k slowest requests per scenario (0 disables)")
		sloCheck  = fs.Bool("slo", false, "after the run, fetch the server's GET /v1/slo objectives and fail (exit nonzero) on any violation: a server-side burning objective, a measured latency quantile over its declared threshold, or wrong verdicts against a zero-tolerance objective")
		clust     = fs.Bool("cluster", false, "discover the shard map via GET /v1/cluster on -addr, spread workers across the member addresses, rotate away from a shard on transport error or 503, and report per-shard latency")
	)
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	m, err := parseMix(*mix)
	if err != nil {
		return nil, err
	}
	if *c < 1 {
		return nil, fmt.Errorf("need -c >= 1, got %d", *c)
	}
	if *d <= 0 {
		return nil, fmt.Errorf("need -d > 0, got %v", *d)
	}
	if *slowest < 0 {
		return nil, fmt.Errorf("need -slowest >= 0, got %d", *slowest)
	}
	if *resumeBdg < 1 {
		return nil, fmt.Errorf("need -resume-budget >= 1, got %d", *resumeBdg)
	}
	return &config{
		addr:         strings.TrimSuffix(*addr, "/"),
		c:            *c,
		d:            *d,
		mix:          m,
		batchSize:    *batchSize,
		resumeBudget: *resumeBdg,
		seed:         *seed,
		jsonPath:     *jsonOut,
		slowest:      *slowest,
		slo:          *sloCheck,
		cluster:      *clust,
	}, nil
}

// parseMix parses "route=8,batch=1" into weights. Unknown scenario names
// and non-positive weights are errors: a typo must not silently skew the
// load shape.
func parseMix(s string) (map[string]int, error) {
	known := make(map[string]bool, len(scenarioNames))
	for _, n := range scenarioNames {
		known[n] = true
	}
	m := make(map[string]int)
	total := 0
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad mix entry %q (want name=weight)", part)
		}
		if !known[name] {
			return nil, fmt.Errorf("unknown scenario %q (want one of %s)", name, strings.Join(scenarioNames, ", "))
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad weight in %q (want a positive integer)", part)
		}
		m[name] += n
		total += n
	}
	if total == 0 {
		return nil, fmt.Errorf("empty mix %q", s)
	}
	return m, nil
}

// sample is one completed request. Every request carries a generated
// traceparent, so trace holds the ID the server knows this request by —
// the join key into adhocd's GET /v1/traces/{id} for the slow tail.
// retries counts 429/503 backoff re-sends absorbed by this logical
// request, resumes counts budget_exhausted→token→re-route segments, and
// wrong flags a resume-scenario verdict that disagreed with the
// uninterrupted reference walk.
type sample struct {
	scenario int8
	ok       bool
	wrong    bool
	retries  int32
	resumes  int32
	ns       int64
	trace    trace.TraceID
	// shard names the shard that served the request (-cluster mode): the
	// reply's X-Adhoc-Shard when the owner differed from the entry shard,
	// otherwise the entry shard itself. "" in single-server mode.
	shard string
}

// worker runs the closed loop until deadline, appending samples to its
// private slice (merged after the run — no cross-worker contention).
type worker struct {
	gen     *generator
	rng     *rand.Rand
	tgt     *target
	picks   []int8 // weighted scenario table
	samples []sample
}

// generator is the shared run state.
type generator struct {
	cfg     *config
	client  *http.Client
	nodes   int64  // boot network size, for random src/dst
	worldID string // shared world, when the mix includes "world"
	// shards is the discovered cluster member list (-cluster); empty means
	// single-server mode and every request goes to -addr.
	shards []shardAddr
	// rotations counts shard switches forced by transport errors or 503s.
	rotations atomic.Int64
	// compileSeq makes every compile-storm spec distinct, guaranteeing a
	// registry miss (the cold path under test).
	compileSeq atomic.Int64
}

// shardAddr is one discovered cluster member.
type shardAddr struct {
	name string
	base string
}

// target is one worker's view of where requests go: a cursor over the
// discovered shard list. Workers start at distinct offsets so connections
// spread across the cluster; rotate moves to the next member when the
// current one stops answering (transport error or 503 — a draining or dead
// shard must not pin its workers).
type target struct {
	g   *generator
	cur int
}

func (t *target) base() string {
	if len(t.g.shards) == 0 {
		return t.g.cfg.addr
	}
	return t.g.shards[t.cur%len(t.g.shards)].base
}

// name is the entry shard's name ("" in single-server mode) — the sample
// tag fallback when the reply carries no X-Adhoc-Shard header.
func (t *target) name() string {
	if len(t.g.shards) == 0 {
		return ""
	}
	return t.g.shards[t.cur%len(t.g.shards)].name
}

func (t *target) rotate() {
	if len(t.g.shards) > 1 {
		t.cur++
		t.g.rotations.Add(1)
	}
}

// discoverShards resolves the cluster's member list from any one shard's
// GET /v1/cluster. Members come back sorted by name so worker spreading is
// deterministic for a given cluster.
func (g *generator) discoverShards() error {
	resp, err := g.client.Get(g.cfg.addr + "/v1/cluster")
	if err != nil {
		return fmt.Errorf("discover %s/v1/cluster: %w (is adhocd running with -cluster?)", g.cfg.addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("discover: GET /v1/cluster = %d (is adhocd running with -cluster?)", resp.StatusCode)
	}
	var info struct {
		Members []struct {
			Name string `json:"name"`
			Addr string `json:"addr"`
		} `json:"members"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("discover: decode cluster info: %w", err)
	}
	if len(info.Members) == 0 {
		return fmt.Errorf("discover: cluster reports no members")
	}
	g.shards = g.shards[:0]
	for _, m := range info.Members {
		if m.Name == "" || m.Addr == "" {
			return fmt.Errorf("discover: member %+v missing name or addr", m)
		}
		g.shards = append(g.shards, shardAddr{name: m.Name, base: strings.TrimSuffix(m.Addr, "/")})
	}
	sort.Slice(g.shards, func(i, j int) bool { return g.shards[i].name < g.shards[j].name })
	return nil
}

// probe fetches the boot network summary so src/dst can be drawn from
// real node IDs (generated networks number nodes 0..n-1).
func (g *generator) probe() error {
	resp, err := g.client.Get(g.cfg.addr + "/v1/network")
	if err != nil {
		return fmt.Errorf("probe %s/v1/network: %w (is adhocd running?)", g.cfg.addr, err)
	}
	defer resp.Body.Close()
	var info struct {
		Nodes int64 `json:"nodes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Errorf("probe: decode network info: %w", err)
	}
	if info.Nodes < 1 {
		return fmt.Errorf("probe: server reports %d nodes", info.Nodes)
	}
	g.nodes = info.Nodes
	return nil
}

// setupWorld creates (or re-creates) the shared world the "world"
// scenario routes over. A leftover world from a previous run is deleted
// first so the schedule is always the expected one.
func (g *generator) setupWorld() error {
	const name = "loadgen"
	req, _ := http.NewRequest(http.MethodDelete, g.cfg.addr+"/v1/worlds/"+name, nil)
	if resp, err := g.client.Do(req); err == nil {
		resp.Body.Close() // 404 is fine: nothing to clean up
	}
	body := fmt.Sprintf(`{"name":%q,"schedule":{"kind":"churn","p_drop":0.02,"add_rate":1,"seed":%d}}`, name, g.cfg.seed)
	resp, err := g.client.Post(g.cfg.addr+"/v1/worlds", "application/json", strings.NewReader(body))
	if err != nil {
		return fmt.Errorf("create world: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("create world: %d (%s)", resp.StatusCode, bytes.TrimSpace(b))
	}
	g.worldID = name
	return nil
}

// setupRetry runs a one-shot setup step a few times before giving up, so
// a daemon that is still coming up — or one running with fault injection
// armed — cannot kill the whole run with a single unlucky 500.
func setupRetry(step func() error) error {
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		if attempt > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		if err = step(); err == nil {
			return nil
		}
	}
	return err
}

// postFull issues one POST through the worker's current target and returns
// the HTTP status (0 on a transport error), the Retry-After header, and
// the name of the shard that served the reply. When out is non-nil a 2xx
// body is decoded into it; otherwise the body is drained so the connection
// is reused.
func (g *generator) postFull(t *target, path, body, traceparent string, out any) (int, string, string) {
	req, err := http.NewRequest(http.MethodPost, t.base()+path, strings.NewReader(body))
	if err != nil {
		return 0, "", t.name()
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", traceparent)
	resp, err := g.client.Do(req)
	if err != nil {
		return 0, "", t.name()
	}
	defer resp.Body.Close()
	shard := resp.Header.Get("X-Adhoc-Shard")
	if shard == "" {
		shard = t.name()
	}
	if out != nil && resp.StatusCode >= 200 && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return 0, "", shard
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, resp.Header.Get("Retry-After"), shard
}

// Backoff policy for 429 (admission rejection) and 503 (draining server):
// exponential from retryBase with full jitter, preferring the server's
// Retry-After advice when present — capped at retryCap so bad advice
// cannot stall the closed loop, and bounded to retryMax attempts.
const (
	retryBase = 50 * time.Millisecond
	retryCap  = 2 * time.Second
	retryMax  = 5
)

// postRetry is postFull with the backoff policy: it re-sends on 429/503
// until another status, the attempt cap, or the run deadline, and returns
// the final status, how many retries were absorbed, and the serving shard.
// In cluster mode a transport error (status 0) or 503 also rotates the
// worker's target to the next shard — a dead or draining member must not
// pin its workers — and status 0 becomes retryable since the re-send goes
// somewhere else.
func (g *generator) postRetry(t *target, path, body, traceparent string, rng *rand.Rand, deadline time.Time, out any) (int, int32, string) {
	backoff := retryBase
	multi := len(g.shards) > 1
	for attempt := int32(0); ; attempt++ {
		status, advice, shard := g.postFull(t, path, body, traceparent, out)
		retryable := status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable ||
			(status == 0 && multi)
		if !retryable {
			return status, attempt, shard
		}
		if status == 0 || status == http.StatusServiceUnavailable {
			t.rotate()
		}
		if attempt >= retryMax || !time.Now().Before(deadline) {
			return status, attempt, shard
		}
		wait := backoff
		if secs, err := strconv.Atoi(advice); err == nil && secs > 0 {
			wait = time.Duration(secs) * time.Second
		}
		// Full jitter over [wait/2, wait]: the rejected cohort must not
		// reconverge on one retry instant.
		wait = wait/2 + time.Duration(rng.Int63n(int64(wait/2)+1))
		if wait > retryCap {
			wait = retryCap
		}
		time.Sleep(wait)
		backoff *= 2
	}
}

// outcome is what one logical scenario request cost: the verdict, the
// backoff retries and token resumptions absorbed along the way, and (for
// the resume differential) whether the split verdict disagreed with the
// uninterrupted one.
type outcome struct {
	ok      bool
	wrong   bool
	retries int32
	resumes int32
	shard   string
}

// ok2xx folds a postRetry result into an outcome.
func ok2xx(status int, retries int32, shard string) outcome {
	return outcome{ok: status >= 200 && status < 300, retries: retries, shard: shard}
}

// do runs one request of the given scenario under the given traceparent.
func (g *generator) do(s int8, t *target, rng *rand.Rand, traceparent string, deadline time.Time) outcome {
	switch scenarioNames[s] {
	case "route":
		return ok2xx(g.postRetry(t, "/v1/route",
			fmt.Sprintf(`{"src":%d,"dst":%d}`, rng.Int63n(g.nodes), rng.Int63n(g.nodes)),
			traceparent, rng, deadline, nil))
	case "batch":
		var b strings.Builder
		b.WriteString(`{"pairs":[`)
		for i := 0; i < g.cfg.batchSize; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "[%d,%d]", rng.Int63n(g.nodes), rng.Int63n(g.nodes))
		}
		b.WriteString(`]}`)
		return ok2xx(g.postRetry(t, "/v1/batch", b.String(), traceparent, rng, deadline, nil))
	case "world":
		return ok2xx(g.postRetry(t, "/v1/worlds/"+g.worldID+"/route",
			fmt.Sprintf(`{"src":%d,"dst":%d,"hops_per_epoch":-1}`, rng.Int63n(g.nodes), rng.Int63n(g.nodes)),
			traceparent, rng, deadline, nil))
	case "compile":
		// Every spec is new (seq-distinct protocol seed): a guaranteed
		// registry miss, compiling an 8x8 grid and churning the LRU.
		return ok2xx(g.postRetry(t, "/v1/networks",
			fmt.Sprintf(`{"kind":"grid","rows":8,"cols":8,"seed":%d}`, g.compileSeq.Add(1)),
			traceparent, rng, deadline, nil))
	case "resume":
		return g.doResume(t, rng, traceparent, deadline)
	}
	return outcome{}
}

// doResume is the bounded-work differential: one uninterrupted walk for
// the reference verdict, then the same pair chopped into -resume-budget
// hop segments, each resumed from the server's signed token. The verdicts
// must agree — a disagreement is the wrong_verdicts CI gate firing.
func (g *generator) doResume(t *target, rng *rand.Rand, traceparent string, deadline time.Time) outcome {
	src, dst := rng.Int63n(g.nodes), rng.Int63n(g.nodes)
	var ref struct {
		Status string `json:"status"`
	}
	status, retries, shard := g.postRetry(t, "/v1/route",
		fmt.Sprintf(`{"src":%d,"dst":%d}`, src, dst), traceparent, rng, deadline, &ref)
	res := outcome{retries: retries, shard: shard}
	if status < 200 || status >= 300 {
		return res
	}
	resume := ""
	for {
		var rep struct {
			Status string `json:"status"`
			Resume string `json:"resume"`
		}
		body := fmt.Sprintf(`{"src":%d,"dst":%d,"budget_hops":%d,"resume":%q}`,
			src, dst, g.cfg.resumeBudget, resume)
		status, retries, res.shard = g.postRetry(t, "/v1/route", body, traceparent, rng, deadline, &rep)
		res.retries += retries
		if status < 200 || status >= 300 {
			return res
		}
		if rep.Status != "budget_exhausted" {
			res.ok = true
			res.wrong = rep.Status != ref.Status
			return res
		}
		if rep.Resume == "" {
			return res // exhausted without a token: a server bug, count as error
		}
		resume = rep.Resume
		res.resumes++
	}
}

func (w *worker) loop(deadline time.Time) {
	for time.Now().Before(deadline) {
		s := w.picks[w.rng.Intn(len(w.picks))]
		// Every request carries a fresh sampled traceparent, so the server
		// traces it and the slow tail can be pulled from /v1/traces by ID.
		tid := trace.NewTraceID()
		tp := trace.Traceparent(tid, trace.NewSpanID(), trace.FlagSampled)
		t0 := time.Now()
		o := w.gen.do(s, w.tgt, w.rng, tp, deadline)
		w.samples = append(w.samples, sample{
			scenario: s, ok: o.ok, wrong: o.wrong,
			retries: o.retries, resumes: o.resumes,
			ns: int64(time.Since(t0)), trace: tid, shard: o.shard,
		})
	}
}

// ScenarioReport summarizes one scenario's (or the whole run's) samples.
type ScenarioReport struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	Errors   int64  `json:"errors"`
	// Retries counts 429/503 backoff re-sends; Resumes counts
	// budget_exhausted→token segments (resume scenario); WrongVerdicts
	// counts resume-differential disagreements and is always present —
	// the CI chaos smoke job gates on total.wrong_verdicts == 0.
	Retries       int64   `json:"retries"`
	Resumes       int64   `json:"resumes"`
	WrongVerdicts int64   `json:"wrong_verdicts"`
	RPS           float64 `json:"rps"`
	MeanUS        float64 `json:"mean_us"`
	P50US         float64 `json:"p50_us"`
	P90US         float64 `json:"p90_us"`
	P95US         float64 `json:"p95_us"`
	P99US         float64 `json:"p99_us"`
	MaxUS         float64 `json:"max_us"`
	// Slowest lists the k worst successful requests (-slowest), worst
	// first, with the trace IDs the server knows them by — fetch the full
	// walk timeline from adhocd's GET /v1/traces/{id}.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest identifies one slow-tail request for trace lookup.
type SlowRequest struct {
	TraceID string  `json:"trace_id"`
	US      float64 `json:"us"`
}

// ShardReport is one cluster member's share of the run (-cluster):
// samples are tagged with the shard that actually served them (the
// X-Adhoc-Shard header when the owner differed from the entry shard), so
// a member that silently served nothing shows up as an empty row — the
// per-shard p99 is what the cluster smoke job gates on.
type ShardReport struct {
	Name     string  `json:"name"`
	Requests int64   `json:"requests"`
	Errors   int64   `json:"errors"`
	P50US    float64 `json:"p50_us"`
	P99US    float64 `json:"p99_us"`
}

// Report is the loadgen output shape (-json).
type Report struct {
	Addr        string           `json:"addr"`
	Concurrency int              `json:"concurrency"`
	DurationSec float64          `json:"duration_sec"`
	Mix         map[string]int   `json:"mix"`
	Total       ScenarioReport   `json:"total"`
	Scenarios   []ScenarioReport `json:"scenarios"`
	// Shards breaks the run down by serving shard (-cluster mode), and
	// Rotations counts how many times a worker switched shards because its
	// target stopped answering (transport error or 503).
	Shards    []ShardReport `json:"shards,omitempty"`
	Rotations int64         `json:"rotations,omitempty"`
	// SLOViolations lists every objective the run violated (-slo mode):
	// non-empty makes loadgen exit nonzero — the CI gate.
	SLOViolations []string `json:"slo_violations,omitempty"`
}

// percentile returns the exact q-quantile (0 < q <= 1) of sorted ns
// samples, by the nearest-rank method.
func percentile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// summarize builds one report row from the scenario's successful samples,
// including the k-slowest tail with trace IDs. tallies carries the
// resilience counters aggregated over all of the scenario's samples
// (errored ones retried too).
func summarize(name string, requests, errors int64, tallies ScenarioReport, oks []sample, elapsed time.Duration, k int) ScenarioReport {
	sort.Slice(oks, func(i, j int) bool { return oks[i].ns < oks[j].ns })
	lats := make([]int64, len(oks))
	for i, s := range oks {
		lats[i] = s.ns
	}
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	r := ScenarioReport{
		Name:          name,
		Requests:      requests,
		Errors:        errors,
		Retries:       tallies.Retries,
		Resumes:       tallies.Resumes,
		WrongVerdicts: tallies.WrongVerdicts,
		RPS:           float64(requests) / elapsed.Seconds(),
		P50US:         us(percentile(lats, 0.50)),
		P90US:         us(percentile(lats, 0.90)),
		P95US:         us(percentile(lats, 0.95)),
		P99US:         us(percentile(lats, 0.99)),
	}
	if len(oks) > 0 {
		var sum int64
		for _, v := range lats {
			sum += v
		}
		r.MeanUS = us(sum / int64(len(lats)))
		r.MaxUS = us(lats[len(lats)-1])
	}
	for i := len(oks) - 1; i >= 0 && len(r.Slowest) < k; i-- {
		r.Slowest = append(r.Slowest, SlowRequest{TraceID: oks[i].trace.String(), US: us(oks[i].ns)})
	}
	return r
}

func run(args []string, out io.Writer) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}
	gen := &generator{
		cfg: cfg,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        cfg.c * 2,
			MaxIdleConnsPerHost: cfg.c * 2,
		}},
	}
	if err := setupRetry(gen.probe); err != nil {
		return err
	}
	if cfg.cluster {
		if err := setupRetry(gen.discoverShards); err != nil {
			return err
		}
	}
	if cfg.mix["world"] > 0 {
		if err := setupRetry(gen.setupWorld); err != nil {
			return err
		}
	}

	// The weighted pick table: scenario s appears mix[s] times.
	var picks []int8
	for i, name := range scenarioNames {
		for k := 0; k < cfg.mix[name]; k++ {
			picks = append(picks, int8(i))
		}
	}

	workers := make([]*worker, cfg.c)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(cfg.d)
	for i := range workers {
		workers[i] = &worker{
			gen: gen,
			rng: rand.New(rand.NewSource(cfg.seed + int64(i)*7919)),
			// Distinct starting offsets spread worker connections across the
			// discovered shards instead of dogpiling the -addr one.
			tgt:   &target{g: gen, cur: i},
			picks: picks,
		}
		wg.Add(1)
		go func(w *worker) {
			defer wg.Done()
			w.loop(deadline)
		}(workers[i])
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Merge per-worker samples by scenario (successes keep their trace ID
	// for the slow-tail report).
	perOK := make([][]sample, len(scenarioNames))
	perReq := make([]int64, len(scenarioNames))
	perErr := make([]int64, len(scenarioNames))
	perTal := make([]ScenarioReport, len(scenarioNames))
	var allOK []sample
	var allReq, allErr int64
	var allTal ScenarioReport
	for _, w := range workers {
		for _, s := range w.samples {
			perReq[s.scenario]++
			allReq++
			perTal[s.scenario].Retries += int64(s.retries)
			perTal[s.scenario].Resumes += int64(s.resumes)
			allTal.Retries += int64(s.retries)
			allTal.Resumes += int64(s.resumes)
			if s.wrong {
				perTal[s.scenario].WrongVerdicts++
				allTal.WrongVerdicts++
			}
			if !s.ok {
				perErr[s.scenario]++
				allErr++
				continue
			}
			perOK[s.scenario] = append(perOK[s.scenario], s)
			allOK = append(allOK, s)
		}
	}

	rep := Report{
		Addr:        cfg.addr,
		Concurrency: cfg.c,
		DurationSec: elapsed.Seconds(),
		Mix:         cfg.mix,
		Total:       summarize("total", allReq, allErr, allTal, allOK, elapsed, cfg.slowest),
	}
	for i, name := range scenarioNames {
		if cfg.mix[name] == 0 {
			continue
		}
		rep.Scenarios = append(rep.Scenarios, summarize(name, perReq[i], perErr[i], perTal[i], perOK[i], elapsed, cfg.slowest))
	}
	if cfg.cluster {
		rep.Shards = shardBreakdown(gen.shards, workers)
		rep.Rotations = gen.rotations.Load()
	}

	if cfg.slo {
		if err := gen.evalSLO(&rep); err != nil {
			return err
		}
	}

	writeText(out, &rep)
	if cfg.jsonPath != "" {
		data, err := json.MarshalIndent(&rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if cfg.jsonPath == "-" {
			if _, err = out.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(cfg.jsonPath, data, 0o644); err != nil {
			return err
		}
	}
	if n := len(rep.SLOViolations); n > 0 {
		return fmt.Errorf("%d SLO violation(s)", n)
	}
	return nil
}

// shardBreakdown groups every sample by the shard that served it and
// computes per-shard latency quantiles. Discovered members come first (in
// name order, zero rows kept — a shard that served nothing is a finding);
// shards seen only in reply headers (joined after discovery) are appended.
func shardBreakdown(discovered []shardAddr, workers []*worker) []ShardReport {
	order := make([]string, 0, len(discovered))
	byName := make(map[string]*ShardReport, len(discovered))
	lats := make(map[string][]int64, len(discovered))
	add := func(name string) *ShardReport {
		r, ok := byName[name]
		if !ok {
			r = &ShardReport{Name: name}
			byName[name] = r
			order = append(order, name)
		}
		return r
	}
	for _, sa := range discovered {
		add(sa.name)
	}
	for _, w := range workers {
		for _, s := range w.samples {
			name := s.shard
			if name == "" {
				name = "unknown"
			}
			r := add(name)
			r.Requests++
			if !s.ok {
				r.Errors++
				continue
			}
			lats[name] = append(lats[name], s.ns)
		}
	}
	out := make([]ShardReport, 0, len(order))
	for _, name := range order {
		r := byName[name]
		sorted := lats[name]
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		r.P50US = float64(percentile(sorted, 0.50)) / 1e3
		r.P99US = float64(percentile(sorted, 0.99)) / 1e3
		out = append(out, *r)
	}
	return out
}

// writeText renders the human-readable report table.
func writeText(out io.Writer, rep *Report) {
	fmt.Fprintf(out, "loadgen: %s  c=%d  %.2fs\n", rep.Addr, rep.Concurrency, rep.DurationSec)
	fmt.Fprintf(out, "%-8s %10s %7s %12s %10s %10s %10s %10s %10s\n",
		"scenario", "requests", "errors", "rps", "mean", "p50", "p95", "p99", "max")
	row := func(r ScenarioReport) {
		fmt.Fprintf(out, "%-8s %10d %7d %12.1f %9.1fµs %9.1fµs %9.1fµs %9.1fµs %9.1fµs\n",
			r.Name, r.Requests, r.Errors, r.RPS, r.MeanUS, r.P50US, r.P95US, r.P99US, r.MaxUS)
	}
	row(rep.Total)
	if len(rep.Scenarios) > 1 {
		for _, r := range rep.Scenarios {
			row(r)
		}
	}
	if t := rep.Total; t.Retries > 0 || t.Resumes > 0 || t.WrongVerdicts > 0 {
		fmt.Fprintf(out, "resilience: retries=%d resumes=%d wrong_verdicts=%d\n",
			t.Retries, t.Resumes, t.WrongVerdicts)
	}
	for _, s := range rep.Shards {
		fmt.Fprintf(out, "shard %-12s %10d requests %7d errors %9.1fµs p50 %9.1fµs p99\n",
			s.Name, s.Requests, s.Errors, s.P50US, s.P99US)
	}
	if rep.Rotations > 0 {
		fmt.Fprintf(out, "rotations: %d (workers switched shards on transport error or 503)\n", rep.Rotations)
	}
	for _, v := range rep.SLOViolations {
		fmt.Fprintf(out, "SLO VIOLATION: %s\n", v)
	}
	// The slow tail, per scenario: trace IDs resolvable against the
	// daemon's flight recorder (GET /v1/traces/{id}).
	for _, r := range rep.Scenarios {
		for _, s := range r.Slowest {
			fmt.Fprintf(out, "slowest %-8s %9.1fµs  trace=%s\n", r.Name, s.US, s.TraceID)
		}
	}
}
