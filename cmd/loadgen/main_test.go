package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestParseMix(t *testing.T) {
	m, err := parseMix("route=8, batch=1,world=2")
	if err != nil {
		t.Fatal(err)
	}
	if m["route"] != 8 || m["batch"] != 1 || m["world"] != 2 {
		t.Fatalf("mix = %v", m)
	}
	for _, bad := range []string{"", "nope=1", "route", "route=0", "route=-1", "route=x"} {
		if _, err := parseMix(bad); err == nil {
			t.Errorf("parseMix(%q) accepted", bad)
		}
	}
	// Repeated names accumulate.
	m, err = parseMix("route=1,route=2")
	if err != nil {
		t.Fatal(err)
	}
	if m["route"] != 3 {
		t.Fatalf("repeated mix = %v", m)
	}
}

func TestPercentile(t *testing.T) {
	if percentile(nil, 0.5) != 0 {
		t.Error("empty percentile != 0")
	}
	sorted := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	cases := []struct {
		q    float64
		want int64
	}{{0.50, 50}, {0.90, 90}, {0.99, 100}, {1.0, 100}, {0.01, 10}}
	for _, c := range cases {
		if got := percentile(sorted, c.q); got != c.want {
			t.Errorf("p%g = %d, want %d", c.q*100, got, c.want)
		}
	}
}

// stubServer mimics the adhocd endpoints loadgen drives, counting hits.
type stubServer struct {
	routes, batches, worldRoutes, compiles, worldCreates atomic.Int64
	failRoutes                                           bool
	lastTraceparent                                      atomic.Value // string
}

func (st *stubServer) handler() http.Handler {
	mux := http.NewServeMux()
	ok := func(w http.ResponseWriter) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"success"}`))
	}
	mux.HandleFunc("GET /v1/network", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"nodes":16,"links":24}`))
	})
	mux.HandleFunc("POST /v1/route", func(w http.ResponseWriter, r *http.Request) {
		st.routes.Add(1)
		if tp := r.Header.Get("traceparent"); tp != "" {
			st.lastTraceparent.Store(tp)
		}
		if st.failRoutes {
			http.Error(w, "boom", http.StatusInternalServerError)
			return
		}
		ok(w)
	})
	mux.HandleFunc("POST /v1/batch", func(w http.ResponseWriter, _ *http.Request) {
		st.batches.Add(1)
		ok(w)
	})
	mux.HandleFunc("POST /v1/networks", func(w http.ResponseWriter, _ *http.Request) {
		st.compiles.Add(1)
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"net-x"}`))
	})
	mux.HandleFunc("POST /v1/worlds", func(w http.ResponseWriter, _ *http.Request) {
		st.worldCreates.Add(1)
		w.WriteHeader(http.StatusCreated)
		_, _ = w.Write([]byte(`{"id":"loadgen"}`))
	})
	mux.HandleFunc("DELETE /v1/worlds/{id}", func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "no such world", http.StatusNotFound)
	})
	mux.HandleFunc("POST /v1/worlds/{id}/route", func(w http.ResponseWriter, _ *http.Request) {
		st.worldRoutes.Add(1)
		ok(w)
	})
	return mux
}

// TestRunMixedLoad drives all four scenarios against the stub and checks
// the JSON report: every scenario exercised, totals consistent, and the
// percentile ordering sane.
func TestRunMixedLoad(t *testing.T) {
	st := &stubServer{}
	ts := httptest.NewServer(st.handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-c", "4", "-d", "300ms",
		"-mix", "route=4,batch=1,world=1,compile=1",
		"-batch-size", "4", "-json", jsonPath,
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}

	if st.routes.Load() == 0 || st.batches.Load() == 0 ||
		st.worldRoutes.Load() == 0 || st.compiles.Load() == 0 {
		t.Fatalf("scenario not exercised: routes=%d batches=%d worldRoutes=%d compiles=%d",
			st.routes.Load(), st.batches.Load(), st.worldRoutes.Load(), st.compiles.Load())
	}
	if st.worldCreates.Load() != 1 {
		t.Errorf("world created %d times, want 1", st.worldCreates.Load())
	}

	data, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report JSON: %v", err)
	}
	if rep.Total.Requests == 0 || rep.Total.Errors != 0 {
		t.Fatalf("total = %+v", rep.Total)
	}
	if len(rep.Scenarios) != 4 {
		t.Fatalf("got %d scenario rows, want 4", len(rep.Scenarios))
	}
	var sum int64
	for _, s := range rep.Scenarios {
		sum += s.Requests
		if s.Requests > 0 && s.Errors == 0 {
			if s.P50US <= 0 || s.P50US > s.P95US || s.P95US > s.P99US || s.P99US > s.MaxUS {
				t.Errorf("%s: percentile ordering broken: %+v", s.Name, s)
			}
		}
	}
	if sum != rep.Total.Requests {
		t.Errorf("scenario requests sum %d != total %d", sum, rep.Total.Requests)
	}
	// Every request carried a well-formed sampled traceparent.
	tp, _ := st.lastTraceparent.Load().(string)
	if tid, _, flags, err := trace.ParseTraceparent(tp); err != nil || tid.IsZero() || flags&trace.FlagSampled == 0 {
		t.Errorf("traceparent %q: err=%v", tp, err)
	}
	// The slow tail: worst-first trace IDs per scenario, topped by max.
	for _, s := range rep.Scenarios {
		if s.Requests == 0 {
			continue
		}
		if len(s.Slowest) == 0 || len(s.Slowest) > 3 {
			t.Errorf("%s: slowest tail %+v, want 1..3 entries", s.Name, s.Slowest)
			continue
		}
		if s.Slowest[0].US != s.MaxUS {
			t.Errorf("%s: slowest[0] %.1fµs != max %.1fµs", s.Name, s.Slowest[0].US, s.MaxUS)
		}
		for i := 1; i < len(s.Slowest); i++ {
			if s.Slowest[i].US > s.Slowest[i-1].US {
				t.Errorf("%s: slowest not worst-first: %+v", s.Name, s.Slowest)
			}
		}
		if _, err := trace.ParseTraceID(s.Slowest[0].TraceID); err != nil {
			t.Errorf("%s: bad slowest trace ID %q: %v", s.Name, s.Slowest[0].TraceID, err)
		}
	}
	if !strings.Contains(out.String(), "slowest route") && !strings.Contains(out.String(), "slowest") {
		t.Errorf("text report missing slow tail:\n%s", out.String())
	}
	if rep.Total.RPS <= 0 {
		t.Errorf("rps = %g", rep.Total.RPS)
	}
	if !strings.Contains(out.String(), "scenario") || !strings.Contains(out.String(), "route") {
		t.Errorf("text report missing table:\n%s", out.String())
	}
}

// TestRunCountsErrors checks non-2xx responses are reported as errors,
// not silently folded into the latency population.
func TestRunCountsErrors(t *testing.T) {
	st := &stubServer{failRoutes: true}
	ts := httptest.NewServer(st.handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-c", "2", "-d", "100ms", "-mix", "route=1", "-json", "-"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.IndexByte(out.String(), '{')
	if i < 0 {
		t.Fatalf("no JSON in output:\n%s", out.String())
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()[i:]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total.Requests == 0 || rep.Total.Errors != rep.Total.Requests {
		t.Fatalf("errors %d, requests %d — want all errored", rep.Total.Errors, rep.Total.Requests)
	}
}

// TestRunBadFlags pins flag validation.
func TestRunBadFlags(t *testing.T) {
	var out bytes.Buffer
	for _, args := range [][]string{
		{"-mix", "bogus=1"},
		{"-c", "0"},
		{"-d", "0s"},
		{"-bogus"},
	} {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) accepted", args)
		}
	}
}

// TestRunUnreachable pins the error message when the daemon is absent.
func TestRunUnreachable(t *testing.T) {
	var out bytes.Buffer
	err := run([]string{"-addr", "http://127.0.0.1:1", "-d", "100ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "is adhocd running") {
		t.Fatalf("err = %v", err)
	}
}

// flakyServer 429s (with Retry-After advice) a fixed number of times
// before each success, and serves the resume scenario: the first budgeted
// request per pair exhausts with a token, the second completes. verdictLie
// makes the resumed verdict disagree with the reference one, which must
// surface as wrong_verdicts.
type flakyServer struct {
	rejectFirst int32
	advice      string // Retry-After header on rejections; empty omits it
	verdictLie  bool
	rejected    atomic.Int32
}

func (st *flakyServer) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/network", func(w http.ResponseWriter, _ *http.Request) {
		_, _ = w.Write([]byte(`{"nodes":16,"links":24}`))
	})
	mux.HandleFunc("POST /v1/route", func(w http.ResponseWriter, r *http.Request) {
		if n := st.rejected.Add(1); n <= st.rejectFirst {
			if st.advice != "" {
				w.Header().Set("Retry-After", st.advice)
			}
			http.Error(w, "capacity", http.StatusTooManyRequests)
			return
		}
		var req struct {
			BudgetHops int64  `json:"budget_hops"`
			Resume     string `json:"resume"`
		}
		_ = json.NewDecoder(r.Body).Decode(&req)
		w.Header().Set("Content-Type", "application/json")
		switch {
		case req.BudgetHops > 0 && req.Resume == "":
			_, _ = w.Write([]byte(`{"status":"budget_exhausted","resume":"tok-1"}`))
		case req.Resume != "":
			status := "success"
			if st.verdictLie {
				status = "failure"
			}
			_, _ = w.Write([]byte(`{"status":"` + status + `"}`))
		default:
			_, _ = w.Write([]byte(`{"status":"success"}`))
		}
	})
	return mux
}

// TestRunRetriesAndResumes: 429s are retried with backoff (honoring
// Retry-After) and counted; the resume scenario resumes from the server's
// token and counts segments; verdict agreement leaves wrong_verdicts 0.
func TestRunRetriesAndResumes(t *testing.T) {
	st := &flakyServer{rejectFirst: 2} // no advice: exponential backoff path
	ts := httptest.NewServer(st.handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-c", "1", "-d", "200ms",
		"-mix", "resume=1", "-resume-budget", "8", "-json", "-",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}
	i := strings.IndexByte(out.String(), '{')
	var rep Report
	if err := json.Unmarshal([]byte(out.String()[i:]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total.Errors != 0 {
		t.Fatalf("errors: %+v", rep.Total)
	}
	if rep.Total.Retries < 2 {
		t.Fatalf("retries = %d, want >= 2 (two 429s before first success)", rep.Total.Retries)
	}
	if rep.Total.Resumes == 0 {
		t.Fatalf("resumes = 0, want > 0: %+v", rep.Total)
	}
	if rep.Total.WrongVerdicts != 0 {
		t.Fatalf("wrong_verdicts = %d, want 0", rep.Total.WrongVerdicts)
	}
	// The CI gate key must be present in the JSON even at zero.
	if !strings.Contains(out.String(), `"wrong_verdicts"`) {
		t.Fatalf("report JSON missing wrong_verdicts key:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "resilience:") {
		t.Fatalf("text report missing resilience line:\n%s", out.String())
	}
}

// TestRunWrongVerdictDetected: a resumed verdict that disagrees with the
// uninterrupted reference is counted — the signal the chaos smoke job
// gates on.
func TestRunWrongVerdictDetected(t *testing.T) {
	st := &flakyServer{verdictLie: true}
	ts := httptest.NewServer(st.handler())
	defer ts.Close()

	var out bytes.Buffer
	err := run([]string{
		"-addr", ts.URL, "-c", "1", "-d", "100ms",
		"-mix", "resume=1", "-json", "-",
	}, &out)
	if err != nil {
		t.Fatal(err)
	}
	i := strings.IndexByte(out.String(), '{')
	var rep Report
	if err := json.Unmarshal([]byte(out.String()[i:]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total.WrongVerdicts == 0 {
		t.Fatalf("lying server produced wrong_verdicts = 0: %+v", rep.Total)
	}
}

// shardStub is one fake cluster member: it serves the probe and route
// endpoints, stamps every reply with its shard name, and (on the member
// whose URL loadgen was pointed at) the /v1/cluster discovery document.
type shardStub struct {
	name    string
	hits    atomic.Int64
	cluster func() string // non-nil on the discovery member
}

func (st *shardStub) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/network", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("X-Adhoc-Shard", st.name)
		_, _ = w.Write([]byte(`{"nodes":16,"links":24}`))
	})
	mux.HandleFunc("POST /v1/route", func(w http.ResponseWriter, _ *http.Request) {
		st.hits.Add(1)
		w.Header().Set("X-Adhoc-Shard", st.name)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"success"}`))
	})
	mux.HandleFunc("GET /v1/cluster", func(w http.ResponseWriter, _ *http.Request) {
		if st.cluster == nil {
			http.Error(w, "not clustered", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(st.cluster()))
	})
	return mux
}

// TestRunClusterSpreadsAcrossShards: -cluster discovers the member list
// from one shard and spreads workers over all of them; the report carries
// a per-shard breakdown with every member's p99.
func TestRunClusterSpreadsAcrossShards(t *testing.T) {
	a := &shardStub{name: "shard-a"}
	b := &shardStub{name: "shard-b"}
	tsA := httptest.NewServer(a.handler())
	defer tsA.Close()
	tsB := httptest.NewServer(b.handler())
	defer tsB.Close()
	a.cluster = func() string {
		return `{"self":"shard-a","members":[` +
			`{"name":"shard-a","addr":"` + tsA.URL + `"},` +
			`{"name":"shard-b","addr":"` + tsB.URL + `"}]}`
	}

	var out bytes.Buffer
	err := run([]string{
		"-addr", tsA.URL, "-cluster", "-c", "4", "-d", "200ms",
		"-mix", "route=1", "-json", "-",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}
	if a.hits.Load() == 0 || b.hits.Load() == 0 {
		t.Fatalf("load not spread: shard-a=%d shard-b=%d", a.hits.Load(), b.hits.Load())
	}
	i := strings.IndexByte(out.String(), '{')
	var rep Report
	if err := json.Unmarshal([]byte(out.String()[i:]), &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Shards) != 2 {
		t.Fatalf("shard rows = %+v, want 2", rep.Shards)
	}
	for _, s := range rep.Shards {
		if s.Name != "shard-a" && s.Name != "shard-b" {
			t.Fatalf("unexpected shard row %+v", s)
		}
		if s.Requests == 0 || s.Errors != 0 {
			t.Fatalf("shard %s: %+v, want traffic and no errors", s.Name, s)
		}
		if s.P99US <= 0 || s.P50US > s.P99US {
			t.Fatalf("shard %s: broken quantiles %+v", s.Name, s)
		}
	}
	if !strings.Contains(out.String(), "shard shard-a") || !strings.Contains(out.String(), "shard shard-b") {
		t.Fatalf("text report missing shard rows:\n%s", out.String())
	}
}

// TestRunClusterRotatesOffDeadShard: a discovered member that never
// answers (connection refused) must not sink its workers' requests — they
// rotate to a live shard, the run stays error-free, and the rotation count
// surfaces in the report.
func TestRunClusterRotatesOffDeadShard(t *testing.T) {
	a := &shardStub{name: "shard-a"}
	tsA := httptest.NewServer(a.handler())
	defer tsA.Close()
	// A listener that is immediately closed: a member in the map whose
	// process is gone.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	a.cluster = func() string {
		return `{"self":"shard-a","members":[` +
			`{"name":"shard-a","addr":"` + tsA.URL + `"},` +
			`{"name":"shard-dead","addr":"` + deadURL + `"}]}`
	}

	var out bytes.Buffer
	err := run([]string{
		"-addr", tsA.URL, "-cluster", "-c", "2", "-d", "200ms",
		"-mix", "route=1", "-json", "-",
	}, &out)
	if err != nil {
		t.Fatalf("run: %v (output: %s)", err, out.String())
	}
	i := strings.IndexByte(out.String(), '{')
	var rep Report
	if err := json.Unmarshal([]byte(out.String()[i:]), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Total.Errors != 0 {
		t.Fatalf("errors despite a live shard: %+v", rep.Total)
	}
	if rep.Rotations == 0 {
		t.Fatal("no rotations recorded; the dead shard was never hit or never evaded")
	}
	var deadRow *ShardReport
	for idx := range rep.Shards {
		if rep.Shards[idx].Name == "shard-dead" {
			deadRow = &rep.Shards[idx]
		}
	}
	if deadRow == nil {
		t.Fatalf("dead member missing from shard rows: %+v", rep.Shards)
	}
	if deadRow.Requests != 0 {
		t.Fatalf("dead shard credited with %d served requests", deadRow.Requests)
	}
}

// TestRunClusterRequiresClusterEndpoint: -cluster against a server without
// GET /v1/cluster fails with a pointed error instead of silently running
// single-server.
func TestRunClusterRequiresClusterEndpoint(t *testing.T) {
	st := &stubServer{}
	ts := httptest.NewServer(st.handler())
	defer ts.Close()
	var out bytes.Buffer
	err := run([]string{"-addr", ts.URL, "-cluster", "-d", "100ms"}, &out)
	if err == nil || !strings.Contains(err.Error(), "-cluster") {
		t.Fatalf("err = %v, want discovery failure mentioning -cluster", err)
	}
}

// TestPostRetryHonorsRetryAfter: when the server advises Retry-After, the
// backoff waits at least half the advised interval (full jitter halves at
// worst) instead of the much shorter exponential default.
func TestPostRetryHonorsRetryAfter(t *testing.T) {
	st := &flakyServer{rejectFirst: 1, advice: "1"}
	ts := httptest.NewServer(st.handler())
	defer ts.Close()

	g := &generator{cfg: &config{addr: ts.URL}, client: ts.Client()}
	rng := rand.New(rand.NewSource(1))
	t0 := time.Now()
	status, retries, _ := g.postRetry(&target{g: g}, "/v1/route", `{"src":0,"dst":1}`, "", rng, time.Now().Add(5*time.Second), nil)
	if status != http.StatusOK || retries != 1 {
		t.Fatalf("status %d retries %d, want 200 after 1 retry", status, retries)
	}
	if waited := time.Since(t0); waited < 500*time.Millisecond {
		t.Fatalf("waited %v before retry; Retry-After: 1 advises at least 500ms", waited)
	}
}
