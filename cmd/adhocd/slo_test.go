package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/slo"
)

// fetchMetrics scrapes ts's /metrics with the given Accept header and
// returns the body plus the Content-Type.
func fetchMetrics(t *testing.T, ts *httptest.Server, accept string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// waitUntil polls cond at 10ms until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSLOProfileExemplarJoin is the acceptance scenario for the
// observability PR: a burning workload flips GET /v1/slo to burning, the
// burn trips the profile flight recorder so GET /v1/profiles holds
// snapshots captured during the incident, and a histogram exemplar's
// trace_id from the OpenMetrics scrape resolves through GET
// /v1/traces/{id} — metrics, profiles, and traces joined on one request.
func TestSLOProfileExemplarJoin(t *testing.T) {
	eng, err := engine.Compile(gen.Grid(4, 4), engine.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, nil, "slo join net", serverConfig{
		// A 1ns latency objective: every sampled observation is a bad
		// event, so ordinary traffic burns the budget immediately.
		sloSpec:         "route_p99<1ns,wrong_verdicts==0",
		traceSample:     1, // trace (and exemplar) every request; slow=0 retains all
		profCPUWindow:   50 * time.Millisecond,
		profMinInterval: time.Millisecond,
	})
	// Synthetic SLO clock: every report tick advances 2s, clearing the
	// evaluator's 1s tick gap without real sleeps.
	base := time.Now()
	var ticks atomic.Int64
	srv.sloNow = func() time.Time {
		return base.Add(time.Duration(ticks.Add(1)) * 2 * time.Second)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()

	route := func() string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/route", "application/json",
			strings.NewReader(`{"src":0,"dst":15}`))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("route: %d", resp.StatusCode)
		}
		return resp.Header.Get("traceparent")
	}
	// Two snapshot windows of traffic around the first tick: the second
	// tick sees a bad-event delta in both windows and starts burning.
	for i := 0; i < 16; i++ {
		route()
	}
	var rep sloReply
	if code := getJSON(t, ts, "/v1/slo", &rep); code != http.StatusOK {
		t.Fatalf("slo: %d", code)
	}
	find := func(rep sloReply, name string) *slo.ObjectiveReport {
		for i := range rep.Objectives {
			if rep.Objectives[i].Name == name {
				return &rep.Objectives[i]
			}
		}
		t.Fatalf("objective %q missing from %+v", name, rep.Objectives)
		return nil
	}
	if o := find(rep, "route_p99"); o.Burning {
		t.Fatal("burning after a single snapshot")
	}
	if o := find(rep, "wrong_verdicts"); !o.ClientEvaluated || o.Burning {
		t.Fatalf("wrong_verdicts: %+v", o)
	}
	var lastTrace string
	for i := 0; i < 16; i++ {
		lastTrace = route()
	}
	if code := getJSON(t, ts, "/v1/slo", &rep); code != http.StatusOK {
		t.Fatalf("slo: %d", code)
	}
	o := find(rep, "route_p99")
	if !o.Burning {
		t.Fatalf("route_p99 not burning: %+v", o)
	}
	if len(o.Windows) != 2 || o.Windows[0].BurnRate < 1 || o.Windows[1].BurnRate < 1 {
		t.Fatalf("windows: %+v", o.Windows)
	}

	// The burn tripped the profile recorder: the heap snapshot lands
	// synchronously, the CPU capture finishes after its 50ms window.
	var profiles profileListReply
	waitUntil(t, 5*time.Second, "cpu+heap profiles", func() bool {
		if code := getJSON(t, ts, "/v1/profiles", &profiles); code != http.StatusOK {
			t.Fatalf("profiles: %d", code)
		}
		return len(profiles.Profiles) >= 2
	})
	kinds := map[string]int64{}
	for _, p := range profiles.Profiles {
		if p.Reason != "slo:route_p99" {
			t.Fatalf("unexpected trip reason %q", p.Reason)
		}
		kinds[p.Kind] = p.ID
	}
	if kinds["heap"] == 0 || kinds["cpu"] == 0 {
		t.Fatalf("want heap+cpu snapshots, got %+v", profiles.Profiles)
	}
	resp, err := http.Get(ts.URL + fmt.Sprintf("/v1/profiles/%d", kinds["heap"]))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(raw) == 0 {
		t.Fatalf("profile download: %d, %d bytes", resp.StatusCode, len(raw))
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/octet-stream" {
		t.Fatalf("profile content-type %q", ct)
	}

	// Exemplar join: the last route's trace ID appears as an OpenMetrics
	// exemplar on the endpoint latency histogram (the record defer races
	// the response, hence the poll) and resolves in the trace recorder.
	parts := strings.Split(lastTrace, "-")
	if len(parts) != 4 {
		t.Fatalf("bad traceparent %q", lastTrace)
	}
	traceID := parts[1]
	var om string
	waitUntil(t, 2*time.Second, "exemplar in scrape", func() bool {
		om, _ = fetchMetrics(t, ts, obs.ContentTypeOpenMetrics)
		return strings.Contains(om, `trace_id="`+traceID+`"`)
	})
	if errs := obs.Lint(om, true); errs != nil {
		t.Fatalf("openmetrics lint under load: %v", errs)
	}
	classic, _ := fetchMetrics(t, ts, "")
	if errs := obs.Lint(classic, false); errs != nil {
		t.Fatalf("classic lint under load: %v", errs)
	}
	// The scrape exposes the SLO and recorder state too.
	for _, want := range []string{
		`adhoc_slo_burning{objective="route_p99"} 1`,
		"adhoc_profiles_trips_total 1",
		"adhoc_trace_sampled_ratio 1",
		"go_goroutines ",
	} {
		if !strings.Contains(classic, want) {
			t.Fatalf("scrape missing %q", want)
		}
	}
	if code := getJSON(t, ts, "/v1/traces/"+traceID, nil); code != http.StatusOK {
		t.Fatalf("trace %s not resolvable: %d", traceID, code)
	}
}

// TestMetricsContentNegotiation pins both exposition formats at the
// daemon level: classic Prometheus text by default, OpenMetrics (with the
// mandatory # EOF terminator) when the scraper asks for it.
func TestMetricsContentNegotiation(t *testing.T) {
	ts := testServer(t)

	classic, ct := fetchMetrics(t, ts, "")
	if ct != obs.ContentTypePrometheus {
		t.Fatalf("default content-type %q", ct)
	}
	if strings.Contains(classic, "# EOF") {
		t.Fatal("classic exposition must not carry # EOF")
	}
	if errs := obs.Lint(classic, false); errs != nil {
		t.Fatalf("classic lint: %v", errs)
	}

	om, ct := fetchMetrics(t, ts, "application/openmetrics-text;version=1.0.0,text/plain;q=0.5")
	if ct != obs.ContentTypeOpenMetrics {
		t.Fatalf("openmetrics content-type %q", ct)
	}
	if !strings.HasSuffix(om, "# EOF\n") {
		t.Fatal("openmetrics exposition must end with # EOF")
	}
	if errs := obs.Lint(om, true); errs != nil {
		t.Fatalf("openmetrics lint: %v", errs)
	}
}

// TestNetworkVecStorm drives many distinct tenant networks through the
// daemon — more than the per-network vector cap — and checks the
// exposition stays bounded and clean: overflow networks collapse into the
// "other" series, the drop is counted, and both formats still lint.
func TestNetworkVecStorm(t *testing.T) {
	eng, err := engine.Compile(gen.Grid(3, 3), engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, nil, "vec storm net", serverConfig{
		registry: registry.Config{Capacity: 2},
	})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	// Capacity 2 → vec cap 6 networks; 24 distinct tenants overflow it.
	for i := 0; i < 24; i++ {
		spec := fmt.Sprintf(`{"kind":"edges","edges":[[0,1],[1,2]],"seed":%d}`, i+1)
		var reply networkCreateReply
		if code := postJSON(t, ts, "/v1/networks", spec, &reply); code != http.StatusCreated {
			t.Fatalf("network %d: %d", i, code)
		}
		if code := postJSON(t, ts, "/v1/networks/"+reply.ID+"/route",
			`{"src":0,"dst":2}`, nil); code != http.StatusOK {
			t.Fatalf("route on %s: %d", reply.ID, code)
		}
	}

	body, _ := fetchMetrics(t, ts, "")
	if !strings.Contains(body, `network="other"`) {
		t.Fatal("overflow networks did not collapse into the other series")
	}
	if !strings.Contains(body, `obs_dropped_series_total{family="adhoc_network_routes_total"}`) {
		t.Fatal("dropped-series counter missing")
	}
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, `obs_dropped_series_total{family="adhoc_network_errors_total"}`) {
			var n float64
			if _, err := fmt.Sscanf(line[strings.LastIndexByte(line, ' ')+1:], "%g", &n); err != nil || n <= 0 {
				t.Fatalf("dropped counter not counting: %q", line)
			}
		}
	}
	if errs := obs.Lint(body, false); errs != nil {
		t.Fatalf("lint after storm: %v", errs)
	}
	om, _ := fetchMetrics(t, ts, obs.ContentTypeOpenMetrics)
	if errs := obs.Lint(om, true); errs != nil {
		t.Fatalf("openmetrics lint after storm: %v", errs)
	}
}

// TestErrorsObjectiveCountsServerFailures checks that the default
// errors==0 objective burns on server failures only: routes from an
// unknown source (404s, the client's fault) mixed with good ones leave it
// quiet, while injected 500s burn it.
func TestErrorsObjectiveCountsServerFailures(t *testing.T) {
	eng, err := engine.Compile(gen.Grid(4, 4), engine.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name    string
		cfg     serverConfig
		burning bool
	}{
		{"client errors", serverConfig{}, false},
		{"server errors", serverConfig{chaos: chaos.New(chaos.Config{Seed: 1, RequestFailRate: 1})}, true},
	} {
		srv := newServer(eng, nil, "errors objective", c.cfg)
		base := time.Now()
		var ticks atomic.Int64
		srv.sloNow = func() time.Time {
			return base.Add(time.Duration(ticks.Add(1)) * 2 * time.Second)
		}
		ts := httptest.NewServer(srv)
		// Two snapshot windows of traffic: the second report sees a
		// bad-event delta in both windows.
		var rep []slo.ObjectiveReport
		for range 2 {
			for range 4 {
				postJSON(t, ts, "/v1/route", `{"src":0,"dst":15}`, nil)
				postJSON(t, ts, "/v1/route", `{"src":999,"dst":0}`, nil)
			}
			rep = srv.slo.Report(srv.sloNow())
		}
		ts.Close()
		var errs *slo.ObjectiveReport
		for i := range rep {
			if rep[i].Name == "errors" {
				errs = &rep[i]
			}
		}
		if errs == nil || errs.Burning != c.burning {
			t.Fatalf("%s: errors objective %+v, want burning %t", c.name, errs, c.burning)
		}
	}
}

// TestSLOEndpointDisabled checks -slo=off removes the endpoint entirely.
func TestSLOEndpointDisabled(t *testing.T) {
	eng, err := engine.Compile(gen.Grid(3, 3), engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil, "no slo", serverConfig{sloSpec: sloDisabled}))
	defer ts.Close()
	if code := getJSON(t, ts, "/v1/slo", nil); code != http.StatusNotFound {
		t.Fatalf("disabled /v1/slo: %d", code)
	}
}

// TestSLOHopThresholdResolved checks a bound-derived objective resolves
// its threshold against the compiled (reduced) network: c·n·log2(n).
func TestSLOHopThresholdResolved(t *testing.T) {
	eng, err := engine.Compile(gen.Grid(4, 4), engine.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(eng, nil, "hop slo net", serverConfig{sloSpec: "hop_p99<4log"})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var rep sloReply
	if code := getJSON(t, ts, "/v1/slo", &rep); code != http.StatusOK {
		t.Fatalf("slo: %d", code)
	}
	if len(rep.Objectives) != 1 {
		t.Fatalf("objectives: %+v", rep.Objectives)
	}
	o := rep.Objectives[0]
	n := eng.Reduced().Graph().NumNodes()
	want := slo.HopThreshold(4, n)
	if o.Threshold != want || o.Unit != "hops" {
		t.Fatalf("threshold %v %s, want %v hops (n=%d)", o.Threshold, o.Unit, want, n)
	}
}

// TestProfileGetErrors pins the profile endpoint's error shapes.
func TestProfileGetErrors(t *testing.T) {
	ts := testServer(t)
	if code := getJSON(t, ts, "/v1/profiles/notanum", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: %d", code)
	}
	if code := getJSON(t, ts, "/v1/profiles/999", nil); code != http.StatusNotFound {
		t.Fatalf("missing id: %d", code)
	}
	var list profileListReply
	if code := getJSON(t, ts, "/v1/profiles", &list); code != http.StatusOK || len(list.Profiles) != 0 {
		t.Fatalf("fresh recorder: code %d, %+v", code, list)
	}
}
