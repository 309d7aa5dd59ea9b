package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/engine"
	"repro/internal/gen"
)

func testServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Compile(g, engine.Config{Seed: 7, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil, "test 4x4 grid + 5-cycle", serverConfig{}))
	t.Cleanup(ts.Close)
	return ts
}

// TestPprofMount checks the opt-in profiling surface: mounted only when
// requested, 404 otherwise.
func TestPprofMount(t *testing.T) {
	g := gen.Grid(3, 3)
	eng, err := engine.Compile(g, engine.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, enabled := range []bool{false, true} {
		ts := httptest.NewServer(newServer(eng, nil, "pprof probe", serverConfig{pprof: enabled}))
		resp, err := http.Get(ts.URL + "/debug/pprof/")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		want := http.StatusNotFound
		if enabled {
			want = http.StatusOK
		}
		if resp.StatusCode != want {
			t.Fatalf("pprof enabled=%v: GET /debug/pprof/ = %d, want %d", enabled, resp.StatusCode, want)
		}
		if enabled {
			resp, err := http.Get(ts.URL + "/debug/pprof/heap?debug=1")
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET /debug/pprof/heap = %d", resp.StatusCode)
			}
		}
		ts.Close()
	}
}

// postJSON posts body to path and decodes the JSON response into out.
func postJSON(t *testing.T, ts *httptest.Server, path string, body string, out any) int {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, ts *httptest.Server, path string, out any) int {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", path, err)
		}
	}
	return resp.StatusCode
}

func TestHealthz(t *testing.T) {
	ts := testServer(t)
	var body map[string]bool
	if code := getJSON(t, ts, "/healthz", &body); code != http.StatusOK || !body["ok"] {
		t.Fatalf("healthz: code %d body %v", code, body)
	}
}

func TestNetworkEndpoint(t *testing.T) {
	ts := testServer(t)
	var info networkInfo
	if code := getJSON(t, ts, "/v1/network", &info); code != http.StatusOK {
		t.Fatalf("network: code %d", code)
	}
	if info.Nodes != 21 || info.Links != 29 {
		t.Fatalf("network info: %+v", info)
	}
	if info.ReducedNodes <= info.Nodes {
		t.Fatalf("reduced graph not larger: %+v", info)
	}
}

func TestRouteEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply routeReply
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":15}`, &reply); code != http.StatusOK {
		t.Fatalf("route: code %d", code)
	}
	if reply.Status != "success" || reply.Hops <= 0 || reply.HeaderBits <= 0 {
		t.Fatalf("route reply: %+v", reply)
	}

	// Cross-component: guaranteed definitive failure, still HTTP 200.
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":100}`, &reply); code != http.StatusOK {
		t.Fatalf("route failure: code %d", code)
	}
	if reply.Status != "failure" {
		t.Fatalf("cross-component status: %+v", reply)
	}

	// Path reconstruction.
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":15,"with_path":true}`, &reply); code != http.StatusOK {
		t.Fatalf("route with path: code %d", code)
	}
	if len(reply.Path) < 2 || reply.Path[0] != 0 || reply.Path[len(reply.Path)-1] != 15 {
		t.Fatalf("path: %v", reply.Path)
	}

	// Unknown source → 404; malformed / unknown fields → 400.
	if code := postJSON(t, ts, "/v1/route", `{"src":31337,"dst":0}`, nil); code != http.StatusNotFound {
		t.Fatalf("absent src: code %d, want 404", code)
	}
	if code := postJSON(t, ts, "/v1/route", `{bad json`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad json: code %d, want 400", code)
	}
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":1,"typo":true}`, nil); code != http.StatusBadRequest {
		t.Fatalf("unknown field: code %d, want 400", code)
	}

	// Wrong method → 405 (method-scoped mux patterns).
	resp, err := http.Get(ts.URL + "/v1/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/route: code %d, want 405", resp.StatusCode)
	}
}

func TestBatchEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply batchReply
	if code := postJSON(t, ts, "/v1/batch", `{"pairs":[[0,15],[0,100],[4242,0]]}`, &reply); code != http.StatusOK {
		t.Fatalf("batch: code %d", code)
	}
	if len(reply.Results) != 3 || reply.Succeeded != 2 || reply.Failed != 1 {
		t.Fatalf("batch reply: %+v", reply)
	}
	if reply.Results[0].Status != "success" || reply.Results[1].Status != "failure" {
		t.Fatalf("batch members: %+v", reply.Results)
	}
	if reply.Results[2].Error == "" {
		t.Fatalf("absent-src member carries no error: %+v", reply.Results[2])
	}

	// One-to-many shape.
	if code := postJSON(t, ts, "/v1/batch", `{"src":0,"targets":[1,2,3]}`, &reply); code != http.StatusOK {
		t.Fatalf("batch src+targets: code %d", code)
	}
	if reply.Succeeded != 3 {
		t.Fatalf("fan-out reply: %+v", reply)
	}

	// Shape violations.
	if code := postJSON(t, ts, "/v1/batch", `{}`, nil); code != http.StatusBadRequest {
		t.Fatalf("empty batch: code %d, want 400", code)
	}
	if code := postJSON(t, ts, "/v1/batch", `{"pairs":[[0,1]],"src":0,"targets":[2]}`, nil); code != http.StatusBadRequest {
		t.Fatalf("ambiguous batch: code %d, want 400", code)
	}
}

func TestBroadcastEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply struct {
		Reached int     `json:"reached"`
		Nodes   []int64 `json:"nodes"`
	}
	if code := postJSON(t, ts, "/v1/broadcast", `{"src":100}`, &reply); code != http.StatusOK {
		t.Fatalf("broadcast: code %d", code)
	}
	if reply.Reached != 5 || len(reply.Nodes) != 5 {
		t.Fatalf("broadcast reply: %+v", reply)
	}
	if code := postJSON(t, ts, "/v1/broadcast", `{"src":31337}`, nil); code != http.StatusNotFound {
		t.Fatalf("broadcast absent src: code %d, want 404", code)
	}
}

func TestCountEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply struct {
		Count        int `json:"count"`
		ReducedCount int `json:"reduced_count"`
	}
	if code := postJSON(t, ts, "/v1/count", `{"src":0}`, &reply); code != http.StatusOK {
		t.Fatalf("count: code %d", code)
	}
	if reply.Count != 16 || reply.ReducedCount < 16 {
		t.Fatalf("count reply: %+v", reply)
	}
}

func TestHybridEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply struct {
		Status string `json:"status"`
		Winner string `json:"winner"`
	}
	if code := postJSON(t, ts, "/v1/hybrid", `{"src":0,"dst":15,"walk_seed":9}`, &reply); code != http.StatusOK {
		t.Fatalf("hybrid: code %d", code)
	}
	if reply.Status != "success" || reply.Winner == "" {
		t.Fatalf("hybrid reply: %+v", reply)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts, "/v1/route", `{"src":0,"dst":15}`, nil)
	postJSON(t, ts, "/v1/batch", `{"src":0,"targets":[1,2]}`, nil)
	var stats struct {
		Queries int64 `json:"queries"`
		Routes  int64 `json:"routes"`
		Batches int64 `json:"batches"`
		Hops    int64 `json:"hops"`
	}
	if code := getJSON(t, ts, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if stats.Routes != 3 || stats.Batches != 1 || stats.Queries != 3 || stats.Hops <= 0 {
		t.Fatalf("stats: %+v", stats)
	}
}

// TestConcurrentClients hits the daemon from many clients at once — the
// serving-layer face of the stateless-sessions property.
func TestConcurrentClients(t *testing.T) {
	ts := testServer(t)
	var wg sync.WaitGroup
	errs := make(chan string, 16)
	for c := 0; c < 16; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"src":0,"dst":%d}`, c)
			resp, err := http.Post(ts.URL+"/v1/route", "application/json", bytes.NewReader([]byte(body)))
			if err != nil {
				errs <- fmt.Sprintf("client %d: %v", c, err)
				return
			}
			defer resp.Body.Close()
			var reply routeReply
			if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
				errs <- fmt.Sprintf("client %d: decode: %v", c, err)
				return
			}
			if resp.StatusCode != http.StatusOK || reply.Status != "success" {
				errs <- fmt.Sprintf("client %d: code %d reply %+v", c, resp.StatusCode, reply)
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestDynamicEndpoint exercises /v1/dynamic across schedule kinds and the
// error surface. The served network is never mutated: each request evolves
// a private world.
func TestDynamicEndpoint(t *testing.T) {
	ts := testServer(t)
	var reply dynamicReply

	// No-op schedule: must agree with the static verdict.
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":15,"schedule":{"kind":"static"}}`, &reply); code != http.StatusOK {
		t.Fatalf("dynamic static: code %d", code)
	}
	if reply.Status != "success" || reply.Hops <= 0 || reply.Recompiles != 0 {
		t.Fatalf("dynamic static: %+v", reply)
	}

	// Unreachable component under no dynamics: definitive failure.
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":100,"schedule":{"kind":"static"}}`, &reply); code != http.StatusOK {
		t.Fatalf("dynamic unreachable: code %d", code)
	}
	if reply.Status != "failure" {
		t.Fatalf("dynamic unreachable: %+v", reply)
	}

	// Markov churn with a tight epoch: dynamics accounting shows up.
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":15,"schedule":{"kind":"markov","p_down":0.1,"p_up":0.5,"seed":9},"hops_per_epoch":16}`,
		&reply); code != http.StatusOK {
		t.Fatalf("dynamic markov: code %d", code)
	}
	if reply.Epochs == 0 && reply.Hops >= 16 {
		t.Fatalf("dynamic markov: epoch clock never ticked: %+v", reply)
	}
	if reply.FinalLinks == 0 {
		t.Fatalf("dynamic markov: missing final link count: %+v", reply)
	}

	// Mobility over a non-geometric network: the waypoint model seeds its
	// own placement.
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":15,"schedule":{"kind":"waypoint","radius":0.4,"speed_max":0.05,"seed":3},"hops_per_epoch":32}`,
		&reply); code != http.StatusOK {
		t.Fatalf("dynamic waypoint: code %d", code)
	}
	if reply.Status != "success" && reply.Status != "failure" {
		t.Fatalf("dynamic waypoint: no verdict: %+v", reply)
	}

	// Error surface: bad schedule kind, unknown source, malformed body.
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":1,"schedule":{"kind":"nope"}}`, nil); code != http.StatusBadRequest {
		t.Fatalf("bad kind: code %d, want 400", code)
	}
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":31337,"dst":0,"schedule":{"kind":"static"}}`, nil); code != http.StatusNotFound {
		t.Fatalf("unknown source: code %d, want 404", code)
	}
	if code := postJSON(t, ts, "/v1/dynamic", `{bad`, nil); code != http.StatusBadRequest {
		t.Fatalf("malformed body: code %d, want 400", code)
	}

	// The shared engine still serves the original topology afterwards.
	var info networkInfo
	if code := getJSON(t, ts, "/v1/network", &info); code != http.StatusOK {
		t.Fatalf("network after dynamic: code %d", code)
	}
	if info.Nodes != 21 {
		t.Fatalf("served network changed: %+v", info)
	}
}

// TestDynamicRoundBudget checks that a walk running out of the client's own
// max_rounds is answered as the client's limit (422), not a server failure.
func TestDynamicRoundBudget(t *testing.T) {
	ts := testServer(t)
	var eb errorBody
	if code := postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":15,"schedule":{"kind":"waypoint","radius":0.3,"speed_max":0.2,"seed":2},"max_rounds":1,"hops_per_epoch":8}`,
		&eb); code != http.StatusUnprocessableEntity || !strings.Contains(eb.Error, "round budget exhausted") {
		t.Fatalf("round budget: code %d (%+v), want 422", code, eb)
	}
}

// TestDynamicStats checks the dynamics counters surface through /v1/stats.
func TestDynamicStats(t *testing.T) {
	ts := testServer(t)
	postJSON(t, ts, "/v1/dynamic",
		`{"src":0,"dst":15,"schedule":{"kind":"churn","p_drop":0.1,"add_rate":1,"seed":2},"hops_per_epoch":16}`, nil)
	var stats struct {
		DynamicRoutes int64 `json:"dynamic_routes"`
		DynamicEpochs int64 `json:"dynamic_epochs"`
	}
	if code := getJSON(t, ts, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: code %d", code)
	}
	if stats.DynamicRoutes != 1 {
		t.Fatalf("dynamic_routes = %d, want 1", stats.DynamicRoutes)
	}
}

// TestScheduleOutOfRange checks that a schedule spec whose parameters are
// out of range is refused with 400 on both world-building endpoints. An
// epoch makes add_rate insertion attempts while it holds its world, so an
// accepted add_rate of 1e15 would leave the world's every advance and
// route hanging.
func TestScheduleOutOfRange(t *testing.T) {
	ts := testServer(t)
	var eb errorBody
	if code := postJSON(t, ts, "/v1/worlds",
		`{"name":"flood","schedule":{"kind":"churn","add_rate":1e15,"seed":1}}`, &eb); code != http.StatusBadRequest ||
		!strings.Contains(eb.Error, "add_rate") {
		t.Fatalf("world with add_rate 1e15: code %d (%+v), want 400", code, eb)
	}
	if code := getJSON(t, ts, "/v1/worlds/flood", nil); code != http.StatusNotFound {
		t.Fatalf("refused world: GET code %d, want 404", code)
	}
	for _, sched := range []string{
		`{"kind":"churn","add_rate":-1,"seed":1}`,
		`{"kind":"churn","p_drop":1.5,"seed":1}`,
		`{"kind":"markov","p_down":0.1,"p_up":2,"seed":1}`,
	} {
		if code := postJSON(t, ts, "/v1/dynamic", `{"src":0,"dst":15,"schedule":`+sched+`}`, nil); code != http.StatusBadRequest {
			t.Fatalf("dynamic with %s: code %d, want 400", sched, code)
		}
	}
}
