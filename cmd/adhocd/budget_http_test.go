package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// routeVerdict runs one s→t budgeted query to its verdict, resuming after
// every budget_exhausted reply, and returns the final reply plus how many
// requests (segments) the walk took.
func routeVerdict(t *testing.T, ts *httptest.Server, path string, src, dst, budget int) (routeReply, int) {
	t.Helper()
	resume := ""
	for seg := 1; ; seg++ {
		body := fmt.Sprintf(`{"src":%d,"dst":%d,"budget_hops":%d,"resume":%q}`, src, dst, budget, resume)
		var rep routeReply
		if code := postJSON(t, ts, path, body, &rep); code != http.StatusOK {
			t.Fatalf("segment %d: status %d (%+v)", seg, code, rep)
		}
		if rep.Status != statusBudgetExhausted {
			return rep, seg
		}
		if rep.Resume == "" || rep.Exhausted == "" {
			t.Fatalf("segment %d: exhausted reply missing resume/exhausted: %+v", seg, rep)
		}
		resume = rep.Resume
		if seg > 200000 {
			t.Fatal("walk did not converge")
		}
	}
}

// TestRouteBudgetResumeRoundtrip: a walk chopped into 1-hop segments by
// budget_hops reaches the same verdict with the same totals as the
// uninterrupted walk — the HTTP-level split==uninterrupted differential.
func TestRouteBudgetResumeRoundtrip(t *testing.T) {
	ts := testServer(t)
	var whole routeReply
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10}`, &whole); code != http.StatusOK {
		t.Fatalf("uninterrupted route: status %d", code)
	}
	split, segs := routeVerdict(t, ts, "/v1/route", 0, 10, 1)
	if split.Status != whole.Status || split.Hops != whole.Hops || split.Bound != whole.Bound {
		t.Fatalf("split verdict %+v != uninterrupted %+v", split, whole)
	}
	if segs < 2 {
		t.Fatalf("budget of 1 hop split the walk into %d segment(s); want several", segs)
	}
}

// TestRouteCertificate: a cross-component pair on the two-component test
// network is answered without walking — zero hops, certificate attached —
// both on the plain and the budgeted path.
func TestRouteCertificate(t *testing.T) {
	ts := testServer(t)
	for _, body := range []string{
		`{"src":0,"dst":100}`,
		`{"src":0,"dst":100,"budget_hops":5}`,
	} {
		var rep routeReply
		if code := postJSON(t, ts, "/v1/route", body, &rep); code != http.StatusOK {
			t.Fatalf("%s: status %d", body, code)
		}
		if rep.Status != "failure" || rep.Certificate == nil || rep.Hops != 0 {
			t.Fatalf("%s: want O(1) certificate failure, got %+v", body, rep)
		}
		if rep.Certificate.SrcComponent == rep.Certificate.DstComponent {
			t.Fatalf("%s: certificate puts both endpoints in component %d", body, rep.Certificate.SrcComponent)
		}
	}
}

// TestRouteResumeRejections: forged, corrupted, cross-server, and
// cross-scope tokens are 400, never a walk and never a panic.
func TestRouteResumeRejections(t *testing.T) {
	ts := testServer(t)
	other := testServer(t) // distinct signer key

	var rep routeReply
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10,"budget_hops":1}`, &rep); code != http.StatusOK {
		t.Fatalf("minting token: status %d", code)
	}
	if rep.Status != statusBudgetExhausted || rep.Resume == "" {
		t.Fatalf("expected exhausted reply with token, got %+v", rep)
	}
	bad := map[string]struct {
		ts   *httptest.Server
		path string
		tok  string
	}{
		"garbage":      {ts, "/v1/route", "not-a-token"},
		"truncated":    {ts, "/v1/route", rep.Resume[:len(rep.Resume)-4]},
		"tampered":     {ts, "/v1/route", "A" + rep.Resume[1:]},
		"cross-server": {other, "/v1/route", rep.Resume},
	}
	for name, tc := range bad {
		body := fmt.Sprintf(`{"src":0,"dst":10,"resume":%q}`, tc.tok)
		var eb errorBody
		if code := postJSON(t, tc.ts, tc.path, body, &eb); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%+v), want 400", name, code, eb)
		}
	}
}

// TestRouteBudgetOutOfRange: a negative budget_hops or deadline_ms, or a
// deadline_ms whose duration overflows time.Duration, is a 400 naming the
// field on every route endpoint that takes them — not an unbounded walk,
// and not a walk exhausted before its first hop. The largest deadline that
// fits still routes.
func TestRouteBudgetOutOfRange(t *testing.T) {
	ts, _, _ := newTestServer(t, serverConfig{})
	var ni networkInfo
	if code := do(t, ts, http.MethodPost, "/v1/networks", `{"kind":"grid","rows":4,"cols":4}`, &ni); code != http.StatusCreated {
		t.Fatalf("network create: status %d", code)
	}
	var wi worldInfo
	if code := do(t, ts, http.MethodPost, "/v1/worlds",
		`{"name":"range","schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":9}}`, &wi); code != http.StatusCreated {
		t.Fatalf("world create: status %d", code)
	}
	paths := []string{"/v1/route", "/v1/networks/" + ni.ID + "/route", "/v1/worlds/" + wi.ID + "/route"}
	bad := []struct{ field, knob string }{
		{"budget_hops", `"budget_hops":-1`},
		{"deadline_ms", `"deadline_ms":-5`},
		{"deadline_ms", `"deadline_ms":10000000000000`},
	}
	for _, path := range paths {
		for _, c := range bad {
			var eb errorBody
			if code := do(t, ts, http.MethodPost, path, `{"src":0,"dst":10,`+c.knob+`}`, &eb); code != http.StatusBadRequest {
				t.Errorf("%s with %s: status %d (%+v), want 400", path, c.knob, code, eb)
			} else if !strings.Contains(eb.Error, c.field) {
				t.Errorf("%s with %s: error %q does not name %s", path, c.knob, eb.Error, c.field)
			}
		}
		body := fmt.Sprintf(`{"src":0,"dst":10,"deadline_ms":%d}`, maxDeadlineMS)
		var rep struct{ Status string }
		if code := do(t, ts, http.MethodPost, path, body, &rep); code != http.StatusOK || rep.Status != "success" {
			t.Errorf("%s with the largest deadline: status %d, reply %+v, want a success verdict", path, code, rep)
		}
	}
}

// TestRouteWithPathBudgetConflict: with_path needs the uninterrupted walk,
// so combining it with any bounded-work knob is a 400.
func TestRouteWithPathBudgetConflict(t *testing.T) {
	ts := testServer(t)
	var eb errorBody
	code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10,"with_path":true,"budget_hops":4}`, &eb)
	if code != http.StatusBadRequest {
		t.Fatalf("with_path+budget: status %d, want 400", code)
	}
}

// TestWorldRouteBudgetResume: the budgeted walk over a shared world
// resumes across requests to a success verdict, and its token is bound to
// the world — replaying it against the boot network is a 400.
func TestWorldRouteBudgetResume(t *testing.T) {
	ts, _, _ := newTestServer(t, serverConfig{})
	var wi worldInfo
	if code := do(t, ts, http.MethodPost, "/v1/worlds",
		`{"name":"budget","schedule":{"kind":"markov","p_down":0.05,"p_up":0.5,"seed":9}}`, &wi); code != http.StatusCreated {
		t.Fatalf("world create: status %d", code)
	}
	path := "/v1/worlds/" + wi.ID + "/route"

	resume, segs := "", 0
	var rep dynamicReply
	for {
		segs++
		body := fmt.Sprintf(`{"src":0,"dst":10,"hops_per_epoch":16,"budget_hops":3,"resume":%q}`, resume)
		if code := postJSON(t, ts, path, body, &rep); code != http.StatusOK {
			t.Fatalf("segment %d: status %d", segs, code)
		}
		if rep.Status != statusBudgetExhausted {
			break
		}
		resume = rep.Resume
		if segs > 200000 {
			t.Fatal("world walk did not converge")
		}
	}
	if rep.Status != "success" {
		t.Fatalf("world walk verdict %q, want success (reply %+v)", rep.Status, rep)
	}
	if segs < 2 {
		t.Fatalf("3-hop budget finished in %d segment(s); want several", segs)
	}
	if resume == "" {
		t.Fatal("never saw a resume token")
	}
	// The last minted world token must not verify against the boot scope.
	var eb errorBody
	body := fmt.Sprintf(`{"src":0,"dst":10,"resume":%q}`, resume)
	if code := postJSON(t, ts, "/v1/route", body, &eb); code != http.StatusBadRequest {
		t.Fatalf("world token on boot route: status %d, want 400", code)
	}
}

// TestRetryAfterDerived: admission rejections advise a positive, bounded,
// varying Retry-After — the regression guard for the old fixed "1" that
// synchronized every rejected client onto the same retry instant.
func TestRetryAfterDerived(t *testing.T) {
	ts, srv, _ := newTestServer(t, serverConfig{maxInflight: 1})
	// Fill the admission semaphore so every request is rejected.
	srv.inflight <- struct{}{}
	defer func() { <-srv.inflight }()

	seen := make(map[int]bool)
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/route", "application/json",
			bytes.NewReader([]byte(`{"src":0,"dst":10}`)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d: status %d, want 429", i, resp.StatusCode)
		}
		ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
		if err != nil || ra < 1 || ra > 30 {
			t.Fatalf("request %d: Retry-After %q, want integer in [1,30]", i, resp.Header.Get("Retry-After"))
		}
		seen[ra] = true
	}
	if len(seen) < 2 {
		t.Fatalf("three successive rejections all advised the same Retry-After %v; want jitter", seen)
	}
}

// TestDrain: BeginDrain flips healthz to 503 "draining" and interrupts
// budgeted walks at their next round boundary, minting a resume token that
// is also persisted to the drain log.
func TestDrain(t *testing.T) {
	var drainLog bytes.Buffer
	ts, srv, _ := newTestServer(t, serverConfig{drainLog: &drainLog})

	var health struct {
		OK     bool   `json:"ok"`
		Status string `json:"status"`
	}
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("pre-drain healthz: %d %+v", code, health)
	}

	srv.BeginDrain()
	srv.BeginDrain() // idempotent

	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusServiceUnavailable ||
		health.OK || health.Status != "draining" {
		t.Fatalf("draining healthz: %d %+v, want 503 draining", code, health)
	}

	// A budgeted walk started during the drain is interrupted by the drain
	// context at its first round boundary and hands back a cursor.
	var rep routeReply
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10,"budget_hops":1000000}`, &rep); code != http.StatusOK {
		t.Fatalf("drained budgeted route: status %d", code)
	}
	if rep.Status != statusBudgetExhausted || rep.Exhausted != "deadline" || rep.Resume == "" {
		t.Fatalf("drained budgeted route: %+v, want deadline-exhausted with resume token", rep)
	}
	line := drainLog.String()
	if !strings.Contains(line, `"scope":"net:boot"`) || !strings.Contains(line, rep.Resume) {
		t.Fatalf("drain log %q does not record the minted token", line)
	}

	// Plain (unbudgeted) queries still finish normally during the drain —
	// that is what -drain exists for.
	var plain routeReply
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10}`, &plain); code != http.StatusOK ||
		plain.Status != "success" {
		t.Fatalf("drained plain route: %d %+v", code, plain)
	}
}

// TestChaosRequestFault: an armed request-fault injector turns requests
// into 500s tagged as injected, liveness stays unaffected, and /v1/stats
// exposes the fault counters.
func TestChaosRequestFault(t *testing.T) {
	ts, _, _ := newTestServer(t, serverConfig{
		chaos: chaos.New(chaos.Config{Seed: 1, RequestFailRate: 1}),
	})
	var eb errorBody
	if code := postJSON(t, ts, "/v1/route", `{"src":0,"dst":10}`, &eb); code != http.StatusInternalServerError {
		t.Fatalf("chaos route: status %d (%+v), want 500", code, eb)
	}
	if !strings.Contains(eb.Error, "chaos") {
		t.Fatalf("chaos fault error %q not marked as injected", eb.Error)
	}
	var health struct {
		OK bool `json:"ok"`
	}
	if code := getJSON(t, ts, "/healthz", &health); code != http.StatusOK || !health.OK {
		t.Fatalf("healthz under chaos: %d %+v, want 200 ok", code, health)
	}
}

// TestChaosStatsBlock: with chaos armed (but quiet) /v1/stats reports the
// per-class fault counters; without it the block is absent.
func TestChaosStatsBlock(t *testing.T) {
	armed, _, _ := newTestServer(t, serverConfig{chaos: chaos.New(chaos.Config{Seed: 1})})
	var stats map[string]any
	if code := getJSON(t, armed, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := stats["chaos"]; !ok {
		t.Fatalf("armed server stats missing chaos block: %v", stats)
	}
	plain, _, _ := newTestServer(t, serverConfig{})
	stats = nil
	if code := getJSON(t, plain, "/v1/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if _, ok := stats["chaos"]; ok {
		t.Fatal("chaos block present with fault injection off")
	}
}
