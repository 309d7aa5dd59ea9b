package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/gen"
	"repro/internal/trace"
)

// traceTestServer builds the standard test network (4x4 grid ⊔ 5-cycle,
// so cross-component pairs fail definitively after burning the full walk
// budget) behind the given serving config. Certificates are disabled:
// these tests watch failing walks happen (round spans, hop tails, epoch
// events), and the O(1) certificate answer would skip the walk entirely.
func traceTestServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	g, err := gen.DisjointUnion(gen.Grid(4, 4), gen.Cycle(5), 100)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.Compile(g, engine.Config{Seed: 7, Workers: 2, DisableCertificates: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newServer(eng, nil, "trace test net", cfg))
	t.Cleanup(ts.Close)
	return ts
}

// postTraced posts body with the given traceparent header and returns the
// response plus decoded JSON body.
func postTraced(t *testing.T, ts *httptest.Server, path, parent, body string, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if parent != "" {
		req.Header.Set("traceparent", parent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
	}
	return resp
}

// TestTraceparentPropagation pins the W3C header contract: an upstream
// sampled flag forces a trace even at sampling rate 0 and the trace
// keeps the caller's trace ID; without the header a rate-0 server stays
// quiet, while a rate-1 server mints a fresh ID and echoes it.
func TestTraceparentPropagation(t *testing.T) {
	ts := traceTestServer(t, serverConfig{}) // traceSample 0
	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	resp := postTraced(t, ts, "/v1/route", parent, `{"src":0,"dst":15}`, nil)
	got := resp.Header.Get("traceparent")
	if !strings.Contains(got, "0123456789abcdef0123456789abcdef") || !strings.HasSuffix(got, "-01") {
		t.Fatalf("forced trace: response traceparent = %q, want caller's trace ID sampled", got)
	}
	// The response names a fresh server-side span, not the caller's.
	if strings.Contains(got, "00f067aa0ba902b7") {
		t.Fatalf("response traceparent reuses the caller's span ID: %q", got)
	}

	resp = postTraced(t, ts, "/v1/route", "", `{"src":0,"dst":15}`, nil)
	if h := resp.Header.Get("traceparent"); h != "" {
		t.Fatalf("rate-0 server without upstream header traced anyway: %q", h)
	}
	// An unsampled upstream decision (flag 00) also wins: no local coin.
	resp = postTraced(t, ts, "/v1/route",
		"00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-00", `{"src":0,"dst":15}`, nil)
	if h := resp.Header.Get("traceparent"); h != "" {
		t.Fatalf("upstream-unsampled request traced anyway: %q", h)
	}

	ts1 := traceTestServer(t, serverConfig{traceSample: 1})
	resp = postTraced(t, ts1, "/v1/route", "", `{"src":0,"dst":15}`, nil)
	if h := resp.Header.Get("traceparent"); h == "" {
		t.Fatal("rate-1 server did not echo a traceparent")
	}
}

// traceIDOf extracts the trace ID from a response's traceparent echo.
func traceIDOf(t *testing.T, resp *http.Response) string {
	t.Helper()
	tid, _, _, err := trace.ParseTraceparent(resp.Header.Get("traceparent"))
	if err != nil {
		t.Fatalf("response traceparent %q: %v", resp.Header.Get("traceparent"), err)
	}
	return tid.String()
}

// TestFlightRecorderUnreachableWalk is the acceptance path: route a
// cross-component pair (guaranteed failure), then pull the retained
// trace from GET /v1/traces/{id} and check it shows the full walk budget
// burned — every doubling round as a span, the per-round hop counts
// summing to the reported total, and the per-hop tail carrying node,
// header index, header bits, and the backward turn.
func TestFlightRecorderUnreachableWalk(t *testing.T) {
	ts := traceTestServer(t, serverConfig{traceSample: 1}) // slow 0 ⇒ retain all sampled
	var reply routeReply
	resp := postTraced(t, ts, "/v1/route", "", `{"src":0,"dst":100}`, &reply)
	if resp.StatusCode != http.StatusOK || reply.Status != "failure" {
		t.Fatalf("unreachable route: code %d reply %+v", resp.StatusCode, reply)
	}
	id := traceIDOf(t, resp)

	// The listing surfaces it newest-first.
	var list traceListReply
	if code := getJSON(t, ts, "/v1/traces", &list); code != http.StatusOK {
		t.Fatalf("trace list: code %d", code)
	}
	if len(list.Traces) == 0 || list.Traces[0].TraceID != id {
		t.Fatalf("trace list missing the request: %+v", list)
	}
	if list.Traces[0].Hops != reply.Hops {
		t.Fatalf("summary hops = %d, want %d", list.Traces[0].Hops, reply.Hops)
	}

	var ex trace.Export
	if code := getJSON(t, ts, "/v1/traces/"+id, &ex); code != http.StatusOK {
		t.Fatalf("trace get: code %d", code)
	}
	if ex.TraceID != id || ex.Name != "POST /v1/route" {
		t.Fatalf("export identity: %+v", ex)
	}

	var rounds []trace.SpanExport
	for _, sp := range ex.Spans {
		if sp.Name == "route.round" {
			rounds = append(rounds, sp)
		}
		for _, ev := range sp.Events {
			if ev.Name == "route.round.netsim" {
				t.Fatalf("traced route left the flat path: %+v", ev)
			}
		}
	}
	if len(rounds) != reply.Rounds {
		t.Fatalf("round spans = %d, want %d", len(rounds), reply.Rounds)
	}
	var hopSum int64
	lastBound := 0.0
	for i, sp := range rounds {
		hopSum += sp.HopTotal
		bound, ok := sp.Attrs["bound"].(float64)
		if !ok || bound <= lastBound {
			t.Fatalf("round %d: bound attr %v not increasing past %v", i, sp.Attrs["bound"], lastBound)
		}
		lastBound = bound
		if succ, ok := sp.Attrs["success"].(bool); !ok || succ {
			t.Fatalf("round %d: success attr %v on an unreachable pair", i, sp.Attrs["success"])
		}
	}
	if hopSum != reply.Hops {
		t.Fatalf("walk budget: round hops sum to %d, reply says %d", hopSum, reply.Hops)
	}

	// The terminal round's hop tail: ordinals account for every hop, the
	// header grows real bits, and the walk turned around (sequence
	// exhausted, backward confirmation to the source).
	last := rounds[len(rounds)-1]
	if last.HopTotal == 0 || len(last.Hops) == 0 {
		t.Fatalf("terminal round carries no hop events: %+v", last)
	}
	if int64(len(last.Hops))+last.HopsDropped != last.HopTotal {
		t.Fatalf("hop accounting: kept %d + dropped %d != total %d",
			len(last.Hops), last.HopsDropped, last.HopTotal)
	}
	tail := last.Hops[len(last.Hops)-1]
	if tail.Hop != last.HopTotal-1 || !tail.Backward {
		t.Fatalf("terminal hop %+v: want ordinal %d, backward", tail, last.HopTotal-1)
	}
	for _, h := range last.Hops {
		if h.HeaderBits <= 0 {
			t.Fatalf("hop without header bits: %+v", h)
		}
	}

	// The same burn as a budgeted walk resumed over several segments: each
	// segment's trace holds the round spans it walked, and together they
	// account for every hop of the uninterrupted walk.
	budget := reply.Hops/4 + 1
	body := fmt.Sprintf(`{"src":0,"dst":100,"budget_hops":%d}`, budget)
	var segHops int64
	for segments := 1; ; segments++ {
		var seg routeReply
		resp := postTraced(t, ts, "/v1/route", "", body, &seg)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("segment %d: code %d reply %+v", segments, resp.StatusCode, seg)
		}
		var sx trace.Export
		if code := getJSON(t, ts, "/v1/traces/"+traceIDOf(t, resp), &sx); code != http.StatusOK {
			t.Fatalf("segment %d trace get: code %d", segments, code)
		}
		for _, sp := range sx.Spans {
			if sp.Name == "route.round" {
				segHops += sp.HopTotal
			}
		}
		if seg.Resume == "" {
			if segments < 3 || seg.Status != "failure" || seg.Hops != reply.Hops {
				t.Fatalf("resumed walk ended after %d segments with %+v, want failure in %d hops",
					segments, seg, reply.Hops)
			}
			break
		}
		body = fmt.Sprintf(`{"src":0,"dst":100,"budget_hops":%d,"resume":%q}`, budget, seg.Resume)
	}
	if segHops != reply.Hops {
		t.Fatalf("resumed walk: round hops over all segments sum to %d, reply says %d", segHops, reply.Hops)
	}
}

// TestTraceDynamicEpochEvents checks the dynamics timeline lands in the
// retained trace: epoch advances (and the recompiles they force) show up
// as events alongside the per-round spans.
func TestTraceDynamicEpochEvents(t *testing.T) {
	ts := traceTestServer(t, serverConfig{traceSample: 1})
	var reply dynamicReply
	resp := postTraced(t, ts, "/v1/dynamic", "",
		`{"src":0,"dst":100,"schedule":{"kind":"markov","p_down":0.2,"p_up":0.5,"seed":9},"hops_per_epoch":16,"max_rounds":6}`,
		&reply)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dynamic: code %d", resp.StatusCode)
	}
	if reply.Epochs == 0 {
		t.Fatalf("scenario never ticked the epoch clock: %+v", reply)
	}
	var ex trace.Export
	if code := getJSON(t, ts, "/v1/traces/"+traceIDOf(t, resp), &ex); code != http.StatusOK {
		t.Fatalf("trace get: code %d", code)
	}
	var roundSpans int
	var epochEvents int
	var dropped int64
	for _, sp := range ex.Spans {
		if sp.Name == "dynamic.round" {
			roundSpans++
		}
		dropped += sp.EventsDropped
		for _, ev := range sp.Events {
			if ev.Name == "dynamic.epoch" {
				epochEvents++
			}
		}
	}
	if roundSpans != reply.Rounds {
		t.Fatalf("dynamic.round spans = %d, want %d", roundSpans, reply.Rounds)
	}
	if epochEvents == 0 {
		t.Fatal("no dynamic.epoch events in the retained trace")
	}
	if dropped == 0 && epochEvents != reply.Epochs {
		t.Fatalf("epoch events = %d, reply.Epochs = %d (no drops)", epochEvents, reply.Epochs)
	}
	if rc, ok := findSpanAttr(ex, "engine.route_dynamic", "recompiles"); !ok || rc != float64(reply.Recompiles) {
		t.Fatalf("recompiles attr %v, want %d", rc, reply.Recompiles)
	}
}

// findSpanAttr returns the named attr from the first span with that name.
func findSpanAttr(ex trace.Export, span, attr string) (float64, bool) {
	for _, sp := range ex.Spans {
		if sp.Name == span {
			v, ok := sp.Attrs[attr].(float64)
			return v, ok
		}
	}
	return 0, false
}

// TestTraceEndpointErrors pins the error surface of the trace API.
func TestTraceEndpointErrors(t *testing.T) {
	ts := traceTestServer(t, serverConfig{})
	if code := getJSON(t, ts, "/v1/traces/zzz", nil); code != http.StatusBadRequest {
		t.Fatalf("bad id: code %d, want 400", code)
	}
	if code := getJSON(t, ts, "/v1/traces/0123456789abcdef0123456789abcdef", nil); code != http.StatusNotFound {
		t.Fatalf("unknown id: code %d, want 404", code)
	}
	if code := getJSON(t, ts, "/v1/traces?limit=bogus", nil); code != http.StatusBadRequest {
		t.Fatalf("bad limit: code %d, want 400", code)
	}
	var list traceListReply
	if code := getJSON(t, ts, "/v1/traces", &list); code != http.StatusOK || len(list.Traces) != 0 {
		t.Fatalf("empty recorder: code %d list %+v", code, list)
	}
}

// TestRequestLogJSON checks -log-format=json emits one structured line
// per request, carrying the trace ID of sampled requests.
func TestRequestLogJSON(t *testing.T) {
	var buf syncBuffer
	ts := traceTestServer(t, serverConfig{traceSample: 1, logOut: &buf})
	resp := postTraced(t, ts, "/v1/route", "", `{"src":0,"dst":15}`, nil)
	id := traceIDOf(t, resp)

	// The log line lands after the handler's response bytes; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var line struct {
		Msg        string  `json:"msg"`
		Method     string  `json:"method"`
		Path       string  `json:"path"`
		Endpoint   string  `json:"endpoint"`
		Status     int     `json:"status"`
		DurationMS float64 `json:"duration_ms"`
		TraceID    string  `json:"trace_id"`
	}
	for {
		if s := buf.String(); strings.Contains(s, "\n") {
			if err := json.Unmarshal([]byte(s[:strings.Index(s, "\n")]), &line); err != nil {
				t.Fatalf("log line %q: %v", s, err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no request log line; buffer %q", buf.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if line.Msg != "request" || line.Method != "POST" || line.Path != "/v1/route" ||
		line.Endpoint != "POST /v1/route" || line.Status != 200 || line.TraceID != id {
		t.Fatalf("log line: %+v (want trace %s)", line, id)
	}
	if line.DurationMS <= 0 {
		t.Fatalf("log line missing duration: %+v", line)
	}
}
