package main

import (
	"net/http"
	"time"

	"repro/internal/obs"
)

// httpMetrics is the serving-layer instrumentation: one latency histogram
// and per-status-class counters per registered route pattern, an in-flight
// gauge, and an admission-rejection counter. Endpoint metrics are
// pre-built at server construction from the known pattern table, so the
// per-request cost is one read-only map lookup plus a few atomic adds —
// no locks, no allocation.
type httpMetrics struct {
	inflight  *obs.Gauge
	rejected  *obs.Counter
	endpoints map[string]*endpointMetrics
	other     *endpointMetrics // unmatched paths (mux 404s)
}

// endpointMetrics instruments one route pattern.
type endpointMetrics struct {
	seconds *obs.Histogram
	classes [6]*obs.Counter // index = status/100 (1xx..5xx); 0 unused
}

func newEndpointMetrics(o *obs.Registry, endpoint string) (*endpointMetrics, error) {
	ep := &endpointMetrics{
		seconds: obs.NewLatencyHistogram("adhoc_http_request_seconds",
			"HTTP request latency by endpoint (admission to last byte).",
			obs.Labels{"endpoint": endpoint}),
	}
	ms := []obs.Metric{ep.seconds}
	for c := 1; c <= 5; c++ {
		ep.classes[c] = obs.NewCounter("adhoc_http_requests_total",
			"HTTP requests by endpoint and status class.",
			obs.Labels{"endpoint": endpoint, "code": []string{"", "1xx", "2xx", "3xx", "4xx", "5xx"}[c]})
		ms = append(ms, ep.classes[c])
	}
	return ep, o.Register(ms...)
}

// newHTTPMetrics builds and registers the serving-layer metrics for the
// given route patterns.
func newHTTPMetrics(o *obs.Registry, patterns []string) (*httpMetrics, error) {
	hm := &httpMetrics{
		inflight: obs.NewGauge("adhoc_http_inflight_requests",
			"Requests currently being served (admission gauge).", nil),
		rejected: obs.NewCounter("adhoc_http_rejected_total",
			"Requests rejected by admission control (429, server at capacity).", nil),
		endpoints: make(map[string]*endpointMetrics, len(patterns)),
	}
	if err := o.Register(hm.inflight, hm.rejected); err != nil {
		return nil, err
	}
	for _, p := range patterns {
		ep, err := newEndpointMetrics(o, p)
		if err != nil {
			return nil, err
		}
		hm.endpoints[p] = ep
	}
	other, err := newEndpointMetrics(o, "other")
	if err != nil {
		return nil, err
	}
	hm.other = other
	return hm, nil
}

// record books one finished request. pattern is the matched mux pattern
// ("" when nothing matched — 404s and admission rejections — which land
// in the "other" endpoint). traceID, when non-empty, rides into the
// latency bucket as an OpenMetrics exemplar (the request was sampled, so
// the one small allocation is already amortized by trace bookkeeping).
func (hm *httpMetrics) record(pattern string, status int, start time.Time, traceID string) {
	ep, ok := hm.endpoints[pattern]
	if !ok {
		ep = hm.other
	}
	if traceID != "" {
		ep.seconds.ObserveSinceExemplar(start, traceID)
	} else {
		ep.seconds.ObserveSince(start)
	}
	if c := status / 100; c >= 1 && c <= 5 {
		ep.classes[c].Inc()
	}
}

// serverErrors totals every metered request and the 5xx answers among
// them — the server's own failures, which the errors==0 objective counts.
func (hm *httpMetrics) serverErrors() (total, bad int64) {
	count := func(ep *endpointMetrics) {
		for c := 1; c <= 5; c++ {
			total += ep.classes[c].Value()
		}
		bad += ep.classes[5].Value()
	}
	for _, ep := range hm.endpoints {
		count(ep)
	}
	count(hm.other)
	return total, bad
}

// statusRecorder captures the response status for metering. A handler
// that never calls WriteHeader implicitly answers 200.
type statusRecorder struct {
	http.ResponseWriter
	code int
}

func (r *statusRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	return r.ResponseWriter.Write(b)
}

// status returns the effective status code (200 when the handler wrote
// nothing at all).
func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}

// Flush forwards to the underlying writer when it streams (pprof's
// profile endpoints flush).
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// registerMetrics exports every subsystem into the server's obs registry:
// the boot engine (route/dynamic/batch latency, hop and header-bit
// distributions, query counters), the per-network vector families, the
// network registry (hit/miss/singleflight/eviction traffic and compile
// latency), the world table (per-world epoch/links/recompiles), the Go
// runtime, the trace and profile flight recorders, the SLO evaluator, and
// the HTTP layer itself.
func (s *server) registerMetrics(patterns []string) error {
	if err := s.eng.RegisterMetrics(s.obs); err != nil {
		return err
	}
	if err := s.vecs.Register(s.obs); err != nil {
		return err
	}
	if err := s.reg.RegisterMetrics(s.obs); err != nil {
		return err
	}
	if err := s.worlds.RegisterMetrics(s.obs); err != nil {
		return err
	}
	if err := obs.RegisterRuntimeMetrics(s.obs); err != nil {
		return err
	}
	if err := s.registerTraceMetrics(); err != nil {
		return err
	}
	if err := s.prof.RegisterMetrics(s.obs); err != nil {
		return err
	}
	if s.slo != nil {
		if err := s.slo.RegisterMetrics(s.obs); err != nil {
			return err
		}
	}
	if s.cluster != nil {
		if err := s.cluster.registerMetrics(s.obs); err != nil {
			return err
		}
	}
	hm, err := newHTTPMetrics(s.obs, patterns)
	if err != nil {
		return err
	}
	s.hm = hm
	return nil
}

// registerTraceMetrics exports the tracing layer's internals: sampler
// traffic, the flight-recorder ring's retention and evictions, and the
// effective sampled ratio.
func (s *server) registerTraceMetrics() error {
	rec := s.tracer.Recorder()
	return s.obs.Register(
		obs.NewCounterFunc("adhoc_trace_started_total",
			"Requests that entered the tracing decision (sampled or not).", nil,
			func() float64 { started, _ := s.tracer.Stats(); return float64(started) }),
		obs.NewCounterFunc("adhoc_trace_sampled_total",
			"Requests the head sampler (or an upstream sampled flag) traced.", nil,
			func() float64 { _, sampled := s.tracer.Stats(); return float64(sampled) }),
		obs.NewCounterFunc("adhoc_trace_retained_total",
			"Traces the flight recorder kept (slow or failed).", nil,
			func() float64 { return float64(rec.Kept()) }),
		obs.NewCounterFunc("adhoc_trace_evictions_total",
			"Retained traces overwritten by newer ones in the flight-recorder ring.", nil,
			func() float64 { return float64(rec.Evicted()) }),
		obs.NewGaugeFunc("adhoc_trace_ring_capacity",
			"Flight-recorder ring capacity (retained traces).", nil,
			func() float64 { return float64(rec.Capacity()) }),
		obs.NewGaugeFunc("adhoc_trace_sampled_ratio",
			"Fraction of requests traced since boot (sampled / started).", nil,
			func() float64 {
				started, sampled := s.tracer.Stats()
				if started == 0 {
					return 0
				}
				return float64(sampled) / float64(started)
			}),
	)
}
