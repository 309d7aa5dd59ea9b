package main

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/engine"
	"repro/internal/slo"
)

// defaultSLOSpec is the -slo default: the latency objectives an operator
// gets for free, the paper-derived hop-stretch bound (Theorem 1's
// c·n·log2(n) with a 4x safety factor, resolved against the boot network's
// reduced size), a zero-tolerance server-error (5xx) objective, and the
// client-evaluated wrong-verdict objective loadgen -slo enforces.
const defaultSLOSpec = "route_p99<250ms,dynamic_p99<500ms,hop_p99<4log,errors==0,wrong_verdicts==0"

// sloDisabled is the -slo value that turns the evaluator off entirely.
const sloDisabled = "off"

// resolveSLOSpec maps the config value onto the effective spec: "" means
// the default objectives, sloDisabled means none.
func resolveSLOSpec(spec string) string {
	switch spec {
	case sloDisabled:
		return ""
	case "":
		return defaultSLOSpec
	}
	return spec
}

// buildObjectives parses an objective spec and binds each declaration to
// a source over the given engine's existing metrics, and errors==0 to
// serverErrors. Unknown names are an error: a typoed objective must not
// silently never burn. run() calls it once against the boot engine (with
// no serverErrors) to reject a bad -slo flag cleanly before newServer
// (which treats a failure here as a wiring bug).
func buildObjectives(eng *engine.Engine, serverErrors slo.Source, spec string) ([]slo.Objective, error) {
	decls, err := slo.Parse(spec)
	if err != nil {
		return nil, err
	}
	var objs []slo.Objective
	for _, d := range decls {
		obj := slo.Objective{Decl: d}
		// The metric identity is the name minus its quantile suffix
		// ("route_p99" -> "route").
		base := d.Name
		if i := strings.LastIndex(base, "_p"); i >= 0 && !d.Zero {
			base = base[:i]
		}
		switch {
		case d.Zero && d.Name == "wrong_verdicts":
			// The server cannot see a wrong verdict — only a client
			// replaying walks against a reference can. Published for
			// loadgen -slo to enforce; never burns server-side.
			obj.ClientEvaluated = true
		case d.Zero && d.Name == "errors":
			// Server failures only: a client error (4xx) is the
			// client's and must not spend the budget.
			obj.Source = serverErrors
		case d.Zero:
			return nil, fmt.Errorf("slo: unknown zero-tolerance objective %q (want errors or wrong_verdicts)", d.Name)
		case d.Latency > 0:
			obj.Threshold = d.Latency.Seconds()
			obj.Unit = "s"
			switch base {
			case "route":
				obj.Source = slo.HistogramSource(eng.RouteSecondsHistogram(), int64(d.Latency))
			case "dynamic":
				obj.Source = slo.HistogramSource(eng.DynamicSecondsHistogram(), int64(d.Latency))
			default:
				return nil, fmt.Errorf("slo: unknown latency objective %q (want route_pNN or dynamic_pNN)", d.Name)
			}
		case d.LogFactor > 0:
			if base != "hop" {
				return nil, fmt.Errorf("slo: unknown bound-derived objective %q (want hop_pNN)", d.Name)
			}
			// Resolve the compiled bound against the reduced network the
			// walks actually traverse.
			n := eng.Reduced().Flat().NumNodes()
			th := slo.HopThreshold(d.LogFactor, n)
			obj.Threshold = th
			obj.Unit = "hops"
			obj.Source = slo.HistogramSource(eng.HopsHistogram(), int64(th))
		}
		objs = append(objs, obj)
	}
	return objs, nil
}

// sloReply is the GET /v1/slo response: every objective's declaration,
// resolved threshold, and current multi-window burn state.
type sloReply struct {
	Objectives    []slo.ObjectiveReport `json:"objectives"`
	BurnThreshold float64               `json:"burn_threshold"`
}

// handleSLO serves the SLO report. Report ticks on demand (rate-limited
// inside the evaluator), so a freshly booted daemon answers without
// waiting for the background ticker.
func (s *server) handleSLO(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, sloReply{
		Objectives:    s.slo.Report(s.sloNow()),
		BurnThreshold: s.slo.BurnThreshold,
	})
}

// RunSLO drives the background burn-rate ticker until stop closes. A no-op
// when -slo=off; serve() starts it via interface assertion.
func (s *server) RunSLO(stop <-chan struct{}) {
	if s.slo == nil {
		return
	}
	s.slo.Run(s.sloInterval, stop)
}
