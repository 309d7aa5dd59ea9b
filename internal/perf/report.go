package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// MetricDef describes one metric. BENCHMARK.json lists the same names,
// units and directions (a test keeps the two in step).
type MetricDef struct {
	Name, Unit, Better string
	// Bounded marks the end-to-end metrics BENCHMARK.json bounds.
	// error_ratio and wrong_verdicts are 0 on every correct run, so they
	// are reported as the result's failed count and correct flag instead.
	Bounded bool
}

// EndToEnd lists the end-to-end metrics, measured with tracing off.
var EndToEnd = []MetricDef{
	{"setup_s", "s", "lower", true},
	{"throughput_rps", "req/s", "higher", true},
	{"p50_us", "us", "lower", true},
	{"p99_us", "us", "lower", true},
	{"error_ratio", "ratio", "lower", false},
	{"wrong_verdicts", "count", "lower", false},
	{"rss_mb", "MB", "lower", true},
}

// PerLayer lists the per-layer metrics of the traced run, by module.
var PerLayer = []MetricDef{
	{"flatgraph.walk_ns_per_hop", "ns", "lower", false},
	{"flatgraph.walk_us", "us", "lower", false},
	{"flatgraph.walk_p99_us", "us", "lower", false},
	{"flatgraph.cover_us", "us", "lower", false},
	{"route.route_us", "us", "lower", false},
	{"route.self_us", "us", "lower", false},
	{"route.hops_per_query", "count", "lower", false},
	{"route.hops_per_query_p99", "count", "lower", false},
	{"route.cover_steps_per_query", "count", "lower", false},
	{"route.rounds_per_query", "count", "lower", false},
	{"route.useful_hop_ratio", "ratio", "higher", false},
	{"route.certificate_ratio", "ratio", "higher", false},
	{"route.segments_per_query", "count", "lower", false},
	{"engine.route_us", "us", "lower", false},
	{"engine.self_us", "us", "lower", false},
	{"engine.budgeted_us", "us", "lower", false},
	{"token.sign_us", "us", "lower", false},
	{"token.verify_us", "us", "lower", false},
	{"adhocd.http_us", "us", "lower", false},
	{"adhocd.http_p99_us", "us", "lower", false},
	{"adhocd.serve_us", "us", "lower", false},
	{"adhocd.trace_us", "us", "lower", false},
	{"adhocd.queue_us", "us", "lower", false},
	{"adhocd.reply_bytes", "bytes", "lower", false},
	{"adhocd.rejected_429", "count", "lower", false},
	{"adhocd.errors_5xx", "count", "lower", false},
	{"adhocd.peak_rss_mb", "MB", "lower", false},
	{"adhocd.heap_mb", "MB", "lower", false},
	{"adhocd.gc_pause_s", "s", "lower", false},
	{"registry.obtain_hit_us", "us", "lower", false},
	{"registry.obtain_miss_ms", "ms", "lower", false},
	{"registry.hit_ratio", "ratio", "higher", false},
	{"registry.compiles", "count", "lower", false},
	{"registry.evictions", "count", "lower", false},
	{"registry.dedups", "count", "higher", false},
	{"degred.reduce_ms", "ms", "lower", false},
	{"dynamic.route_ms", "ms", "lower", false},
	{"dynamic.advance_us", "us", "lower", false},
	{"dynamic.compiled_us", "us", "lower", false},
	{"dynamic.recompiles_per_route", "count", "lower", false},
	{"dynamic.aborted_round_ratio", "ratio", "lower", false},
	{"dynamic.delta_share", "ratio", "higher", false},
	{"dynamic.cache_hit_ratio", "ratio", "higher", false},
	{"bench.span_overhead_ns", "ns", "lower", false},
}

var perLayerUnit = func() map[string]string {
	m := map[string]string{}
	for _, d := range PerLayer {
		m[d.Name] = d.Unit
	}
	return m
}()

// Metric is one measured value.
type Metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// Result is one workload run.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	EndToEnd  map[string]Metric `json:"end_to_end"`
	PerLayer  map[string]Metric `json:"per_layer,omitempty"`
	// Problems says why Correct is false.
	Problems []string `json:"problems,omitempty"`
}

// Report is the -json output: every run of one invocation, in run order.
type Report struct {
	Runs []*Result `json:"runs"`
}

// Run measures one workload: the end-to-end closed loop, then, with
// opt.Trace, the per-layer ladder.
func Run(wl *Workload, opt Options) (*Result, error) {
	in, err := newInputs(wl, opt.Seed)
	if err != nil {
		return nil, err
	}
	e, err := in.runE2E(opt)
	if err != nil {
		return nil, fmt.Errorf("perf: %s: %w", wl.Name, err)
	}
	r := newResult(wl.Name, opt.Seed, e)
	if opt.Trace {
		var problems []string
		r.PerLayer, problems, err = in.runLadder(opt, e)
		if err != nil {
			return nil, fmt.Errorf("perf: %s ladder: %w", wl.Name, err)
		}
		r.Problems = append(r.Problems, problems...)
	}
	r.Correct = len(r.Problems) == 0
	if opt.Out != nil {
		r.print(opt.Out, opt.Measure, e.loop)
	}
	return r, nil
}

// newResult reports an end-to-end run; any verdict the oracles refuted
// makes it incorrect.
func newResult(workload string, seed uint64, e *e2e) *Result {
	ls := e.loop
	r := &Result{Workload: workload, Seed: seed, Attempted: ls.attempted, Failed: ls.errors, EndToEnd: e.metrics}
	if ls.wrong > 0 {
		r.Problems = append(r.Problems, fmt.Sprintf("%s: %d verdicts disagree with the oracle", workload, ls.wrong))
	}
	r.Correct = len(r.Problems) == 0
	return r
}

// print writes the human-readable report of one run.
func (r *Result) print(w io.Writer, measure time.Duration, ls *loopStats) {
	fmt.Fprintf(w, "== %s  seed %d  %gs measured  c=%d  closed loop\n", r.Workload, r.Seed, measure.Seconds(), conns)
	for _, d := range EndToEnd {
		m := r.EndToEnd[d.Name]
		fmt.Fprintf(w, "  %-16s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  certificates %d  tenant re-registrations %d\n",
		ls.attempted, ls.errors, ls.certs, ls.reregs)
	if r.PerLayer != nil {
		fmt.Fprintf(w, "  per layer (traced run):\n")
		for _, d := range PerLayer {
			m := r.PerLayer[d.Name]
			fmt.Fprintf(w, "  %-30s %14.4f %-6s n=%d\n", d.Name, m.Value, m.Unit, m.Samples)
		}
		if r.Workload == RouteShort || r.Workload == RouteLong {
			// Only here is a request's in-process twin exactly Engine.Route.
			fmt.Fprintf(w, "  split: %s\n", r.split())
		}
	}
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  WRONG: %s\n", p)
	}
}

// split is the one-line answer to where a request's time goes: the
// end-to-end p50 as the c=1 HTTP latency plus queueing, that latency as
// the in-process engine plus the serving tax (with tracing's share), and
// the engine as walk, closure walk and the layers' own time. All values are
// p50 µs of the traced run; self times are medians of paired differences,
// so the parts need not add up exactly.
func (r *Result) split() string {
	v := func(name string) float64 { return r.PerLayer[name].Value }
	return fmt.Sprintf("e2e %.1f = http %.1f + queue %.1f | http = engine %.1f + serve %.1f (trace %.1f) | "+
		"engine = walk %.1f + cover %.1f + route self %.1f + engine self %.1f",
		r.EndToEnd["p50_us"].Value, v("adhocd.http_us"), v("adhocd.queue_us"),
		v("engine.route_us"), v("adhocd.serve_us"), v("adhocd.trace_us"),
		v("flatgraph.walk_us"), v("flatgraph.cover_us"), v("route.self_us"), v("engine.self_us"))
}

// contractLine is the single-line JSON result: the bounded end-to-end
// metrics, or with trace every per-layer metric.
func contractLine(runs []*Result, trace bool) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	for _, r := range runs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		key := func(name string) string {
			if len(runs) == 1 {
				return name
			}
			return r.Workload + "." + name
		}
		if trace {
			for _, d := range PerLayer {
				out.Metrics[key(d.Name)] = value{r.PerLayer[d.Name].Value, d.Unit}
			}
			continue
		}
		for _, d := range EndToEnd {
			if d.Bounded {
				out.Metrics[key(d.Name)] = value{r.EndToEnd[d.Name].Value, d.Unit}
			}
		}
	}
	return json.Marshal(out)
}

// benchmarkFile is the part of BENCHMARK.json the comparisons read.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
}

func loadBenchmark(root string) (*benchmarkFile, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("perf: BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// loadReports reads a comma-separated list of -json reports and joins
// their runs in list order, so pairs can come from alternating single runs.
func loadReports(paths string) (*Report, error) {
	var all Report
	for _, path := range strings.Split(paths, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r Report
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("perf: %s: %w", path, err)
		}
		all.Runs = append(all.Runs, r.Runs...)
	}
	return &all, nil
}

// series groups the runs of a report by workload: metric -> values in
// run order.
func series(r *Report) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, run := range r.Runs {
		if out[run.Workload] == nil {
			out[run.Workload] = map[string][]float64{}
		}
		for name, m := range run.EndToEnd {
			out[run.Workload][name] = append(out[run.Workload][name], m.Value)
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Compare judges a change report against its parent, row by row, under
// the bounds of BENCHMARK.json. Pair i is run i of a workload in each
// report. It returns whether any row regressed.
func Compare(w io.Writer, bf *benchmarkFile, parent, change *Report) bool {
	ps, cs := series(parent), series(change)
	regressed := false
	fmt.Fprintf(w, "%-13s %-15s %5s %14s %8s %14s %8s %9s %7s  %s\n", "workload", "metric", "pairs",
		"parent", "spread", "change", "spread", "worse by", "bound", "verdict")
	for _, wl := range sortedKeys(ps) {
		for _, d := range bf.EndToEnd {
			p, c := ps[wl][d.Name], cs[wl][d.Name]
			if len(p) == 0 || len(c) == 0 {
				continue
			}
			v := Judge(p, c, d.Better == "higher", d.Bound)
			regressed = regressed || v == Regressed
			fmt.Fprintf(w, "%-13s %-15s %5d %14.4f %7.2f%% %14.4f %7.2f%% %+8.2f%% %6.1f%%  %s\n", wl, d.Name,
				min(len(p), len(c)), Median(p), 100*Spread(p), Median(c), 100*Spread(c),
				100*worseBy(Median(p), Median(c), d.Better == "higher"), 100*d.Bound, v)
		}
	}
	return regressed
}

// printSets prints, for each workload and bounded metric, the values of
// every set, the spread across them, and the gap between the medians of
// the first and second half of the sets, next to the metric's bound. It
// returns whether every spread and gap stays within its bound.
func printSets(w io.Writer, bf *benchmarkFile, runs []*Result) bool {
	rep := series(&Report{Runs: runs})
	ok := true
	fmt.Fprintf(w, "%-13s %-15s %8s %8s %7s  %s\n", "workload", "metric", "spread", "gap", "bound", "values")
	for _, wl := range Workloads {
		for _, d := range bf.EndToEnd {
			vs := rep[wl.Name][d.Name]
			if len(vs) < 2 {
				continue
			}
			h := len(vs) / 2
			spread := Spread(vs)
			gap := worseBy(Median(vs[:h]), Median(vs[h:]), d.Better == "higher")
			flag := ""
			// setup_s is held to its bound only between medians: one
			// process start is too short to have a steady spread.
			if (d.Name != "setup_s" && spread > d.Bound) || gap > d.Bound {
				flag, ok = "  WIDER THAN BOUND", false
			}
			var vals []string
			for _, v := range vs {
				vals = append(vals, fmt.Sprintf("%.4g", v))
			}
			fmt.Fprintf(w, "%-13s %-15s %7.2f%% %+7.2f%% %6.1f%%  %s%s\n", wl.Name, d.Name,
				100*spread, 100*gap, 100*d.Bound, strings.Join(vals, " "), flag)
		}
	}
	return ok
}
