package perf

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	hundred := make([]float64, 100)
	for i := range hundred {
		hundred[i] = float64(100 - i) // unsorted on purpose
	}
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{hundred, 50, 50},
		{hundred, 99, 99},
		{hundred, 100, 100},
		{[]float64{4, 1, 3, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 99, 4},
		{[]float64{7}, 99, 7},
		{nil, 50, 0},
	} {
		if got := Percentile(tc.xs, tc.p); got != tc.want {
			t.Errorf("Percentile(%v, %g) = %g, want %g", tc.xs, tc.p, got, tc.want)
		}
	}
	// Paired samples must stay paired: Percentile may not reorder its input.
	if hundred[0] != 100 || hundred[99] != 1 {
		t.Errorf("Percentile reordered its input: %v ... %v", hundred[0], hundred[99])
	}
}

// The reference values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 3}, 0.5, 3.5},
		{[]float64{4, 1, 7}, 1, 7},
		{[]float64{10, 20, 30, 40, 50}, 15, 45},
	} {
		q1, q3, ok := Quartiles(tc.xs)
		if !ok || q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("Quartiles(%v) = %g, %g, %v; want %g, %g", tc.xs, q1, q3, ok, tc.q1, tc.q3)
		}
	}
	if _, _, ok := Quartiles([]float64{1}); ok {
		t.Error("Quartiles of one sample must report !ok")
	}
	if got := Spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != (8.25-2.75)/5 {
		t.Errorf("Spread = %g, want %g", got, (8.25-2.75)/5)
	}
}

// Self time is the median of paired differences, which cancels drift that
// both rungs share; the difference of medians would not.
func TestPairedMedianSelfTime(t *testing.T) {
	var parent, child []float64
	for i := range 101 {
		drift := float64(i * i % 37) // shared by both rungs of query i
		child = append(child, 10+drift)
		parent = append(parent, 10+drift+3+float64(i%3)) // self time 3, 4 or 5
	}
	if got := PairedMedian(parent, child); got != 4 {
		t.Errorf("PairedMedian = %g, want 4", got)
	}
	if got := PairedMedian(parent[:5], child); got != PairedMedian(parent[:5], child[:5]) {
		t.Errorf("PairedMedian must use the common prefix, got %g", got)
	}
}

func TestJudgeCompareRule(t *testing.T) {
	around := func(center float64, n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = center + float64(i%5) - 2 // center ± 2
		}
		return xs
	}
	parent := around(100, 10)
	for _, tc := range []struct {
		name         string
		parent       []float64
		change       []float64
		higherBetter bool
		bound        float64
		want         Verdict
	}{
		{"clear gain", parent, around(90, 10), false, 0.1, Improved},
		{"within noise", parent, around(101, 10), false, 0.1, NoWorse},
		{"past the bound", parent, around(115, 10), false, 0.1, Regressed},
		{"higher is better", parent, around(115, 10), true, 0.1, Improved},
		{"too few pairs", parent[:9], around(90, 9), false, 0.1, Unresolved},
		{"parent noisier than the bound", []float64{50, 150, 50, 150, 50, 150, 50, 150, 50, 150},
			around(120, 10), false, 0.1, Unresolved},
		{"noisy parent, change beats every run", []float64{130, 150, 130, 150, 130, 150, 130, 150, 130, 150},
			around(100, 10), false, 0.05, Improved},
		// Every change run beats every parent run, but by less than the
		// parent's own spread: no claim, yet resolved as no-worse.
		{"noisy parent, change better than all", []float64{110, 130, 110, 130, 110, 130, 110, 130, 110, 130},
			[]float64{105, 108, 105, 108, 105, 108, 105, 108, 105, 108}, false, 0.05, NoWorse},
	} {
		if got := Judge(tc.parent, tc.change, tc.higherBetter, tc.bound); got != tc.want {
			t.Errorf("%s: Judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Eight wins in ten pairs is short of the nine-tenths rule, even when
	// the medians differ clearly.
	change := around(90, 10)
	change[0], change[1] = 200, 200
	if got := Judge(parent, change, false, 0.5); got != NoWorse {
		t.Errorf("8/10 wins: Judge = %s, want %s", got, NoWorse)
	}
}

// BENCHMARK.json is the driver-facing copy of the metric tables; the two
// must list the same workloads, names, units and directions.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := top[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(top) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want exactly 6", len(top))
	}
	var runSeconds int
	if err := json.Unmarshal(top["run_seconds"], &runSeconds); err != nil || runSeconds != DefaultSeconds {
		t.Errorf("run_seconds = %d (%v), want DefaultSeconds = %d", runSeconds, err, DefaultSeconds)
	}
	bf, err := loadBenchmark(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in Workloads", len(bf.Workloads), len(Workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != Workloads[i].Name || w.Why != Workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, Workloads %q / %q", i, w.Name, w.Why, Workloads[i].Name, Workloads[i].Why)
		}
	}
	var bounded []MetricDef
	for _, d := range EndToEnd {
		if d.Bounded {
			bounded = append(bounded, d)
		}
	}
	if len(bf.EndToEnd) != len(bounded) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d bounded in EndToEnd", len(bf.EndToEnd), len(bounded))
	}
	setupBound := 0.0
	for i, m := range bf.EndToEnd {
		d := bounded[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end %d: %+v, table %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	for _, m := range bf.EndToEnd {
		if m.Bound > setupBound {
			t.Errorf("%s bound %g exceeds setup_s's %g; setup_s must have the largest", m.Name, m.Bound, setupBound)
		}
	}
	if len(bf.PerLayer) != len(PerLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in PerLayer", len(bf.PerLayer), len(PerLayer))
	}
	for i, m := range bf.PerLayer {
		if d := PerLayer[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: %+v, table %+v", i, m, d)
		}
	}
}

// testBinary builds adhocd into the test's temporary directory.
func testBinary(t *testing.T) string {
	t.Helper()
	root, err := FindRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	bin := filepath.Join(t.TempDir(), "adhocd")
	if err := BuildDaemon(root, bin); err != nil {
		t.Fatal(err)
	}
	return bin
}

// TestSmokeEveryWorkload builds adhocd and runs every workload end to end
// for half a second, ladder included, so the plain test suite exercises the
// whole benchmark: oracles, replay, and every rung's reproduction check.
func TestSmokeEveryWorkload(t *testing.T) {
	bin := testBinary(t)
	for i := range Workloads {
		wl := &Workloads[i]
		t.Run(wl.Name, func(t *testing.T) {
			var out bytes.Buffer
			r, err := Run(wl, Options{
				Bin: bin, Seed: 3,
				Warmup: 200 * time.Millisecond, Measure: 500 * time.Millisecond,
				Trace: true, LadderQueries: 12, LadderCap: 5 * time.Second,
				Out: &out,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d problems=%v\n%s", r.Correct, r.Failed, r.Attempted, r.Problems, out.String())
			}
			for _, d := range EndToEnd {
				if _, ok := r.EndToEnd[d.Name]; !ok {
					t.Errorf("end-to-end metric %s missing", d.Name)
				}
			}
			for _, d := range PerLayer {
				if _, ok := r.PerLayer[d.Name]; !ok {
					t.Errorf("per-layer metric %s missing", d.Name)
				}
			}
			for _, name := range []string{"setup_s", "throughput_rps", "p50_us", "p99_us", "rss_mb"} {
				if r.EndToEnd[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, r.EndToEnd[name].Value)
				}
			}
			line, err := contractLine([]*Result{r}, true)
			if err != nil {
				t.Fatal(err)
			}
			var parsed struct {
				Correct bool                       `json:"correct"`
				Metrics map[string]json.RawMessage `json:"metrics"`
			}
			if err := json.Unmarshal(line, &parsed); err != nil || !parsed.Correct || len(parsed.Metrics) != len(PerLayer) {
				t.Errorf("contract line %s: %v", line, err)
			}
		})
	}
}

// flipProxy forwards to a daemon and turns the first successful route
// verdict it relays into a failure.
func flipProxy(t *testing.T, target string) *httptest.Server {
	var mu sync.Mutex
	flipped := false
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, err := http.NewRequest(r.Method, target+r.URL.Path, r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		mu.Lock()
		if !flipped && r.URL.Path == "/v1/route" && bytes.Contains(body, []byte(`"status":"success"`)) {
			body = bytes.Replace(body, []byte(`"status":"success"`), []byte(`"status":"failure"`), 1)
			flipped = true
		}
		mu.Unlock()
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// A single flipped verdict must surface as a wrong verdict, an incorrect
// result line, and a nonzero exit code.
func TestFlippedVerdictFailsTheRun(t *testing.T) {
	wl, _ := Lookup(RouteShort)
	in, err := newInputs(wl, 1)
	if err != nil {
		t.Fatal(err)
	}
	d, _, err := in.bootReady(testBinary(t))
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	proxy := flipProxy(t, d.base)

	ls := in.closedLoop(proxy.URL, 0, 300*time.Millisecond)
	if ls.wrong != 1 {
		t.Fatalf("wrong verdicts = %d over %d requests, want exactly the flipped one", ls.wrong, ls.attempted)
	}
	r := newResult(wl.Name, 1, &e2e{loop: ls, metrics: map[string]Metric{}})
	if r.Correct {
		t.Fatal("a run with a wrong verdict must not be reported correct")
	}
	line, err := contractLine([]*Result{r}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"correct":false`) {
		t.Errorf("contract line %s does not report the wrong verdict", line)
	}
	if exitCode([]*Result{r}) == 0 {
		t.Error("a run with a wrong verdict must exit nonzero")
	}
}

// -compare reads alternating single-run reports on each side and exits
// nonzero when a bounded metric regresses past its bound.
func TestCompareFlagsRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64, i int) string {
		r := Report{Runs: []*Result{{Workload: RouteShort, Correct: true, EndToEnd: map[string]Metric{
			"p50_us":         {Value: p50 + float64(i%3), Unit: "us"},
			"throughput_rps": {Value: 1000 + float64(i%3), Unit: "req/s"},
		}}}}
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	var parents, changes []string
	for i := range MinPairs {
		parents = append(parents, write(fmt.Sprintf("p%d.json", i), 100, i))
		changes = append(changes, write(fmt.Sprintf("c%d.json", i), 140, i))
	}
	var out, errOut bytes.Buffer
	code := Main([]string{"-compare", strings.Join(parents, ","), strings.Join(changes, ",")}, &out, &errOut)
	if code != 1 {
		t.Fatalf("exit code %d, want 1\n%s%s", code, out.String(), errOut.String())
	}
	for _, want := range []string{"p50_us", string(Regressed), "throughput_rps", string(NoWorse)} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("compare output lacks %q:\n%s", want, out.String())
		}
	}
}
