package perf

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// DefaultSeconds is the measured window of one run (BENCHMARK.json's
// run_seconds).
const DefaultSeconds = 15

// Main is the perfladder command. It returns the process exit code: 0 for
// a run whose every verdict checked out, 1 for a wrong verdict, a failed
// ladder check or a regression under -compare, 2 for bad usage.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfladder", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run only this workload (default: all five)")
		seed     = fs.Uint64("seed", 1, "seed deriving every pair, spec and schedule")
		seconds  = fs.Float64("seconds", DefaultSeconds, "measured seconds per run, after a 2s warm-up")
		traceOn  = fs.Int("trace", 1, "1 also runs the traced per-layer ladder; 0 measures end to end only")
		jsonOut  = fs.String("json", "", "write every run's metrics to this file")
		spansOut = fs.String("spans", "", "write the ladder's spans to this file")
		sets     = fs.Int("sets", 0, "run the full set this many times, interleaved, seeds seed, seed+1, ...; print each metric's spread next to its bound")
		compare  = fs.String("compare", "", "parent reports (from -json, comma-separated) to compare with the change reports given as the argument")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "perfladder:", err)
		return 1
	}
	root, err := FindRoot(".")
	if err != nil {
		return fail(err)
	}
	if *compare != "" {
		if fs.NArg() != 1 {
			fmt.Fprintln(stderr, "perfladder: -compare parent.json needs the change report as its argument")
			return 2
		}
		bf, err := loadBenchmark(root)
		if err != nil {
			return fail(err)
		}
		parent, err := loadReports(*compare)
		if err != nil {
			return fail(err)
		}
		change, err := loadReports(fs.Arg(0))
		if err != nil {
			return fail(err)
		}
		if Compare(stdout, bf, parent, change) {
			return 1
		}
		return 0
	}
	wls := Workloads
	if *workload != "" {
		wl, ok := Lookup(*workload)
		if !ok {
			fmt.Fprintf(stderr, "perfladder: unknown workload %q\n", *workload)
			return 2
		}
		wls = []Workload{*wl}
	}
	if *seconds <= 0 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(stderr, "perfladder: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	bin := filepath.Join(root, ".bench_build", "adhocd")
	if err := BuildDaemon(root, bin); err != nil {
		return fail(err)
	}
	opt := Options{
		Bin:           bin,
		Seed:          *seed,
		Warmup:        DefaultWarmup,
		Measure:       time.Duration(*seconds * float64(time.Second)),
		Trace:         *traceOn == 1 && *sets == 0,
		LadderQueries: DefaultLadderQueries,
		LadderCap:     DefaultLadderCap,
		Out:           stdout,
	}
	if *spansOut != "" {
		opt.Spans = NewSpans()
	}
	passes := max(*sets, 1)
	var runs []*Result
	for k := range passes {
		for i := range wls {
			opt.Seed = *seed + uint64(k)
			r, err := Run(&wls[i], opt)
			if err != nil {
				return fail(err)
			}
			runs = append(runs, r)
		}
	}
	if *jsonOut != "" {
		b, err := json.MarshalIndent(Report{Runs: runs}, "", "  ")
		if err == nil {
			err = os.WriteFile(*jsonOut, append(b, '\n'), 0o644)
		}
		if err != nil {
			return fail(err)
		}
	}
	if *spansOut != "" {
		if err := opt.Spans.WriteFile(*spansOut); err != nil {
			return fail(err)
		}
	}
	if *sets > 0 {
		bf, err := loadBenchmark(root)
		if err != nil {
			return fail(err)
		}
		if !printSets(stdout, bf, runs) {
			fmt.Fprintln(stdout, "perfladder: some spread is wider than its bound")
		}
	}
	line, err := contractLine(runs, opt.Trace)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(stdout, "%s\n", line)
	code := exitCode(runs)
	if code != 0 {
		fmt.Fprintln(stderr, "perfladder: wrong verdicts or ladder mismatches; see the WRONG lines")
	}
	return code
}

// exitCode is 1 when any run saw a verdict its oracle refutes or a rung
// that failed to reproduce the daemon's reply.
func exitCode(runs []*Result) int {
	for _, r := range runs {
		if !r.Correct {
			return 1
		}
	}
	return 0
}
