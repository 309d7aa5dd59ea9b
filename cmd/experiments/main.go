// Command experiments regenerates every experiment table in the exp.Runners
// index (F1, E1–E11, A1–A5), writing Markdown and CSV into a results
// directory.
//
// Usage:
//
//	experiments [-only E4] [-quick] [-seed 7] [-out results]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/exp"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	var (
		only  = fs.String("only", "", "run a single experiment (e.g. E4)")
		quick = fs.Bool("quick", false, "reduced sweep sizes")
		seed  = fs.Uint64("seed", 7, "experiment seed")
		outD  = fs.String("out", "results", "output directory")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	opts := exp.Options{Quick: *quick, Seed: *seed}
	runners := exp.Runners()
	if *only != "" {
		r, err := exp.ByID(strings.ToUpper(*only))
		if err != nil {
			return err
		}
		runners = []exp.Runner{r}
	}
	if err := os.MkdirAll(*outD, 0o755); err != nil {
		return err
	}
	var combined strings.Builder
	combined.WriteString("# Experiment results\n\n")
	fmt.Fprintf(&combined, "Generated by cmd/experiments (quick=%v, seed=%d).\n\n", *quick, *seed)
	for _, r := range runners {
		started := time.Now()
		fmt.Fprintf(out, "running %s (%s)...", r.ID, r.Name)
		tbl, err := r.Run(opts)
		if err != nil {
			fmt.Fprintln(out, " FAILED")
			return fmt.Errorf("%s: %w", r.ID, err)
		}
		fmt.Fprintf(out, " ok (%.1fs)\n", time.Since(started).Seconds())
		md := tbl.Markdown()
		combined.WriteString(md)
		combined.WriteString("\n")
		if err := os.WriteFile(filepath.Join(*outD, r.ID+".md"), []byte(md), 0o644); err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(*outD, r.ID+".csv"), []byte(tbl.CSV()), 0o644); err != nil {
			return err
		}
	}
	if *only == "" {
		if err := os.WriteFile(filepath.Join(*outD, "ALL.md"), []byte(combined.String()), 0o644); err != nil {
			return err
		}
	}
	fmt.Fprintf(out, "results written to %s/\n", *outD)
	return nil
}
