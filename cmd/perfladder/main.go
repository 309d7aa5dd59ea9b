// Command perfladder is the repository's benchmark: it builds cmd/adhocd,
// drives fresh daemons with five closed-loop workloads, checks every
// verdict against an oracle, and measures each layer on the same queries.
// See internal/perf for the workloads, metrics and run commands.
//
// It is a module of its own so the benchmark builds apart from the code it
// measures:
//
//	bash cmd/perfladder/run.sh -seed 1        # from the repository root
//	go run -C cmd/perfladder . -seed 1        # the same, with the default Go caches
package main

import (
	"os"

	"repro/internal/perf"
)

func main() {
	os.Exit(perf.Main(os.Args[1:], os.Stdout, os.Stderr))
}
