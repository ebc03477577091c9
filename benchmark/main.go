// Command benchmark is the repository benchmark: two workloads that drive
// the solver stack through its public functions with default options,
// verify every answer independently, and print the end-to-end metrics (an
// untraced run) or the per-layer metrics (a traced run) as one JSON object
// on the last line of standard output.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload fp-solve --seed 1 --seconds 45 --trace 0
//	bash benchmark/run.sh --workload kpd-mixed --seed 7 --seconds 45 --trace 1
//
// run.sh builds this package from the tree it sits in and runs it; see
// README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

func main() {
	if spec, ok := os.LookupEnv(setupChildEnv); ok {
		os.Exit(setupChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses the command line, runs one workload and prints its report; it
// returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload: fp-solve or kpd-mixed")
		seed    = fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = fs.Int("seconds", 45, "measured seconds per run")
		trace   = fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "benchmark: want --seconds ≥ 1, --trace 0|1 and no positional arguments")
		return 2
	}
	cfg := Config{
		Workload: *name,
		Seed:     *seed,
		Duration: time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		RepoRoot: ".",
		TraceDir: ".bench_build/traces",
	}
	res, err := Run(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}
