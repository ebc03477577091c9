// Command kpbench regenerates the reproduction's experiment tables
// (DESIGN.md §4, E1–E13) and emits the machine-readable benchmark JSON
// that seeds the BENCH_*.json perf trajectory. Each table states the paper
// claim it checks and the measured values; EXPERIMENTS.md records a full
// run.
//
// Usage:
//
//	kpbench                 # run every experiment, quick sweeps
//	kpbench -full           # full sweeps (minutes)
//	kpbench -run E4,E10     # selected experiments
//	kpbench -md             # emit Markdown (for EXPERIMENTS.md)
//	kpbench -json -n 64,128 # per-phase op counts/timings as JSON
//	kpbench -rhs 8 -n 256   # batched multi-RHS rows (implies -json)
//	kpbench -ring zz        # exact ℤ rows: residues, CRT, parallel efficiency (implies -json)
//	kpbench -structured     # Toeplitz workload: Theorem 4 vs Gohberg–Semencul rows
//	kpbench -pprof :6060    # serve net/http/pprof + /debug/vars
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/exp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		run      = flag.String("run", "all", "comma-separated experiment ids (E1..E14, E3a, E4a, E4m, E10w) or 'all'")
		full     = flag.Bool("full", false, "full parameter sweeps (slower)")
		seed     = flag.Uint64("seed", 20260704, "random seed (runs are deterministic per seed)")
		md       = flag.Bool("md", false, "emit Markdown tables")
		mul      = flag.String("mul", "all", "multipliers: 'all' or a comma-separated subset of "+strings.Join(matrix.Names(), ","))
		jsonF    = flag.Bool("json", false, "run the per-phase solve benchmark and emit a BENCH JSON report instead of experiment tables")
		nFlag    = flag.String("n", "64,128,256", "comma-separated system dimensions for -json")
		rhs      = flag.Int("rhs", 1, "right-hand sides per system: >1 adds batched SolveBatch rows (with their independent-solves baseline) to the -json report, and implies -json")
		structd  = flag.Bool("structured", false, "add the Toeplitz workload to the -json report (Theorem 4 and Gohberg–Semencul rows at -structured-n), and implies -json")
		ringF    = flag.String("ring", "fp", "fp, or zz to add exact integer RNS/CRT rows (residue count, per-residue wall, CRT/reconstruct time, parallel efficiency) to the -json report at the -n dimensions; implies -json")
		structN  = flag.String("structured-n", "256,1024", "comma-separated Toeplitz dimensions for -structured")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and the obs metrics registry (/debug/vars) on this address, e.g. :6060")
		serve    = flag.String("serve", "", "serve telemetry (/metrics Prometheus text, /snapshot JSON, /healthz) on this address for live scraping while the benchmarks run, e.g. :9090")
		workers  = flag.Int("workers", 0, "worker count for the shared matrix pool (0 = GOMAXPROCS)")
		baseline = flag.String("baseline", "", "BENCH_*.json file to gate -json runs against: exit non-zero if any shared (n, multiplier) cell is >10% slower")
	)
	flag.Parse()

	if *workers > 0 {
		if err := matrix.SetPoolWorkers(*workers); err != nil {
			fatal(err)
		}
	}
	if procs := runtime.GOMAXPROCS(0); procs < matrix.PoolWorkers() {
		fmt.Fprintf(os.Stderr, "kpbench: warning: GOMAXPROCS (%d) < pool workers (%d); workers will contend for cores and parallel timings will under-report speedup\n",
			procs, matrix.PoolWorkers())
	}

	// Unknown -mul names are an error in every mode: silently defaulting
	// would relabel a benchmark of the wrong kernel.
	muls, err := matrix.ParseMulFlag(*mul)
	if err != nil {
		fatal(err)
	}

	if *pprof != "" {
		obs.PublishExpvar()
		go func() {
			if err := http.ListenAndServe(*pprof, nil); err != nil {
				log.Printf("kpbench: pprof listener: %v", err)
			}
		}()
	}
	// Telemetry stays live for the whole run: benchmark sweeps take long
	// enough that a collector can scrape phase histograms and attempt
	// counters while they accumulate. SIGINT/SIGTERM or normal completion
	// drains in-flight scrapes via http.Server.Shutdown instead of cutting
	// a /metrics body short; a second signal force-kills a wedged drain.
	if *serve != "" {
		ln, err := net.Listen("tcp", *serve)
		if err != nil {
			fatal(fmt.Errorf("-serve %s: %w", *serve, err))
		}
		// The closed-loop surfaces ride along on a serving benchmark run:
		// bad-prime storms in the ring sweeps fire triggered captures, and
		// the timeline lets a collector read rates instead of raw totals.
		obs.SetProfileStore(obs.NewProfileStore(obs.ProfileStoreConfig{}))
		tl := obs.NewTimeline(obs.TimelineConfig{Interval: time.Second})
		obs.SetTimeline(tl)
		tl.Start()
		fmt.Fprintf(os.Stderr, "kpbench: telemetry on http://%s (/metrics /snapshot /debug/profiles /debug/timeline /healthz)\n", ln.Addr())
		ctx, stop := server.SignalContext(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- server.ServeUntil(ctx, ln, obs.Handler(), 2*time.Second)
		}()
		defer func() {
			stop() // cancels ctx; ServeUntil shuts the listener down cleanly
			if err := <-done; err != nil {
				log.Printf("kpbench: telemetry listener: %v", err)
			}
		}()
	}

	if *rhs < 1 {
		fatal(fmt.Errorf("-rhs wants a positive count, got %d", *rhs))
	}
	if *ringF != "fp" && *ringF != "zz" {
		fatal(fmt.Errorf("-ring wants fp or zz, got %q (qq instances clear denominators into zz ones; bench the zz rows)", *ringF))
	}
	if *jsonF || *rhs > 1 || *structd || *ringF != "fp" {
		if *mul == "all" {
			// The JSON trajectory tracks the serial baseline against the
			// pooled kernels; blocked/strassen ride in via -mul.
			muls = []string{"classical", "parallel", "parallel-strassen"}
		}
		ns, err := parseDims(*nFlag)
		if err != nil {
			fatal(err)
		}
		report, err := exp.BenchJSON(ns, muls, *seed, *rhs)
		if err != nil {
			fatal(err)
		}
		if *structd {
			sns, err := parseDims(*structN)
			if err != nil {
				fatal(err)
			}
			runs, err := exp.BenchStructured(sns, *seed)
			if err != nil {
				fatal(err)
			}
			report.Runs = append(report.Runs, runs...)
		}
		if *ringF == "zz" {
			// Ring rows bench the whole multi-modulus engine; the inner
			// per-residue multiplier is one knob, so default to the serial
			// baseline unless -mul narrows the set explicitly.
			ringMuls := muls
			if *mul == "all" {
				ringMuls = []string{"classical"}
			}
			runs, err := exp.BenchRing(ns, ringMuls, *seed)
			if err != nil {
				fatal(err)
			}
			report.Runs = append(report.Runs, runs...)
		}
		if err := report.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		if *baseline != "" {
			base, err := exp.ReadBenchReport(*baseline)
			if err != nil {
				fatal(err)
			}
			if regressions := exp.CompareBaseline(report, base, 0.10); len(regressions) > 0 {
				for _, r := range regressions {
					fmt.Fprintf(os.Stderr, "kpbench: regression vs %s: %s\n", *baseline, r)
				}
				os.Exit(1)
			}
			fmt.Fprintf(os.Stderr, "kpbench: no regressions vs %s\n", *baseline)
		}
		return
	}

	// Header: make benchmark output self-describing — which kernels, which
	// field, how wide the pool is.
	fmt.Printf("kpbench: field F_%d, multipliers %s, pool %d workers (GOMAXPROCS %d), seed %d\n\n",
		exp.FieldModulus(), strings.Join(muls, ","), matrix.PoolWorkers(), runtime.GOMAXPROCS(0), *seed)
	if *mul != "all" {
		if err := exp.SetMultipliers(muls); err != nil {
			fatal(err)
		}
	}

	var selected []exp.Experiment
	if *run == "all" {
		selected = exp.All()
	} else {
		for _, id := range strings.Split(*run, ",") {
			e := exp.ByID(strings.TrimSpace(id))
			if e == nil {
				fatal(fmt.Errorf("unknown experiment %q", id))
			}
			selected = append(selected, *e)
		}
	}

	for _, e := range selected {
		tab, err := e.Run(*seed, !*full)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *md {
			fmt.Println(tab.Markdown())
		} else {
			fmt.Println(tab.String())
		}
	}
}

// parseDims parses the -json dimension list.
func parseDims(spec string) ([]int, error) {
	var ns []int
	for _, raw := range strings.Split(spec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(raw))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("invalid dimension %q in -n", raw)
		}
		ns = append(ns, n)
	}
	return ns, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "kpbench: %v\n", err)
	os.Exit(2)
}
