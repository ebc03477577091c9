package exp

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// kpbench -json: the machine-readable benchmark that seeds the BENCH_*.json
// perf trajectory. One run = one Theorem 4 solve of a random n×n system
// under one multiplier, traced through an obs.Observer so the report splits
// wall time and classical-equivalent field operations across the KP91
// phases (precondition, krylov, minpoly, backsolve).

// BenchSchema identifies the report layout for downstream tooling.
const BenchSchema = "kpbench/v1"

// FieldModulus returns the modulus of the word prime field the experiments
// and benchmarks run over (for self-describing benchmark headers).
func FieldModulus() uint64 { return fpCirc.Modulus() }

// BenchPhase is the per-phase slice of one run.
type BenchPhase struct {
	WallNs   int64  `json:"wall_ns"`
	FieldOps uint64 `json:"field_ops"`
	MulCalls uint64 `json:"mul_calls"`
	Spans    int    `json:"spans"`
	// ApplyNs / ApplyCalls are the black-box apply time and count inside
	// the phase — the Las Vegas route's analogue of mul_calls (a one-shot
	// solve makes no dense product, only matrix-vector applies).
	ApplyNs    int64  `json:"apply_ns,omitempty"`
	ApplyCalls uint64 `json:"apply_calls,omitempty"`
	// Steps is the phase's algorithm-level work count (Span.AddSteps): Ã's
	// row products in precondition, BM iterations in minpoly.
	Steps uint64 `json:"steps,omitempty"`
}

// BenchRun is one (n, multiplier, rhs) measurement.
type BenchRun struct {
	Dim        int    `json:"n"`
	Multiplier string `json:"multiplier"`
	// Rhs is the number of right-hand sides; 0 (legacy reports) and 1 both
	// mean a single traced Solve. Rows with Rhs > 1 measure SolveBatch.
	Rhs int `json:"rhs,omitempty"`
	// Precond is "gs" on the Theorem 3 Gohberg–Semencul rows (Toeplitz
	// workload only) and empty on Theorem 4 rows. Legacy reports also carry
	// "dense" (materialized Ã, the same cell as "") and "implicit".
	Precond string `json:"precond,omitempty"`
	// Workload is "" for a dense random system, "toeplitz" for the
	// structured workload (A is a random non-singular Toeplitz matrix).
	Workload string                `json:"workload,omitempty"`
	WallNs   int64                 `json:"wall_ns"`
	Phases   map[string]BenchPhase `json:"phases"`
	// PrecondNs is the wall time of the precondition phase alone: n Hankel
	// row products for a one-shot solve, one dense product for a batch.
	PrecondNs int64 `json:"precond_ns,omitempty"`
	// ApplyNs / ApplyCalls total the black-box apply work across phases.
	ApplyNs    int64  `json:"apply_ns,omitempty"`
	ApplyCalls uint64 `json:"apply_calls,omitempty"`
	// FieldOpsTotal is the matrix.Instrumented total for the run; the sum
	// of the per-phase field_ops must match it (each op is attributed to
	// exactly one span).
	FieldOpsTotal uint64 `json:"field_ops_total"`
	MulCalls      uint64 `json:"mul_calls"`
	// MulWallNs / MulBusyNs are the union / summed durations inside the
	// multiplication black box; busy > wall means the pool overlapped
	// multiplies' inner chunks.
	MulWallNs int64 `json:"mul_wall_ns"`
	MulBusyNs int64 `json:"mul_busy_ns"`
	Verified  bool  `json:"verified"`
	// DroppedSpans counts spans the run's Observer ring evicted before
	// export; non-zero means the per-phase tables under-report span counts
	// (never durations of the spans that survived).
	DroppedSpans int64 `json:"dropped_spans"`
	// ObsOverheadNs is the telemetry cost of this run: the traced,
	// instrumented wall time minus the wall time of the identical workload
	// on an identically seeded solver with the Observer and instrumentation
	// off. Signed — at small n it sits inside scheduler noise and can go
	// negative.
	ObsOverheadNs int64 `json:"obs_overhead_ns"`
	// IndepWallNs (Rhs > 1 rows only) is the wall time of solving the same
	// Rhs right-hand sides as independent Solve calls, and BatchSpeedup is
	// IndepWallNs / WallNs — the amortization factor of the batch engine.
	IndepWallNs  int64   `json:"indep_wall_ns,omitempty"`
	BatchSpeedup float64 `json:"batch_speedup,omitempty"`
	// Ring is "" for field rows and "zz" for exact integer rows (BenchRing);
	// the fields below are ring rows only. Residues counts the residue
	// fields CRT'd together, ResidueWallNs/ResidueSumNs split the concurrent
	// residue phase into wall vs serialized time (their ratio is
	// ParallelEfficiency), CRTNs is Chinese remaindering plus rational
	// reconstruction, and RNSVerifyNs the a-posteriori exact check over ℤ.
	Ring               string  `json:"ring,omitempty"`
	Residues           int     `json:"residues,omitempty"`
	BadPrimes          int     `json:"bad_primes,omitempty"`
	ResidueWallNs      int64   `json:"residue_wall_ns,omitempty"`
	ResidueSumNs       int64   `json:"residue_sum_ns,omitempty"`
	CRTNs              int64   `json:"crt_ns,omitempty"`
	RNSVerifyNs        int64   `json:"rns_verify_ns,omitempty"`
	ParallelEfficiency float64 `json:"parallel_efficiency,omitempty"`
}

// BenchReport is the kpbench -json document.
type BenchReport struct {
	Schema       string           `json:"schema"`
	GoVersion    string           `json:"go_version"`
	NumCPU       int              `json:"num_cpu"`
	GOMAXPROCS   int              `json:"gomaxprocs"`
	PoolWorkers  int              `json:"pool_workers"`
	FieldModulus uint64           `json:"field_modulus"`
	Seed         uint64           `json:"seed"`
	Runs         []BenchRun       `json:"runs"`
	Metrics      map[string]int64 `json:"metrics"`
	// Direct measurements of the closed-loop telemetry hot paths, taken
	// once per report. The per-run obs_overhead_ns delta sits inside
	// scheduler noise at small n, so the perf gate checks these instead:
	// ObsTimelineSampleNs is the cost of one full timeline sample (every
	// counter, histogram and attempt group walked), amortized over a burst —
	// against kpd's 10s sampling interval it must stay far under 1%.
	// ObsExemplarObserveNs is one ObserveExemplar call (two atomic adds and
	// a pointer swap) on the request-latency hot path.
	ObsTimelineSampleNs  int64 `json:"obs_timeline_sample_ns"`
	ObsExemplarObserveNs int64 `json:"obs_exemplar_observe_ns"`
}

// BenchJSON runs one traced Theorem 4 solve per (n, multiplier) pair — plus,
// for rhs > 1, one traced SolveBatch over rhs right-hand sides together with
// its independent-solves baseline — and returns the per-phase report. Each
// run gets a fresh Observer (installed as the active one for its duration),
// so phase totals are per-run; the final metrics snapshot is cumulative over
// the process.
func BenchJSON(ns []int, muls []string, seed uint64, rhs int) (*BenchReport, error) {
	f := fpCirc
	report := &BenchReport{
		Schema:       BenchSchema,
		GoVersion:    runtime.Version(),
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		PoolWorkers:  matrix.PoolWorkers(),
		FieldModulus: f.Modulus(),
		Seed:         seed,
	}
	prev := obs.Active()
	defer obs.SetActive(prev)
	for _, n := range ns {
		src := ff.NewSource(seed + uint64(n))
		a := matrix.Random[uint64](f, src, n, n, f.Modulus())
		b := ff.SampleVec[uint64](f, src, n, f.Modulus())
		var bs *matrix.Dense[uint64]
		if rhs > 1 {
			bs = matrix.Random[uint64](f, src, n, rhs, f.Modulus())
		}
		for _, name := range muls {
			if _, err := matrix.ByName[uint64](name); err != nil {
				return nil, err
			}
			opts := core.Options{Seed: seed, Multiplier: name, Instrument: true}

			run, err := benchOne(f, opts, a, n, name, prev, func(s *core.Solver[uint64]) (func() bool, error) {
				x, err := s.Solve(a, b)
				if err != nil {
					return nil, err
				}
				return func() bool { return ff.VecEqual[uint64](f, a.MulVec(f, x), b) }, nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench n=%d mul=%s: %w", n, name, err)
			}
			report.Runs = append(report.Runs, *run)

			if rhs <= 1 {
				continue
			}
			batch, err := benchOne(f, opts, a, n, name, prev, func(s *core.Solver[uint64]) (func() bool, error) {
				x, err := s.SolveBatch(a, bs)
				if err != nil {
					return nil, err
				}
				return func() bool {
					mul, _ := matrix.ByName[uint64](name)
					return mul.Mul(f, a, x).Equal(f, bs)
				}, nil
			})
			if err != nil {
				return nil, fmt.Errorf("bench n=%d mul=%s rhs=%d: %w", n, name, rhs, err)
			}
			batch.Rhs = rhs
			// Amortization baseline: the same right-hand sides as rhs
			// independent solves on an identically seeded solver (untraced —
			// span overhead is noise at these sizes).
			indep, err := core.NewSolver[uint64](f, core.Options{Seed: seed, Multiplier: name})
			if err != nil {
				return nil, err
			}
			start := time.Now()
			for j := 0; j < rhs; j++ {
				if _, err := indep.Solve(a, bs.Col(j)); err != nil {
					return nil, fmt.Errorf("bench n=%d mul=%s rhs=%d (independent solve %d): %w", n, name, rhs, j, err)
				}
			}
			batch.IndepWallNs = time.Since(start).Nanoseconds()
			if batch.WallNs > 0 {
				batch.BatchSpeedup = float64(batch.IndepWallNs) / float64(batch.WallNs)
			}
			report.Runs = append(report.Runs, *batch)
		}

	}
	report.ObsTimelineSampleNs, report.ObsExemplarObserveNs = measureObsCosts()
	report.Metrics = obs.MetricsSnapshot()
	return report, nil
}

// measureObsCosts times the two closed-loop telemetry hot paths directly:
// a full timeline sample over the registry as populated by the benchmark
// runs (a realistic series count), and a single exemplar-tagged histogram
// observation. Direct timing is what makes the <1% observability-overhead
// claim checkable in CI — the run-level obs_overhead_ns subtraction is too
// noisy to gate on.
func measureObsCosts() (sampleNs, exemplarNs int64) {
	tl := obs.NewTimeline(obs.TimelineConfig{Capacity: 8, Interval: time.Hour})
	const samples = 16
	start := time.Now()
	for i := 0; i < samples; i++ {
		tl.SampleNow()
	}
	sampleNs = time.Since(start).Nanoseconds() / samples

	h := obs.NewLabeledHistogram("bench.obs.exemplar.ns", "probe", "observe")
	const iters = 1 << 16
	start = time.Now()
	for i := 0; i < iters; i++ {
		h.ObserveExemplar(int64(i), "cafefeedcafefeedcafefeedcafefeed")
	}
	exemplarNs = time.Since(start).Nanoseconds() / iters
	return sampleNs, exemplarNs
}

// BenchStructured runs the Toeplitz workload: for each n, a random
// non-singular Toeplitz system solved two ways — the Theorem 4 driver on
// the materialized matrix, and the Theorem 3 Gohberg–Semencul fast path
// that never materializes anything dense. The GS row has no phase table
// (the structured backend is not span-instrumented); its wall_ns against
// the Theorem 4 row's is the headline structured speedup.
func BenchStructured(ns []int, seed uint64) ([]BenchRun, error) {
	f := fpCirc
	prev := obs.Active()
	defer obs.SetActive(prev)
	var runs []BenchRun
	for _, n := range ns {
		src := ff.NewSource(seed + 7*uint64(n))
		var entries []uint64
		var tm structured.Toeplitz[uint64]
		var a *matrix.Dense[uint64]
		// Redraw until the Toeplitz matrix is usable by all three backends
		// (GS needs a non-singular T with charpoly constant term ≠ 0; a
		// random draw fails with probability ≈ n/p ≈ 0).
		for {
			tm = structured.RandomToeplitz[uint64](f, src, n, f.Modulus())
			entries = tm.D
			a = tm.Dense(f)
			if _, err := structured.NewGSSolver(f, tm); err == nil {
				break
			}
		}
		b := ff.SampleVec[uint64](f, src, n, f.Modulus())

		opts := core.Options{Seed: seed, Multiplier: "classical", Instrument: true}
		run, err := benchOne(f, opts, a, n, "classical", prev, func(s *core.Solver[uint64]) (func() bool, error) {
			x, err := s.Solve(a, b)
			if err != nil {
				return nil, err
			}
			return func() bool { return ff.VecEqual[uint64](f, a.MulVec(f, x), b) }, nil
		})
		if err != nil {
			return nil, fmt.Errorf("structured bench n=%d: %w", n, err)
		}
		run.Workload = "toeplitz"
		runs = append(runs, *run)

		// Theorem 3 fast path: Newton + Gohberg–Semencul on the 2n−1
		// defining entries, one structured solve, no dense object anywhere.
		gsSolver, err := core.NewSolver[uint64](f, core.Options{Seed: seed, Multiplier: "classical"})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		x, err := gsSolver.SolveToeplitzGS(entries, b)
		wall := time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("structured bench n=%d gs: %w", n, err)
		}
		runs = append(runs, BenchRun{
			Dim:        n,
			Multiplier: "classical",
			Precond:    "gs",
			Workload:   "toeplitz",
			WallNs:     wall.Nanoseconds(),
			Verified:   ff.VecEqual[uint64](f, tm.MulVec(f, x), b),
		})
	}
	return runs, nil
}

// benchOne times one traced, instrumented solver call and folds the
// observer's phase totals into a BenchRun.
func benchOne(f ff.Fp64, opts core.Options, a *matrix.Dense[uint64], n int, name string, prev *obs.Observer, run func(*core.Solver[uint64]) (func() bool, error)) (*BenchRun, error) {
	o := obs.New(0)
	opts.Observer = o
	s, err := core.NewSolver[uint64](f, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	verify, err := run(s)
	wall := time.Since(start)
	obs.SetActive(prev)
	if err != nil {
		return nil, err
	}
	// Enabled-vs-disabled delta: replay the identical workload on an
	// identically seeded solver with no Observer and no instrumentation
	// (the nil-span fast path), so obs_overhead_ns prices the telemetry
	// layer itself rather than run-to-run variance of different inputs.
	plainOpts := opts
	plainOpts.Observer = nil
	plainOpts.Instrument = false
	plain, err := core.NewSolver[uint64](f, plainOpts)
	if err != nil {
		return nil, err
	}
	plainStart := time.Now()
	if _, err := run(plain); err != nil {
		return nil, err
	}
	plainWall := time.Since(plainStart)
	snap := s.MulStats().Snapshot()
	phases := make(map[string]BenchPhase)
	var precondNs, applyNs int64
	var applyCalls uint64
	for phase, t := range o.PhaseTotals() {
		phases[phase] = BenchPhase{
			WallNs:     t.Wall.Nanoseconds(),
			FieldOps:   t.FieldOps,
			MulCalls:   t.MulCalls,
			Spans:      t.Count,
			ApplyNs:    t.ApplyTime.Nanoseconds(),
			ApplyCalls: t.ApplyCalls,
			Steps:      t.Steps,
		}
		if phase == obs.PhasePrecondition || phase == obs.PhaseBatchPrecondition {
			precondNs += t.Wall.Nanoseconds()
		}
		applyNs += t.ApplyTime.Nanoseconds()
		applyCalls += t.ApplyCalls
	}
	return &BenchRun{
		Dim:           n,
		Multiplier:    name,
		WallNs:        wall.Nanoseconds(),
		Phases:        phases,
		PrecondNs:     precondNs,
		ApplyNs:       applyNs,
		ApplyCalls:    applyCalls,
		FieldOpsTotal: snap.FieldOps,
		MulCalls:      snap.Calls,
		MulWallNs:     snap.Wall.Nanoseconds(),
		MulBusyNs:     snap.Busy.Nanoseconds(),
		Verified:      verify(),
		DroppedSpans:  o.Dropped(),
		ObsOverheadNs: wall.Nanoseconds() - plainWall.Nanoseconds(),
	}, nil
}

// WriteJSON writes the report, indented for diff-friendly BENCH_*.json
// files.
func (r *BenchReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
