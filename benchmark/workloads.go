package main

import (
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// Workload sizes. fp-solve, a closed loop with one caller, puts the time
// in the Theorem 4 phases on an NTT-friendly prime.
const (
	fpN     = 256
	fpWarmN = 64
	// closedSetups is how many times an untraced closed-loop run sets up:
	// each set-up takes well under a second.
	closedSetups = 9
)

// closedLimit is the latency limit goodput_ratio counts against on the
// closed-loop workloads: several times the slowest op at the seed commit,
// so there goodput_ratio is the share of ops answered correctly.
const closedLimit = 10 * time.Second

// opFunc runs one op: it draws its inputs, times only the call into the
// program, and checks the answer.
type opFunc func() (lat time.Duration, ok bool, err error)

// closedLoop runs ops back to back from one caller until d has passed,
// cycling through the variants; each variant accounts into its own
// segment, and each runs at least once. With a heap sampler, each op's
// heap peak is noted.
func closedLoop(d time.Duration, hs *heapSampler, variants ...opFunc) []segment {
	segs := make([]segment, len(variants))
	start := time.Now()
	for i := 0; i < len(variants) || time.Since(start) < d; i++ {
		v := i % len(variants)
		if hs != nil {
			hs.take()
		}
		lat, ok, err := variants[v]()
		segs[v].busy += lat
		segs[v].record(lat, ok, err, closedLimit)
		if hs != nil {
			segs[v].opPeaks = append(segs[v].opPeaks, hs.take())
		}
	}
	return segs
}

// runClosed is the shape of a closed-loop workload: the untraced run
// measures the plain op for the whole duration; the traced run alternates
// plain and traced ops, installing o around the traced ones, and leaves
// the per-layer values to layers.
func runClosed(cfg Config, tr *tracer, setups []time.Duration, plain, traced func(tr *tracer, o *obs.Observer) opFunc, layers func(vals map[string]float64, traced segment)) (*outcome, error) {
	if !cfg.Trace {
		s := measure(func(hs *heapSampler) segment { return closedLoop(cfg.Duration, hs, plain(nil, nil))[0] })
		return &outcome{attempted: s.attempted, failed: s.failed, wrong: s.wrong, values: endToEndValues(setups, s, true)}, nil
	}
	o := tr.newObserver()
	segs := closedLoop(cfg.Duration, nil, plain(nil, nil), traced(tr, o))
	vals := newLayerValues()
	layers(vals, segs[1])
	return finishTrace(cfg, tr, o, vals, segs[0], segs[1])
}

func runFPSolve(cfg Config, tr *tracer) (*outcome, error) {
	f := ff.MustFp64(ff.PNTT62)
	gen := ff.NewSource(cfg.Seed)
	warmA := matrix.Random[uint64](f, gen, fpWarmN, fpWarmN, f.Modulus())
	warmB := ff.SampleVec[uint64](f, gen, fpWarmN, f.Modulus())

	// Set-up builds the solver with default options and runs one small
	// solve, which fills the process-wide tables and the worker pool.
	var s *core.Solver[uint64]
	setups, err := setupTimes(cfg, closedSetups, func() error {
		var err error
		if s, err = core.NewSolver[uint64](f, core.Options{Seed: cfg.Seed}); err != nil {
			return err
		}
		x, err := s.Solve(warmA, warmB)
		if err == nil && !fpCorrect(f, warmA, x, warmB) {
			err = errors.New("warm-up solve returned a wrong answer")
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// The traced ops run on a solver that also counts its multiplies.
	st, err := core.NewSolver[uint64](f, core.Options{Seed: cfg.Seed, Instrument: true})
	if err != nil {
		return nil, err
	}
	var attempts int64
	op := func(s *core.Solver[uint64]) func(tr *tracer, o *obs.Observer) opFunc {
		return func(tr *tracer, o *obs.Observer) opFunc {
			return func() (time.Duration, bool, error) {
				a := matrix.Random[uint64](f, gen, fpN, fpN, f.Modulus())
				b := ff.SampleVec[uint64](f, gen, fpN, f.Modulus())
				// The op id tags only the benchmark's spans: no trace scope
				// goes into the solve, because matrix.Instrumented folds its
				// multiply counts into the observer's unscoped innermost
				// span only.
				id := obs.NewTraceContext().Trace.String()
				defer tr.span(id, "op", "")()
				obs.SetActive(o)
				att0 := obs.AttemptsTotal()
				end := tr.span(id, "core.Solver.Solve", "op")
				t0 := time.Now()
				x, err := s.Solve(a, b)
				lat := time.Since(t0)
				end()
				if o != nil {
					attempts += obs.AttemptsTotal() - att0
				}
				obs.SetActive(nil)
				if err != nil {
					return lat, false, err
				}
				end = tr.span(id, "verify", "op")
				defer end()
				return lat, fpCorrect(f, a, x, b), nil
			}
		}
	}
	return runClosed(cfg, tr, setups, op(s), op(st), func(vals map[string]float64, seg segment) {
		ops := float64(seg.attempted)
		snap := st.MulStats().Snapshot()
		vals["matrix.mul_calls"] = float64(snap.Calls) / ops
		vals["matrix.mul_busy_ms"] = ms(snap.Busy) / ops
		vals["kp.attempts_per_solve"] = float64(attempts) / float64(max(len(seg.lat), 1))
	})
}

// fpCorrect is the independent check of an F_p answer: A·x = b.
func fpCorrect(f ff.Fp64, a *matrix.Dense[uint64], x, b []uint64) bool {
	return len(x) == a.Cols && ff.VecEqual[uint64](f, a.MulVec(f, x), b)
}

// finishTrace completes a traced run: the workload-independent values, the
// layer cells, the dropped-span check and the trace file.
func finishTrace(cfg Config, tr *tracer, o *obs.Observer, vals map[string]float64, untraced, traced segment) (*outcome, error) {
	obs.SetActive(nil)
	addPhaseValues(vals, o.PhaseTotals(), float64(traced.attempted))
	attempted := untraced.attempted + traced.attempted
	failed := untraced.failed + traced.failed
	vals["error_ratio"] = float64(failed) / float64(attempted)
	vals["latency_samples"] = float64(len(untraced.lat))
	if p := quantile(untraced.lat, 0.5); p > 0 {
		vals["obs.trace_overhead_ratio"] = float64(quantile(traced.lat, 0.5)) / float64(p)
	}
	if err := layerCells(cfg.Seed, vals, tr); err != nil {
		return nil, err
	}
	vals["obs.dropped_spans"] = float64(o.Dropped())
	if err := tr.write(cfg.TraceDir, cfg, o); err != nil {
		return nil, err
	}
	return &outcome{attempted: attempted, failed: failed, wrong: untraced.wrong + traced.wrong, values: vals}, nil
}

// addPhaseValues turns the program's phase totals into per-op values. The
// single-solve phases (precondition, …) and their batch-engine twins
// (batch/precondition, …) are the same Theorem 4 step, so they add up.
func addPhaseValues(vals map[string]float64, totals map[string]obs.PhaseTotal, ops float64) {
	if ops == 0 {
		return
	}
	phase := func(name string) obs.PhaseTotal {
		a, b := totals[name], totals["batch/"+name]
		return obs.PhaseTotal{Wall: a.Wall + b.Wall, MulCalls: a.MulCalls + b.MulCalls}
	}
	for _, name := range []string{obs.PhasePrecondition, obs.PhaseKrylov, obs.PhaseMinPoly, obs.PhaseBacksolve} {
		vals["kp."+name+".busy_ms"] = ms(phase(name).Wall) / ops
	}
	vals["kp.krylov.mul_calls"] = float64(phase(obs.PhaseKrylov).MulCalls) / ops
	vals["kp.backsolve.mul_calls"] = float64(phase(obs.PhaseBacksolve).MulCalls) / ops
	var apply uint64
	for _, t := range totals {
		apply += t.ApplyCalls
	}
	vals["kp.apply_calls"] = float64(apply) / ops
}
