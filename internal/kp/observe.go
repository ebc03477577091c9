package kp

import (
	"context"
	"errors"
	"log/slog"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// isDivisionError reports the retryable unlucky-randomness failures: a
// division by zero mid-pipeline or a singular-system error from the
// structured substrate.
func isDivisionError(err error) bool {
	return errors.Is(err, ff.ErrDivisionByZero) || errors.Is(err, matrix.ErrSingular)
}

// isCancel reports a context cancellation or deadline, which ends a driver
// call instead of counting as a failed attempt.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Telemetry plumbing for the Las Vegas drivers: every randomized attempt is
// recorded into obs' attempt statistics (feeding obs.BoundsReport, which
// compares observed failure rates against equation (2), Lemma 2 and
// Theorem 2), optionally logged through Params.Logger, and every driver
// call leaves one flight-recorder entry for post-mortems. All of it is
// attempt-granular — the instrumented paths already pay Ω(n^ω) field
// operations per attempt, so a mutex hold and a handful of atomic adds per
// attempt are noise.

// Driver names under which attempts and flight entries are recorded.
const (
	solverSolve  = "kp.solve"
	solverBatch  = "kp.batch"
	solverFactor = "kp.factor"
)

// Retry-count and batch-size distributions (attempts consumed per driver
// call; right-hand sides per SolveBatch call).
var (
	solveAttemptsHist = obs.NewHistogram("solve.attempts")
	batchSizeHist     = obs.NewHistogram("solve.batch.size")
)

// phaseError tags a failure with the KP91 phase it surfaced in, so the
// attempt statistics can split failures by phase. Unwrap preserves
// errors.Is matching on the underlying sentinel (ff.ErrDivisionByZero,
// matrix.ErrSingular, ...).
type phaseError struct {
	phase string
	err   error
}

func (e *phaseError) Error() string { return e.err.Error() }
func (e *phaseError) Unwrap() error { return e.err }

// inPhase wraps a non-nil error with the phase it surfaced in.
func inPhase(phase string, err error) error {
	if err == nil {
		return nil
	}
	return &phaseError{phase: phase, err: err}
}

// failurePhase extracts the tagged phase of an error ("" when untagged).
func failurePhase(err error) string {
	var pe *phaseError
	if errors.As(err, &pe) {
		return pe.phase
	}
	return ""
}

// outcomeOf classifies an attempt error into the obs outcome taxonomy.
func outcomeOf(err error) string {
	switch {
	case err == nil:
		return obs.OutcomeSuccess
	case errors.Is(err, ErrRetriesExhausted):
		return obs.OutcomeVerifyFailed
	case isDivisionError(err):
		return obs.OutcomeDivZero
	default:
		return obs.OutcomeError
	}
}

// attemptRecorder accumulates one driver call's attempt telemetry: per-
// attempt records plus the driver-level flight entry and retry-count
// sample on finish.
type attemptRecorder struct {
	solver  string
	n       int
	rhs     int
	subset  uint64
	logger  *slog.Logger
	started time.Time
	count   int
	tc      obs.TraceContext // owning request identity (zero when untraced)
	scope   *obs.TraceScope  // owning request scope, for attempt accounting
}

// newAttemptRecorder starts the driver-level clock. p must be filled. When
// p.Ctx carries a trace context (kpd requests, traced CLI runs) every
// attempt record, log line and the flight entry are tagged with it, and a
// full TraceScope additionally receives the per-request attempt count the
// tail sampler keys its "unlucky" retention rule on.
func newAttemptRecorder(solver string, n, rhs int, p Params) *attemptRecorder {
	return &attemptRecorder{
		solver: solver, n: n, rhs: rhs, subset: p.Subset,
		logger: p.Logger, started: time.Now(),
		tc:    obs.TraceFromContext(p.Ctx),
		scope: obs.ScopeFromContext(p.Ctx),
	}
}

// attempt records one Las Vegas attempt with the given outcome and failure
// phase (both "" resolve to a success record).
func (r *attemptRecorder) attempt(outcome, phase string, wall time.Duration) {
	if outcome == "" {
		outcome = obs.OutcomeSuccess
	}
	r.count++
	r.scope.NoteAttempt()
	obs.RecordAttempt(obs.Attempt{
		Solver: r.solver, N: r.n, Subset: r.subset,
		Outcome: outcome, Phase: phase, Wall: wall,
	})
	if r.logger != nil {
		attrs := []slog.Attr{
			slog.String("solver", r.solver),
			slog.Int("attempt", r.count),
			slog.Int("n", r.n),
			slog.Uint64("subset", r.subset),
			slog.String("outcome", outcome),
			slog.String("phase", phase),
			slog.Duration("wall", wall),
		}
		if !r.tc.IsZero() {
			attrs = append(attrs, slog.String("trace", r.tc.Trace.String()))
		}
		r.logger.LogAttrs(context.Background(), slog.LevelInfo, "kp.attempt", attrs...)
	}
}

// attemptErr records one failed attempt classified from its error.
func (r *attemptRecorder) attemptErr(err error, wall time.Duration) {
	r.attempt(outcomeOf(err), failurePhase(err), wall)
}

// finish closes the driver call: the retry-count sample, the flight-ring
// entry, and (when logging) one driver-level record. err == nil is a
// successful call.
func (r *attemptRecorder) finish(err error) {
	solveAttemptsHist.Observe(int64(r.count))
	outcome := "ok"
	if err != nil {
		outcome = err.Error()
	}
	obs.RecordFlight(obs.FlightEntry{
		Op: r.solver, N: r.n, Rhs: r.rhs, Subset: r.subset,
		Attempts: r.count, Outcome: outcome, Wall: time.Since(r.started),
		Trace: r.tc.Trace, Span: r.tc.Span,
	})
	if r.logger != nil {
		level := slog.LevelInfo
		if err != nil {
			level = slog.LevelWarn
		}
		attrs := []slog.Attr{
			slog.String("solver", r.solver),
			slog.Int("n", r.n),
			slog.Int("attempts", r.count),
			slog.String("outcome", outcome),
			slog.Duration("wall", time.Since(r.started)),
		}
		if !r.tc.IsZero() {
			attrs = append(attrs, slog.String("trace", r.tc.Trace.String()))
		}
		r.logger.LogAttrs(context.Background(), level, "kp.done", attrs...)
	}
}
