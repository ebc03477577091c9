package core

import (
	"context"
	"fmt"
	"log/slog"
	"math/big"

	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/rns"
)

// IntOptions configures an IntSolver — the ring-aware entry point that
// solves over ℤ and ℚ instead of one fixed finite field.
type IntOptions struct {
	// Seed seeds the deterministic random source for the per-residue Las
	// Vegas attempts; 0 selects the fixed default.
	Seed uint64
	// Retries bounds the Las Vegas attempts per residue field.
	Retries int
	// Multiplier names the matrix-multiplication black box used inside
	// every residue field: one of matrix.Names(); "" selects "classical".
	Multiplier string
	// Logger receives the per-attempt structured records of every residue
	// solve (nil disables logging, as in Options).
	Logger *slog.Logger
	// RNS carries the multi-modulus knobs (prime count/bound overrides,
	// verification, worker cap). The zero value certifies the prime count
	// from the input's Hadamard/Cramer bound and verifies the answer.
	RNS rns.Params
}

// IntSolver is the public façade for exact linear algebra over ℤ and ℚ:
// SolveInt / SolveRat / DetInt / RankInt on integer or rational matrices,
// with results carrying *big.Int / *big.Rat values. It wraps kp.IntEngine,
// so one IntSolver held across calls caches the per-(matrix, prime)
// factorizations; the engine is safe for concurrent use, and unlike
// Solver, IntSolver needs no WithSource dance — each call splits its own
// residue sources internally.
type IntSolver struct {
	eng     *kp.IntEngine
	seed    uint64
	retries int
	rp      rns.Params
	logger  *slog.Logger
}

// NewIntSolver returns an IntSolver, or an error for an unknown
// Multiplier name or invalid RNS knobs.
func NewIntSolver(opts IntOptions) (*IntSolver, error) {
	mul, err := matrix.ByName[uint64](opts.Multiplier)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if _, err := rns.ParseVerifyMode(string(opts.RNS.Verify)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	seed := opts.Seed
	if seed == 0 {
		seed = kp.DefaultSeed
	}
	return &IntSolver{
		eng:     kp.NewIntEngine(mul),
		seed:    seed,
		retries: opts.Retries,
		rp:      opts.RNS,
		logger:  opts.Logger,
	}, nil
}

// MustNewIntSolver is NewIntSolver panicking on configuration errors.
func MustNewIntSolver(opts IntOptions) *IntSolver {
	s, err := NewIntSolver(opts)
	if err != nil {
		panic(err)
	}
	return s
}

// params builds the per-call kp.Params. A fresh source per call (seeded
// deterministically) keeps the solver safe for concurrent callers: the
// engine splits one child source per residue from it.
func (s *IntSolver) params(ctx context.Context) kp.Params {
	return kp.Params{Src: ff.NewSource(s.seed), Retries: s.retries, Ctx: ctx, Logger: s.logger}
}

// Engine exposes the underlying kp.IntEngine (for cache inspection).
func (s *IntSolver) Engine() *kp.IntEngine { return s.eng }

// SolveInt solves the non-singular integer system A·x = b exactly over ℚ.
func (s *IntSolver) SolveInt(a *rns.IntMat, b []*big.Int) (*rns.RatVec, *kp.RingStats, error) {
	return s.SolveIntCtx(context.Background(), a, b)
}

// SolveIntCtx is SolveInt with cooperative cancellation.
func (s *IntSolver) SolveIntCtx(ctx context.Context, a *rns.IntMat, b []*big.Int) (*rns.RatVec, *kp.RingStats, error) {
	return s.eng.Solve(ctx, a, b, s.rp, s.params(ctx))
}

// SolveRat solves the non-singular rational system A·x = b exactly.
func (s *IntSolver) SolveRat(a [][]*big.Rat, b []*big.Rat) (*rns.RatVec, *kp.RingStats, error) {
	return s.SolveRatCtx(context.Background(), a, b)
}

// SolveRatCtx is SolveRat with cooperative cancellation.
func (s *IntSolver) SolveRatCtx(ctx context.Context, a [][]*big.Rat, b []*big.Rat) (*rns.RatVec, *kp.RingStats, error) {
	return s.eng.SolveRat(ctx, a, b, s.rp, s.params(ctx))
}

// DetInt returns det(A) exactly over ℤ (0 for singular A).
func (s *IntSolver) DetInt(a *rns.IntMat) (*big.Int, *kp.RingStats, error) {
	return s.DetIntCtx(context.Background(), a)
}

// DetIntCtx is DetInt with cooperative cancellation.
func (s *IntSolver) DetIntCtx(ctx context.Context, a *rns.IntMat) (*big.Int, *kp.RingStats, error) {
	return s.eng.Det(ctx, a, s.rp, s.params(ctx))
}

// RankInt returns rank(A) over ℚ (Monte Carlo, like the field driver).
func (s *IntSolver) RankInt(a *rns.IntMat) (int, *kp.RingStats, error) {
	return s.RankIntCtx(context.Background(), a)
}

// RankIntCtx is RankInt with cooperative cancellation.
func (s *IntSolver) RankIntCtx(ctx context.Context, a *rns.IntMat) (int, *kp.RingStats, error) {
	return s.eng.Rank(ctx, a, s.rp, s.params(ctx))
}
