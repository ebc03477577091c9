package core

import (
	"errors"
	"math/big"
	"testing"

	"repro/internal/errs"
	"repro/internal/rns"
)

// TestIntSolverSolveAndDet: the façade end to end — exact solve, exact
// det, cache reuse across calls on the same matrix.
func TestIntSolverSolveAndDet(t *testing.T) {
	s, err := NewIntSolver(IntOptions{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	a := rns.IntMatFromInt64([][]int64{
		{4, -2, 1},
		{3, 6, -4},
		{2, 1, 8},
	})
	b := []*big.Int{big.NewInt(12), big.NewInt(-25), big.NewInt(32)}
	x, stats, err := s.SolveInt(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Verified {
		t.Fatal("not verified")
	}
	// Residual check A·x = b over ℚ.
	for i := 0; i < 3; i++ {
		acc := new(big.Rat)
		for j := 0; j < 3; j++ {
			acc.Add(acc, new(big.Rat).Mul(new(big.Rat).SetInt(a.At(i, j)), x.Rat(j)))
		}
		if acc.Cmp(new(big.Rat).SetInt(b[i])) != 0 {
			t.Fatalf("row %d residual: %s ≠ %s", i, acc.RatString(), b[i])
		}
	}
	// det = 4(48+4) + 2(24+8) + 1(3−12) = 208 + 64 − 9 = 263.
	det, dstats, err := s.DetInt(a)
	if err != nil {
		t.Fatal(err)
	}
	if det.Cmp(big.NewInt(263)) != 0 {
		t.Fatalf("det = %s, want 263", det)
	}
	// The det call factors the same matrix mod the same primes as the
	// solve (deterministic sequence) — the engine cache must have hits.
	if dstats.CacheHits == 0 {
		t.Fatalf("det after solve hit no cached factorizations: %+v", dstats)
	}
	if s.Engine().CacheLen() == 0 {
		t.Fatal("engine cache empty")
	}
}

// TestIntSolverSolveRat: rational inputs clear denominators and solve
// exactly.
func TestIntSolverSolveRat(t *testing.T) {
	s := MustNewIntSolver(IntOptions{})
	a := [][]*big.Rat{
		{big.NewRat(1, 3), big.NewRat(2, 1)},
		{big.NewRat(1, 1), big.NewRat(-1, 7)},
	}
	b := []*big.Rat{big.NewRat(7, 3), big.NewRat(6, 7)}
	x, _, err := s.SolveRat(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		acc := new(big.Rat)
		for j := range a[i] {
			acc.Add(acc, new(big.Rat).Mul(a[i][j], x.Rat(j)))
		}
		if acc.Cmp(b[i]) != 0 {
			t.Fatalf("row %d: A·x = %s, want %s", i, acc.RatString(), b[i].RatString())
		}
	}
}

// TestIntSolverRank and singular det through the façade.
func TestIntSolverRankAndSingular(t *testing.T) {
	s := MustNewIntSolver(IntOptions{Retries: 2})
	a := rns.IntMatFromInt64([][]int64{
		{1, 2},
		{2, 4},
	})
	r, _, err := s.RankInt(a)
	if err != nil {
		t.Fatal(err)
	}
	if r != 1 {
		t.Fatalf("rank = %d, want 1", r)
	}
	det, _, err := s.DetInt(a)
	if err != nil {
		t.Fatal(err)
	}
	if det.Sign() != 0 {
		t.Fatalf("det = %s, want 0", det)
	}
	if _, _, err := s.SolveInt(a, []*big.Int{big.NewInt(1), big.NewInt(1)}); !errors.Is(err, errs.ErrSingular) {
		t.Fatalf("singular solve err = %v, want ErrSingular", err)
	}
}

// TestNewIntSolverValidation: bad names fail construction, matching the
// NewSolver contract.
func TestNewIntSolverValidation(t *testing.T) {
	if _, err := NewIntSolver(IntOptions{Multiplier: "nope"}); err == nil {
		t.Fatal("unknown multiplier accepted")
	}
	if _, err := NewIntSolver(IntOptions{RNS: rns.Params{Verify: "nope"}}); err == nil {
		t.Fatal("unknown verify mode accepted")
	}
}
