package kp

import (
	"context"
	"fmt"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/seq"
	"repro/internal/structured"
)

// The concrete-field Las Vegas pipeline behind Solve, Factor and
// SolveBatch. Those drivers verify with Field.Equal, so they never trace;
// on a concrete field they run Theorem 4 with the sequential choices the
// paper itself names instead of its O((log n)²)-depth circuit:
//
//   - Ã = A·H·D is formed once and applied as a dense box, so every apply
//     is one n² mat-vec on the fused dot kernel. Solve forms it from n
//     Hankel row products (O(n² log n) on an NTT field, no multiplier
//     call); Factor and SolveBatch form it with one multiplier product;
//   - the sequence a_i = u·Ãⁱ·v, i < 2n, costs 2n−1 applies;
//   - its minimum polynomial comes from Berlekamp–Massey (seq.MinPoly) in
//     O(n²), where the circuit route solves the Lemma 1 Toeplitz system
//     through the Theorem 3 Newton iteration;
//   - the Cayley–Hamilton backsolve costs n−1 more applies.
//
// The answers are those of the branch-free SolveOnce on the same
// randomness: a generator of degree n is the unique solution of Lemma 1's
// system, and one of degree < n is exactly its singular T_n, reported as
// the same minpoly division failure — so the retry walk and the eq (2)
// attempt statistics are unchanged. Params.Ctx is checked before every
// apply and every chunk of Solve's formation rows, so a cancelled request
// stops within one apply or one chunk.

// apply returns Ã·v, booking its wall time and one call on sp, the phase
// span the caller holds (so under a kpd request scope they reach the
// request's own span), as the apply_ns/apply_calls span fields and
// kpbench's apply_ns column.
func apply[E any](sp *obs.Span, f ff.Field[E], atilde matrix.BlackBox[E], v []E) []E {
	if sp == nil {
		return atilde.Apply(f, v)
	}
	start := time.Now()
	out := atilde.Apply(f, v)
	sp.AddApplyTime(time.Since(start), 1)
	return out
}

// charPolyBox returns the characteristic polynomial of the black-box Ã,
// low degree first: the Krylov phase projects a_i = u·Ãⁱ·v for i < 2n, and
// the minpoly phase runs Berlekamp–Massey on them. A generator of degree
// < n fails with ff.ErrDivisionByZero in the minpoly phase.
func charPolyBox[E any](ctx context.Context, f ff.Field[E], atilde matrix.BlackBox[E], rnd Randomness[E], krylovPhase, minpolyPhase string) ([]E, error) {
	n, _ := atilde.Dims()
	sp := obs.StartPhaseCtx(ctx, krylovPhase)
	defer sp.End()
	a := make([]E, 2*n)
	v := rnd.V
	for i := range a {
		if i > 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			v = apply(sp, f, atilde, v)
		}
		a[i] = ff.DotFused(f, rnd.U, v)
	}
	sp.End()
	sp = obs.StartPhaseCtx(ctx, minpolyPhase)
	defer sp.End()
	cp, err := seq.MinPoly(f, a)
	if err == nil {
		// One Berlekamp–Massey iteration per sequence term.
		sp.AddSteps(uint64(len(a)))
	}
	if err == nil && len(cp) != n+1 {
		err = fmt.Errorf("kp: sequence generator of degree %d < %d (singular T_n of Lemma 1): %w", len(cp)-1, n, ff.ErrDivisionByZero)
	}
	if err != nil {
		return nil, inPhase(minpolyPhase, err)
	}
	return cp, nil
}

// chBacksolve returns x = H·(D·x̃) for the Cayley–Hamilton solution
// x̃ = scale·Σ_{j<n} c_{j+1}·Ãʲ·b of Ã·x̃ = b, where scale = −1/c₀, with
// n−1 applies booked on sp.
func chBacksolve[E any](ctx context.Context, sp *obs.Span, f ff.Field[E], atilde matrix.BlackBox[E], h structured.Hankel[E], d, cp []E, scale E, b []E) ([]E, error) {
	n := len(b)
	acc := ff.VecZero(f, n)
	v := b
	for j := 0; j < n; j++ {
		if j > 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, err
			}
			v = apply(sp, f, atilde, v)
		}
		ff.VecMulAddInto(f, acc, cp[j+1], v)
	}
	ff.VecScaleInto(f, acc, scale, acc)
	return undoPrecondition(f, h, d, acc), nil
}

// undoPrecondition maps the preconditioned solution x̃ back: x = H·(D·x̃).
func undoPrecondition[E any](f ff.Field[E], h structured.Hankel[E], d []E, xt []E) []E {
	dx := make([]E, len(xt))
	for i := range dx {
		dx[i] = f.Mul(d[i], xt[i])
	}
	return h.MulVec(f, dx)
}

// formAtilde forms Ã = A·H·D without a dense product: H is symmetric, so
// row i of A·H is H·(row i of A), one Hankel product at O(n log n) on an
// NTT field; column j is then scaled by d_j. The rows run in chunks on the
// matrix pool (matrix.FormRows), so a cancelled ctx stops the formation
// within one chunk. The n row products are reported as steps on sp.
func formAtilde[E any](ctx context.Context, f ff.Field[E], a *matrix.Dense[E], h structured.Hankel[E], d []E, sp *obs.Span) (*matrix.Dense[E], error) {
	n := a.Rows
	at, err := matrix.FormRows(ctx, f, n, n, func(i int, row []E) {
		for j, v := range h.MulVec(f, a.Data[i*n:(i+1)*n]) {
			row[j] = f.Mul(v, d[j])
		}
	})
	if err != nil {
		return nil, err
	}
	sp.AddSteps(uint64(n))
	return at, nil
}

// solveAttempt is one Solve attempt: Ã is formed once from Hankel row
// products (formAtilde) and then applied dense, like Factor's, so the
// attempt makes no call to a multiplier.
func solveAttempt[E any](ctx context.Context, f ff.Field[E], a *matrix.Dense[E], b []E, rnd Randomness[E]) ([]E, error) {
	sp := obs.StartPhaseCtx(ctx, obs.PhasePrecondition)
	defer sp.End()
	h := structured.NewHankel(rnd.H)
	at, err := formAtilde(ctx, f, a, h, rnd.D, sp)
	if err != nil {
		return nil, err
	}
	atilde := matrix.DenseBox[E]{M: at}
	sp.End()
	cp, err := charPolyBox(ctx, f, atilde, rnd, obs.PhaseKrylov, obs.PhaseMinPoly)
	if err != nil {
		return nil, err
	}
	sp = obs.StartPhaseCtx(ctx, obs.PhaseBacksolve)
	defer sp.End()
	scale, err := f.Div(f.Neg(f.One()), cp[0])
	if err != nil {
		return nil, inPhase(obs.PhaseBacksolve, err)
	}
	return chBacksolve(ctx, sp, f, atilde, h, rnd.D, cp, scale, b)
}
