package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
)

func nonsingular(t *testing.T, src *ff.Source, n int) *matrix.Dense[uint64] {
	t.Helper()
	for {
		a := matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			return a
		}
	}
}

func TestSolverSolveBatch(t *testing.T) {
	src := ff.NewSource(401)
	n, k := 7, 4
	a := nonsingular(t, src, n)
	bm := matrix.Random[uint64](fp, src, n, k, ff.P31)

	s := newSolver(t)
	x, err := s.SolveBatch(a, bm)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, x).Equal(fp, bm) {
		t.Fatal("SolveBatch: A·X != B")
	}
	// Bit-identical to the per-column path on a fresh, identically seeded
	// solver (the exact solution is unique).
	indep := newSolver(t)
	for j := 0; j < k; j++ {
		want, err := indep.Solve(a, bm.Col(j))
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](fp, x.Col(j), want) {
			t.Fatalf("batch column %d differs from independent Solve", j)
		}
	}
	short := matrix.Random[uint64](fp, src, n-1, k, ff.P31)
	if _, err := s.SolveBatch(a, short); !errors.Is(err, kp.ErrBadShape) {
		t.Fatalf("mismatched B: err = %v", err)
	}
}

// TestFactoredSolveAppliesReachRequestScope replays a factorization under
// a request scope, as a kpd cache hit does: the backsolve's n−1 applies and
// their time land on the request's own batch/backsolve span, not on
// whatever span is innermost on the Observer.
func TestFactoredSolveAppliesReachRequestScope(t *testing.T) {
	o := obs.New(0)
	s, err := NewSolver[uint64](fp, Options{Seed: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetActive(nil)
	src := ff.NewSource(409)
	n := 9
	a := nonsingular(t, src, n)
	h, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	outer := o.StartSpan("outer")
	defer outer.End()
	sc := obs.NewScope(obs.NewTraceContext())
	ctx := obs.ContextWithScope(context.Background(), sc)
	if _, err := h.SolveCtx(ctx, ff.SampleVec[uint64](fp, src, n, ff.P31)); err != nil {
		t.Fatal(err)
	}
	backsolves := 0
	for _, r := range sc.Spans() {
		if r.Name != obs.PhaseBatchBacksolve {
			continue
		}
		backsolves++
		if r.ApplyCalls != uint64(n-1) || r.ApplyNs <= 0 {
			t.Fatalf("request batch/backsolve span: %d applies in %d ns, want n−1 = %d applies and their time", r.ApplyCalls, r.ApplyNs, n-1)
		}
	}
	if backsolves != 1 {
		t.Fatalf("request scope holds %d batch/backsolve spans, want 1", backsolves)
	}
	outer.End()
	if got := o.PhaseTotals()["outer"].ApplyCalls; got != 0 {
		t.Fatalf("%d applies leaked onto the Observer's innermost span", got)
	}
}

// TestSolverFactored exercises the reusable handle through the Solver
// surface and pins the "skips Krylov" claim at this level too: after
// Factor, further Solve calls on the handle add no batch/krylov span.
func TestSolverFactored(t *testing.T) {
	o := obs.New(0)
	s, err := NewSolver[uint64](fp, Options{Seed: 1, Observer: o})
	if err != nil {
		t.Fatal(err)
	}
	defer obs.SetActive(nil)
	src := ff.NewSource(403)
	n := 6
	a := nonsingular(t, src, n)

	h, err := s.Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if h.Dim() != n {
		t.Fatalf("Dim = %d", h.Dim())
	}
	krylov := o.PhaseTotals()[obs.PhaseBatchKrylov].Count
	if krylov == 0 {
		t.Fatal("Factor recorded no batch/krylov span")
	}

	fresh := newSolver(t)
	for trial := 0; trial < 2; trial++ {
		b := ff.SampleVec[uint64](fp, src, n, ff.P31)
		x, err := h.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Solve(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](fp, x, want) {
			t.Fatalf("trial %d: Factored.Solve differs from Solver.Solve", trial)
		}
	}
	if got := o.PhaseTotals()[obs.PhaseBatchKrylov].Count; got != krylov {
		t.Fatalf("Factored.Solve re-ran Krylov: %d spans, want %d", got, krylov)
	}

	d, err := h.Det()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Det[uint64](fp, a)
	if d != want {
		t.Fatalf("Factored.Det = %d, want %d", d, want)
	}
	inv, err := h.InverseApply(matrix.Identity[uint64](fp, n))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, inv).Equal(fp, matrix.Identity[uint64](fp, n)) {
		t.Fatal("Factored.InverseApply(I) is not the inverse")
	}
}

func TestSolverCtxCancellation(t *testing.T) {
	s := newSolver(t)
	src := ff.NewSource(405)
	n := 5
	a := nonsingular(t, src, n)
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	bm := matrix.Random[uint64](fp, src, n, 2, ff.P31)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveCtx(ctx, a, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveCtx: err = %v", err)
	}
	if _, err := s.SolveBatchCtx(ctx, a, bm); !errors.Is(err, context.Canceled) {
		t.Fatalf("SolveBatchCtx: err = %v", err)
	}
	if _, err := s.FactorCtx(ctx, a); !errors.Is(err, context.Canceled) {
		t.Fatalf("FactorCtx: err = %v", err)
	}
}
