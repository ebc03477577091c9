package kp

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/wiedemann"
)

// randomNonsingularP62 draws an n×n matrix over F_P62 that is certainly
// non-singular (checked by LU).
func randomNonsingularP62(src *ff.Source, n int) (ff.Fp64, *matrix.Dense[uint64]) {
	f := ff.MustFp64(ff.P62)
	for {
		a := matrix.Random[uint64](f, src, n, n, f.Modulus())
		if d, _ := matrix.Det[uint64](f, a); !f.IsZero(d) {
			return f, a
		}
	}
}

// TestSolveBatchMatchesIndependentSolves is the batch engine's core
// contract: over an exact field the non-singular solution is unique, so
// SolveBatch must be bit-identical to k independent Solve calls — under
// every registered multiplier.
func TestSolveBatchMatchesIndependentSolves(t *testing.T) {
	src := ff.NewSource(71)
	n, k := 9, 5
	f, a := randomNonsingularP62(src, n)
	bm := matrix.Random[uint64](f, src, n, k, f.Modulus())
	for _, name := range matrix.Names() {
		mul, err := matrix.ByName[uint64](name)
		if err != nil {
			t.Fatal(err)
		}
		x, err := SolveBatch[uint64](f, mul, a, bm, Params{Src: ff.NewSource(7)})
		if err != nil {
			t.Fatalf("%s: SolveBatch: %v", name, err)
		}
		if x.Rows != n || x.Cols != k {
			t.Fatalf("%s: shape %dx%d", name, x.Rows, x.Cols)
		}
		for j := 0; j < k; j++ {
			want, err := Solve[uint64](f, mul, a, bm.Col(j), Params{Src: ff.NewSource(7)})
			if err != nil {
				t.Fatalf("%s: Solve col %d: %v", name, j, err)
			}
			for i := 0; i < n; i++ {
				if x.At(i, j) != want[i] {
					t.Fatalf("%s: column %d differs from independent Solve at row %d", name, j, i)
				}
			}
		}
	}
}

func TestSolveBatchShapes(t *testing.T) {
	src := ff.NewSource(73)
	f, a := randomNonsingularP62(src, 4)
	rect := matrix.Random[uint64](f, src, 4, 5, f.Modulus())
	if _, err := SolveBatch[uint64](f, matrix.Classical[uint64]{}, rect, rect, Params{Src: src}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("non-square A: err = %v", err)
	}
	short := matrix.Random[uint64](f, src, 3, 2, f.Modulus())
	if _, err := SolveBatch[uint64](f, matrix.Classical[uint64]{}, a, short, Params{Src: src}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("mismatched B: err = %v", err)
	}
	// k = 0 is a valid empty batch.
	empty := matrix.NewDense[uint64](f, 4, 0)
	x, err := SolveBatch[uint64](f, matrix.Classical[uint64]{}, a, empty, Params{Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if x.Rows != 4 || x.Cols != 0 {
		t.Fatalf("empty batch shape %dx%d", x.Rows, x.Cols)
	}
}

func TestSolveBatchSingular(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	a := matrix.FromRows[uint64](f, [][]int64{{1, 2}, {2, 4}})
	bm := matrix.FromRows[uint64](f, [][]int64{{1}, {1}})
	_, err := SolveBatch[uint64](f, matrix.Classical[uint64]{}, a, bm, Params{Src: ff.NewSource(5), Retries: 3})
	if !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("singular batch: err = %v", err)
	}
}

// TestFactorReuse checks the reusable handle end to end: repeated Solve
// calls agree with the standalone driver, InverseApply against I yields the
// inverse, and Det matches LU.
func TestFactorReuse(t *testing.T) {
	src := ff.NewSource(79)
	n := 8
	f, a := randomNonsingularP62(src, n)
	fa, err := Factor[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: ff.NewSource(11)})
	if err != nil {
		t.Fatal(err)
	}
	if fa.Dim() != n {
		t.Fatalf("Dim = %d", fa.Dim())
	}
	for trial := 0; trial < 3; trial++ {
		b := ff.SampleVec[uint64](f, src, n, f.Modulus())
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, err := Solve[uint64](f, matrix.Classical[uint64]{}, a, b, Params{Src: ff.NewSource(11)})
		if err != nil {
			t.Fatal(err)
		}
		if !ff.VecEqual[uint64](f, x, want) {
			t.Fatalf("trial %d: Factorization.Solve differs from Solve", trial)
		}
	}
	if _, err := fa.Solve(make([]uint64, n+1)); !errors.Is(err, ErrBadShape) {
		t.Fatalf("wrong-length b: err = %v", err)
	}
	inv, err := fa.InverseApply(matrix.Identity[uint64](f, n))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](f, a, inv).Equal(f, matrix.Identity[uint64](f, n)) {
		t.Fatal("InverseApply(I) is not the inverse")
	}
	d, err := fa.Det()
	if err != nil {
		t.Fatal(err)
	}
	want, _ := matrix.Det[uint64](f, a)
	if d != want {
		t.Fatalf("Det = %d, want %d", d, want)
	}
}

// TestFactoredSolveSkipsKrylov pins the amortization claim to the span
// record: Factor pays for batch/krylov once, and subsequent Solve calls add
// only batch/backsolve and batch/verify spans.
func TestFactoredSolveSkipsKrylov(t *testing.T) {
	src := ff.NewSource(83)
	n := 7
	f, a := randomNonsingularP62(src, n)
	o := obs.New(0)
	prev := obs.Active()
	obs.SetActive(o)
	defer obs.SetActive(prev)

	fa, err := Factor[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: ff.NewSource(13)})
	if err != nil {
		t.Fatal(err)
	}
	after := o.PhaseTotals()
	krylov := after[obs.PhaseBatchKrylov].Count
	if krylov == 0 {
		t.Fatal("Factor recorded no batch/krylov span")
	}
	back := after[obs.PhaseBatchBacksolve].Count

	for trial := 0; trial < 3; trial++ {
		b := ff.SampleVec[uint64](f, src, n, f.Modulus())
		if _, err := fa.Solve(b); err != nil {
			t.Fatal(err)
		}
	}
	final := o.PhaseTotals()
	if got := final[obs.PhaseBatchKrylov].Count; got != krylov {
		t.Fatalf("Factorization.Solve re-ran Krylov: %d spans, want %d", got, krylov)
	}
	if got := final[obs.PhaseBatchBacksolve].Count; got != back+3 {
		t.Fatalf("backsolve spans %d, want %d", got, back+3)
	}
	if final[obs.PhaseBatchVerify].Count < 3 {
		t.Fatal("Solve calls did not verify")
	}
}

// TestErrorTaxonomy checks that the sentinels match across packages via
// errors.Is — the whole point of hoisting them into internal/errs.
func TestErrorTaxonomy(t *testing.T) {
	if !errors.Is(wiedemann.ErrRetriesExhausted, ErrRetriesExhausted) {
		t.Fatal("wiedemann.ErrRetriesExhausted does not match kp.ErrRetriesExhausted")
	}
	if !errors.Is(matrix.ErrSingular, ErrSingular) {
		t.Fatal("matrix.ErrSingular does not match kp.ErrSingular")
	}
	fp := ff.MustFp64(ff.P31)
	src := ff.NewSource(3)
	a := matrix.Identity[uint64](fp, 3)
	if _, err := Solve[uint64](fp, matrix.Classical[uint64]{}, a, []uint64{1, 2}, Params{Src: src, Subset: ff.P31}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("short b: err = %v", err)
	}
	rect := matrix.Random[uint64](fp, src, 2, 3, ff.P31)
	if _, err := Det[uint64](fp, matrix.Classical[uint64]{}, rect, Params{Src: src, Subset: ff.P31}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("non-square Det: err = %v", err)
	}
	if _, err := Inverse[uint64](fp, matrix.Classical[uint64]{}, rect, Params{Src: src, Subset: ff.P31}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("non-square Inverse: err = %v", err)
	}
	if _, err := Factor[uint64](fp, matrix.Classical[uint64]{}, rect, Params{Src: src, Subset: ff.P31}); !errors.Is(err, ErrBadShape) {
		t.Fatalf("non-square Factor: err = %v", err)
	}
}

// TestContextCancellation checks both halves of the cooperative-cancel
// contract: a pre-cancelled context returns immediately, and a cancel
// landing mid-solve surfaces promptly as context.Canceled.
func TestContextCancellation(t *testing.T) {
	src := ff.NewSource(89)
	f, a := randomNonsingularP62(src, 6)
	b := ff.SampleVec[uint64](f, src, 6, f.Modulus())

	done, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Solve[uint64](f, matrix.Classical[uint64]{}, a, b, Params{Src: src, Ctx: done}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Solve: err = %v", err)
	}
	if _, err := Det[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: src, Ctx: done}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Det: err = %v", err)
	}
	bm := matrix.Random[uint64](f, src, 6, 2, f.Modulus())
	if _, err := SolveBatch[uint64](f, matrix.Classical[uint64]{}, a, bm, Params{Src: src, Ctx: done}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled SolveBatch: err = %v", err)
	}
	if _, err := Factor[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: src, Ctx: done}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled Factor: err = %v", err)
	}

	// A cached factorization's backsolve checks the context before its
	// applies too, so a cancelled cache hit stops instead of finishing.
	fa, err := Factor[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: src})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fa.SolveCtx(done, b); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Factorization.SolveCtx: err = %v", err)
	}
	if _, err := fa.InverseApplyCtx(done, bm); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Factorization.InverseApplyCtx: err = %v", err)
	}

	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if _, err := Solve[uint64](f, matrix.Classical[uint64]{}, a, b, Params{Src: src, Ctx: expired}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired deadline: err = %v", err)
	}

	// Mid-flight: a solve big enough to outlive the cancel must stop at the
	// next apply rather than run to completion.
	n := 128
	fBig, aBig := randomNonsingularP62(ff.NewSource(97), n)
	bBig := ff.SampleVec[uint64](fBig, ff.NewSource(98), n, fBig.Modulus())
	ctx, cancel3 := context.WithCancel(context.Background())
	go func() {
		time.Sleep(2 * time.Millisecond)
		cancel3()
	}()
	start := time.Now()
	_, err = Solve[uint64](fBig, matrix.Classical[uint64]{}, aBig, bBig, Params{Src: ff.NewSource(99), Ctx: ctx})
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-flight cancel: err = %v", err)
	}
	// err == nil means the solve won the race — legal, but then it must have
	// been fast; a cancelled solve must not have run the full pipeline.
	if errors.Is(err, context.Canceled) && time.Since(start) > 30*time.Second {
		t.Fatal("cancelled solve did not return promptly")
	}
}

// TestParamsDrivers exercises the canonical Params-based entry points —
// Solve, Det, Rank, Inverse, TransposedSolve — on one shared system. (The
// deprecated *Legacy positional wrappers these drivers replaced are gone;
// see the README migration notes.)
func TestParamsDrivers(t *testing.T) {
	fp := ff.MustFp64(ff.P31)
	src := ff.NewSource(101)
	n := 5
	var a *matrix.Dense[uint64]
	for {
		a = matrix.Random[uint64](fp, src, n, n, ff.P31)
		if d, _ := matrix.Det[uint64](fp, a); !fp.IsZero(d) {
			break
		}
	}
	b := ff.SampleVec[uint64](fp, src, n, ff.P31)
	p := Params{Src: ff.NewSource(1), Subset: ff.P31}

	x, err := Solve[uint64](fp, matrix.Classical[uint64]{}, a, b, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.MulVec(fp, x), b) {
		t.Fatal("Solve wrong")
	}
	d, err := Det[uint64](fp, matrix.Classical[uint64]{}, a, Params{Src: ff.NewSource(1), Subset: ff.P31})
	if err != nil {
		t.Fatal(err)
	}
	wd, _ := matrix.Det[uint64](fp, a)
	if d != wd {
		t.Fatalf("Det = %d, want %d", d, wd)
	}
	r, err := Rank[uint64](fp, a, Params{Src: ff.NewSource(1), Subset: ff.P31})
	if err != nil {
		t.Fatal(err)
	}
	if r != n {
		t.Fatalf("Rank = %d, want %d", r, n)
	}
	inv, err := Inverse[uint64](fp, matrix.Classical[uint64]{}, a, Params{Src: ff.NewSource(1), Subset: ff.P31})
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Mul[uint64](fp, a, inv).Equal(fp, matrix.Identity[uint64](fp, n)) {
		t.Fatal("Inverse wrong")
	}
	xt, err := TransposedSolve[uint64](fp, a, b, Params{Src: ff.NewSource(1), Subset: ff.P31})
	if err != nil {
		t.Fatal(err)
	}
	if !ff.VecEqual[uint64](fp, a.Transpose().MulVec(fp, xt), b) {
		t.Fatal("TransposedSolve wrong")
	}
}
