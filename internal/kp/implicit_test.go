package kp

import (
	"context"
	"errors"
	"math/big"
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/structured"
)

// Differential suite for the concrete-field pipeline. The Solve, Factor and
// SolveBatch drivers run Berlekamp–Massey on a black-box Ã (pipeline.go);
// the reference walks below replay the same Las Vegas loops on the
// branch-free SolveOnce route — dense doubling and the Theorem 3 Toeplitz
// solve, the paper's circuit. From the same seed both must return identical
// answers and identical errors, and leave the ff.Source in the same state,
// so every later draw agrees too.

var fntt = ff.MustFp64(ff.PNTT62)

// refSolve is Solve's walk on the SolveOnce route. It also returns how many
// attempts failed.
func refSolve[E any](f ff.Field[E], a *matrix.Dense[E], b []E, p Params) ([]E, int, error) {
	p = fill(f, p)
	failed := 0
	for i := 0; i < p.Retries; i++ {
		rnd := DrawRandomness(f, p.Src, a.Rows, p.Subset)
		x, err := SolveOnce(f, matrix.Classical[E]{}, a, b, rnd)
		if err == nil && ff.VecEqual(f, a.MulVec(f, x), b) {
			return x, failed, nil
		}
		if err != nil && !isDivisionError(err) {
			return nil, failed, err
		}
		failed++
	}
	return nil, failed, ErrRetriesExhausted
}

// refFront is one attempt's front end on the SolveOnce route: the
// characteristic polynomial of the dense Ã, or the attempt's division
// error (a zero constant term included).
func refFront[E any](f ff.Field[E], a *matrix.Dense[E], rnd Randomness[E]) ([]E, error) {
	mul := matrix.Classical[E]{}
	cp, err := charPolyOfPreconditioned(f, mul, precondition(f, mul, a, rnd), rnd)
	if err == nil && f.IsZero(cp[0]) {
		err = ff.ErrDivisionByZero
	}
	return cp, err
}

// refFactor is Factor's walk on the SolveOnce route: the front end, then a
// probe solve that must verify. It returns the certified randomness and
// characteristic polynomial.
func refFactor[E any](f ff.Field[E], a *matrix.Dense[E], p Params) (Randomness[E], []E, int, error) {
	p = fill(f, p)
	n := a.Rows
	failed := 0
	for i := 0; i < p.Retries; i++ {
		rnd := DrawRandomness(f, p.Src, n, p.Subset)
		cp, err := refFront(f, a, rnd)
		if err != nil {
			if !isDivisionError(err) {
				return rnd, nil, failed, err
			}
			failed++
			continue
		}
		probe := ff.SampleVec(f, p.Src, n, p.Subset)
		x, err := SolveOnce(f, matrix.Classical[E]{}, a, probe, rnd)
		if err == nil && ff.VecEqual(f, a.MulVec(f, x), probe) {
			return rnd, cp, failed, nil
		}
		failed++
	}
	return Randomness[E]{}, nil, failed, ErrRetriesExhausted
}

// refBatch is SolveBatch's walk on the SolveOnce route: one front end per
// attempt, then every pending column solved and verified on its own.
func refBatch[E any](f ff.Field[E], a, bm *matrix.Dense[E], p Params) (*matrix.Dense[E], int, error) {
	p = fill(f, p)
	n := a.Rows
	out := matrix.NewDense(f, n, bm.Cols)
	pending := make([]int, bm.Cols)
	for j := range pending {
		pending[j] = j
	}
	failed := 0
	for i := 0; i < p.Retries && len(pending) > 0; i++ {
		rnd := DrawRandomness(f, p.Src, n, p.Subset)
		if _, err := refFront(f, a, rnd); err != nil {
			if !isDivisionError(err) {
				return nil, failed, err
			}
			failed++
			continue
		}
		var still []int
		for _, col := range pending {
			b := bm.Col(col)
			x, err := SolveOnce(f, matrix.Classical[E]{}, a, b, rnd)
			if err != nil || !ff.VecEqual(f, a.MulVec(f, x), b) {
				still = append(still, col)
				continue
			}
			for r, v := range x {
				out.Set(r, col, v)
			}
		}
		if len(still) > 0 {
			failed++
		}
		pending = still
	}
	if len(pending) > 0 {
		return nil, failed, ErrRetriesExhausted
	}
	return out, failed, nil
}

// checkDrivers runs Solve (on bm's first column), Factor and SolveBatch
// against their reference walks from identical seeds and fails the test on
// any divergence in answer, error or final source state. It returns the
// failed attempts of the reference walks and how many calls succeeded.
func checkDrivers[E any](t *testing.T, f ff.Field[E], a, bm *matrix.Dense[E], seed, subset uint64, retries int) (failed, ok int) {
	t.Helper()
	mul := matrix.Classical[E]{}
	params := func() Params { return Params{Src: ff.NewSource(seed), Subset: subset, Retries: retries} }
	sameSrc := func(what string, p, q Params) {
		t.Helper()
		if *p.Src != *q.Src {
			t.Fatalf("seed %d: %s left the source in a different state than the SolveOnce route", seed, what)
		}
	}
	sameErr := func(what string, got, want error) {
		t.Helper()
		if got != want {
			t.Fatalf("seed %d: %s error %v, SolveOnce route %v", seed, what, got, want)
		}
	}

	b := bm.Col(0)
	p, q := params(), params()
	x, err := Solve(f, mul, a, b, p)
	xr, fl, errr := refSolve(f, a, b, q)
	sameErr("Solve", err, errr)
	if err == nil && !ff.VecEqual(f, x, xr) {
		t.Fatalf("seed %d: Solve answer differs from the SolveOnce route", seed)
	}
	sameSrc("Solve", p, q)
	failed += fl
	if err == nil {
		ok++
	}

	p, q = params(), params()
	fa, err := Factor(f, mul, a, p)
	rnd, cp, fl, errr := refFactor(f, a, q)
	sameErr("Factor", err, errr)
	if err == nil {
		if !ff.VecEqual(f, fa.rnd.Flat(), rnd.Flat()) || !ff.VecEqual(f, fa.cp, cp) {
			t.Fatalf("seed %d: Factor certified different randomness or charpoly than the SolveOnce route", seed)
		}
		got, err := fa.Solve(b)
		want, werr := SolveOnce(f, mul, a, b, rnd)
		if err != nil || werr != nil || !ff.VecEqual(f, got, want) {
			t.Fatalf("seed %d: Factorization.Solve (%v) differs from SolveOnce (%v)", seed, err, werr)
		}
		ok++
	}
	sameSrc("Factor", p, q)
	failed += fl

	p, q = params(), params()
	xs, err := SolveBatch(f, mul, a, bm, p)
	xsr, fl, errr := refBatch(f, a, bm, q)
	sameErr("SolveBatch", err, errr)
	if err == nil && !xs.Equal(f, xsr) {
		t.Fatalf("seed %d: SolveBatch answer differs from the SolveOnce route", seed)
	}
	sameSrc("SolveBatch", p, q)
	failed += fl
	if err == nil {
		ok++
	}
	return failed, ok
}

// TestImplicitMatchesDenseFp64: over the NTT-friendly word field the
// black-box drivers and the dense SolveOnce route agree for dense random A.
func TestImplicitMatchesDenseFp64(t *testing.T) {
	src := ff.NewSource(31)
	for _, n := range []int{1, 2, 3, 5, 8, 17, 33} {
		a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
		bm := matrix.Random[uint64](fntt, src, n, 2, 1<<40)
		if _, ok := checkDrivers(t, fntt, a, bm, uint64(1000+n), 0, 0); ok == 0 {
			t.Fatalf("n=%d: no driver succeeded", n)
		}
	}
}

// TestImplicitMatchesDenseToeplitzA: the structured-workload shape — A
// itself a dense-materialized Toeplitz matrix.
func TestImplicitMatchesDenseToeplitzA(t *testing.T) {
	src := ff.NewSource(37)
	for _, n := range []int{4, 16, 31} {
		a := structured.RandomToeplitz[uint64](fntt, src, n, 1<<40).Dense(fntt)
		bm := matrix.Random[uint64](fntt, src, n, 2, 1<<40)
		checkDrivers(t, fntt, a, bm, uint64(2000+n), 0, 0)
	}
}

// TestImplicitMatchesDenseFpBig: the wrapper field has no fused kernels,
// so both routes run on the generic paths — and must still agree.
func TestImplicitMatchesDenseFpBig(t *testing.T) {
	f, err := ff.NewFpBig(new(big.Int).SetUint64(ff.PNTT62))
	if err != nil {
		t.Fatal(err)
	}
	src := ff.NewSource(41)
	n := 7
	a := matrix.Random[*big.Int](f, src, n, n, 1<<30)
	bm := matrix.Random[*big.Int](f, src, n, 2, 1<<30)
	if _, ok := checkDrivers(t, f, a, bm, 99, 1<<30, 0); ok == 0 {
		t.Fatal("no driver succeeded over FpBig")
	}
}

// TestImplicitRetryPathMatchesDense is the retry-walk table: small sampling
// subsets make attempts fail often, and singular inputs fail every attempt
// — rank n−1 mostly through a zero constant term, rank n−2 always through a
// generator of degree < n (Lemma 1's singular T_n). The drivers must walk
// the same attempts as the SolveOnce route, seed by seed.
func TestImplicitRetryPathMatchesDense(t *testing.T) {
	f17 := ff.MustFp64(17)
	cases := []struct {
		name    string
		f       ff.Fp64
		ns      []int
		rankDef int // 0: random A; r: planted rank n−r (P31 only)
		subset  uint64
		retries int
		seeds   int
	}{
		{"P31/S=16", fp, []int{3, 4, 5, 6, 7}, 0, 16, 10, 12},
		{"P31/S=16/rank n-1", fp, []int{3, 5, 7}, 1, 16, 4, 4},
		{"P31/S=16/rank n-2", fp, []int{3, 5, 7}, 2, 16, 4, 4},
		{"P31/rank n-1", fp, []int{4, 6}, 1, 0, 3, 3},
		{"F17/S=16", f17, []int{3, 4, 5, 6, 7}, 0, 16, 10, 12},
		{"NTT/S=2", fntt, []int{6}, 0, 2, 6, 40},
	}
	failed := 0
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := ff.NewSource(43)
			ok := 0
			for _, n := range tc.ns {
				for seed := uint64(1); seed <= uint64(tc.seeds); seed++ {
					var a *matrix.Dense[uint64]
					if tc.rankDef > 0 {
						a = plantedRank(src, n, n-tc.rankDef)
					} else {
						a = matrix.Random[uint64](tc.f, src, n, n, tc.f.Modulus())
					}
					bm := matrix.Random[uint64](tc.f, src, n, 3, tc.f.Modulus())
					fl, k := checkDrivers(t, tc.f, a, bm, seed, tc.subset, tc.retries)
					failed += fl
					ok += k
				}
			}
			if tc.rankDef > 0 && ok != 0 {
				t.Fatalf("%d driver calls succeeded on a singular input", ok)
			}
			if tc.rankDef == 0 && ok == 0 {
				t.Fatal("no driver call succeeded: the case proves nothing about answers")
			}
		})
	}
	if failed == 0 {
		t.Fatal("no attempt failed: the table walks no retry path")
	}
}

// TestSingularFailsInMinpolyPhase: on an input of rank n−2 every attempt's
// sequence has a generator of degree < n, recorded in the attempt
// statistics as a division failure of the minpoly phase.
func TestSingularFailsInMinpolyPhase(t *testing.T) {
	obs.ResetAttempts()
	t.Cleanup(obs.ResetAttempts)
	n := 6
	a := plantedRank(ff.NewSource(47), n, n-2)
	b := ff.SampleVec[uint64](fp, ff.NewSource(48), n, ff.P31)
	if _, err := Solve[uint64](fp, classical(), a, b, Params{Src: ff.NewSource(49), Retries: 3}); !errors.Is(err, ErrRetriesExhausted) {
		t.Fatalf("err = %v, want ErrRetriesExhausted", err)
	}
	for _, l := range obs.BoundsReport() {
		if l.Solver == solverSolve && l.N == n {
			if l.ByPhase[obs.PhaseMinPoly] != 3 || l.ByOutcome[obs.OutcomeDivZero] != 3 {
				t.Fatalf("attempts by phase %v, by outcome %v: want 3 minpoly division failures", l.ByPhase, l.ByOutcome)
			}
			return
		}
	}
	t.Fatal("no attempt statistics recorded for the singular solve")
}

// TestImplicitBatchMatchesDense: SolveBatch over k = 5 columns matches the
// per-column SolveOnce walk.
func TestImplicitBatchMatchesDense(t *testing.T) {
	src := ff.NewSource(47)
	n, k := 12, 5
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	bm := matrix.Random[uint64](fntt, src, n, k, 1<<40)
	if _, ok := checkDrivers(t, fntt, a, bm, 7, 0, 0); ok != 3 {
		t.Fatalf("%d of 3 driver calls succeeded", ok)
	}
}

// TestImplicitPreconditionZeroDenseMul is the op-count check of the two
// formations of Ã: Solve forms it from n Hankel row products and never
// calls the dense multiplier, while Factor forms it with exactly one
// product, inside batch/precondition. It also pins Solve's work counters:
// n row products on each precondition span and 2n Berlekamp–Massey
// iterations on each minpoly span.
func TestImplicitPreconditionZeroDenseMul(t *testing.T) {
	o := obs.New(0)
	obs.SetActive(o)
	defer obs.SetActive(nil)
	im := matrix.NewInstrumented[uint64](classical())
	src := ff.NewSource(53)
	n := 16
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
	if _, err := Solve[uint64](fntt, im, a, b, Params{Src: ff.NewSource(3)}); err != nil {
		t.Fatal(err)
	}
	if got := im.Stats.Snapshot().Calls; got != 0 {
		t.Fatalf("Solve invoked the dense multiplier %d times, want 0", got)
	}
	totals := o.PhaseTotals()
	pre, mp := totals[obs.PhasePrecondition], totals[obs.PhaseMinPoly]
	if pre.Count == 0 || mp.Count == 0 {
		t.Fatal("no precondition or minpoly span recorded")
	}
	if pre.Steps != uint64(pre.Count*n) {
		t.Fatalf("precondition reported %d row products over %d span(s), want n = %d each", pre.Steps, pre.Count, n)
	}
	if mp.Steps != uint64(mp.Count*2*n) {
		t.Fatalf("minpoly reported %d BM iterations over %d span(s), want 2n = %d each", mp.Steps, mp.Count, 2*n)
	}
	if got := totals[obs.PhaseKrylov].ApplyCalls; got != uint64(2*n-1) {
		t.Fatalf("krylov phase recorded %d applies, want 2n−1 = %d", got, 2*n-1)
	}
	if totals[obs.PhaseKrylov].ApplyTime == 0 {
		t.Fatal("krylov phase recorded no apply time")
	}

	o2 := obs.New(0)
	obs.SetActive(o2)
	if _, err := Factor[uint64](fntt, im, a, Params{Src: ff.NewSource(5)}); err != nil {
		t.Fatal(err)
	}
	if got := im.Stats.Snapshot().Calls; got != 1 {
		t.Fatalf("Factor invoked the dense multiplier %d times, want 1", got)
	}
	if pre := o2.PhaseTotals()[obs.PhaseBatchPrecondition]; pre.MulCalls != 1 {
		t.Fatalf("batch/precondition made %d dense Mul calls, want 1", pre.MulCalls)
	}
}

// TestSolveStepsReachRequestScope runs Solve under a request scope, as kpd
// does: the row products and the Berlekamp–Massey iterations land on the
// request's own precondition and minpoly spans, not on whatever span is
// innermost on the Observer.
func TestSolveStepsReachRequestScope(t *testing.T) {
	o := obs.New(0)
	obs.SetActive(o)
	defer obs.SetActive(nil)
	outer := o.StartSpan("outer")
	defer outer.End()
	sc := obs.NewScope(obs.NewTraceContext())
	ctx := obs.ContextWithScope(context.Background(), sc)
	src := ff.NewSource(59)
	n := 16
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
	if _, err := Solve[uint64](fntt, classical(), a, b, Params{Src: ff.NewSource(3), Ctx: ctx}); err != nil {
		t.Fatal(err)
	}
	count, steps := map[string]int{}, map[string]uint64{}
	for _, r := range sc.Spans() {
		count[r.Name]++
		steps[r.Name] += r.Steps
	}
	if c := count[obs.PhasePrecondition]; c == 0 || steps[obs.PhasePrecondition] != uint64(c*n) {
		t.Fatalf("request precondition spans: %d with %d row products, want n = %d each", c, steps[obs.PhasePrecondition], n)
	}
	if c := count[obs.PhaseMinPoly]; c == 0 || steps[obs.PhaseMinPoly] != uint64(c*2*n) {
		t.Fatalf("request minpoly spans: %d with %d BM iterations, want 2n = %d each", c, steps[obs.PhaseMinPoly], 2*n)
	}
	outer.End()
	if got := o.PhaseTotals()["outer"].Steps; got != 0 {
		t.Fatalf("%d steps leaked onto the Observer's innermost span", got)
	}
}

// TestImplicitFactorSolve: a factorization keeps the Las Vegas contract —
// verified solves, each the SolveOnce answer under its certified
// randomness.
func TestImplicitFactorSolve(t *testing.T) {
	src := ff.NewSource(59)
	n := 10
	a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
	fa, err := Factor[uint64](fntt, classical(), a, Params{Src: ff.NewSource(11)})
	if err != nil {
		t.Fatal(err)
	}
	for rhs := 0; rhs < 3; rhs++ {
		b := ff.SampleVec[uint64](fntt, src, n, 1<<40)
		x, err := fa.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveOnce[uint64](fntt, classical(), a, b, fa.rnd)
		if err != nil || !ff.VecEqual[uint64](fntt, x, want) {
			t.Fatalf("rhs=%d: factorization solve differs from SolveOnce (%v)", rhs, err)
		}
	}
}

// TestSylvesterDriverNTTField runs the structured Sylvester-GCD driver over
// the NTT-friendly field, so every inner apply goes through the cached
// transforms, and cross-checks against the dense resultant — the Sylvester
// leg of the differential suite.
func TestSylvesterDriverNTTField(t *testing.T) {
	src := ff.NewSource(61)
	randPoly := func(deg int) []uint64 {
		p := ff.SampleVec[uint64](fntt, src, deg+1, 1<<40)
		p[deg] = fntt.One()
		return p
	}
	for trial := 0; trial < 10; trial++ {
		a := randPoly(1 + src.Intn(8))
		b := randPoly(1 + src.Intn(8))
		got, err := ResultantWiedemann[uint64](fntt, a, b, Params{Src: src})
		if err != nil {
			t.Fatal(err)
		}
		want, err := ResultantSylvester[uint64](fntt, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("trial %d: NTT-field Wiedemann resultant %d != dense %d", trial, got, want)
		}
	}
}

// FuzzImplicitSolveMatchesDense drives random seeds, sizes and subsets
// through the drivers and their SolveOnce walks; any divergence is a bug in
// the black-box pipeline.
func FuzzImplicitSolveMatchesDense(fz *testing.F) {
	fz.Add(uint64(1), uint8(6), uint8(0))
	fz.Add(uint64(42), uint8(3), uint8(1))
	fz.Fuzz(func(t *testing.T, seed uint64, nRaw, small uint8) {
		n := int(nRaw)%12 + 1
		subset := uint64(0)
		if small%2 == 1 {
			subset = 4 // stress the retry path
		}
		src := ff.NewSource(seed)
		a := matrix.Random[uint64](fntt, src, n, n, 1<<40)
		bm := matrix.Random[uint64](fntt, src, n, 2, 1<<40)
		checkDrivers(t, fntt, a, bm, seed^0xabcdef, subset, 4)
	})
}
