package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"time"

	"repro/internal/core"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/poly"
	"repro/internal/rns"
	"repro/internal/seq"
	"repro/internal/server"
	"repro/internal/structured"
)

// Cell sizes: those of the workloads. n256 and len512 = 2·256 are
// fp-solve's dimension and its minpoly sequence length on the NTT prime;
// n64 is kpd-mixed's dimension on the generic prime.
const (
	cellBig   = 256
	cellSmall = 64
)

// The rns cell solves zzSolves fresh zzN×zzN integer systems with entries
// uniform in [−zzEntry, zzEntry]: about 20 residues each, fanned over
// GOMAXPROCS workers, after one zzWarmN×zzWarmN warm-up solve.
const (
	zzN      = 48
	zzWarmN  = 16
	zzEntry  = 999
	zzSolves = 3
)

// Sinks keep the compiler from dropping a timed call's result; the typed
// ones spare the small cells the allocation of boxing into an interface.
var (
	sink       any
	sinkElem   uint64
	sinkVec    []uint64
	sinkDigest [matrix.DigestSize]byte
)

// timeCell calls fn once to warm up, then returns the median over reps
// batches of the mean time per call in a batch of calls calls.
func timeCell(reps, calls int, fn func()) time.Duration {
	fn()
	d := make([]time.Duration, reps)
	for r := range d {
		t0 := time.Now()
		for range calls {
			fn()
		}
		d[r] = time.Since(t0) / time.Duration(calls)
	}
	return median(d)
}

// layerCells times each layer's public function at the workload sizes,
// after a warm-up, and takes exact field-operation counts through
// ff.NewCounting. Each cell is one benchmark span of op id "cells".
func layerCells(seed uint64, vals map[string]float64, tr *tracer) error {
	f := ff.MustFp64(ff.PNTT62)
	g := ff.MustFp64(ff.P62)
	src := ff.NewSource(seed ^ 0x5eed_ce11)
	vec := func(f ff.Fp64, n int) []uint64 { return ff.SampleVec[uint64](f, src, n, f.Modulus()) }

	a, b, dst := vec(f, cellBig), vec(f, cellBig), vec(f, cellBig)
	s := vec(f, 1)[0]
	big1 := matrix.Random[uint64](f, src, cellBig, cellBig, f.Modulus())
	big2 := matrix.Random[uint64](f, src, cellBig, cellBig, f.Modulus())
	small := matrix.Random[uint64](g, src, cellSmall, cellSmall, g.Modulus())
	xs := vec(g, cellSmall)
	hankel := structured.NewHankel(vec(f, 2*cellBig-1))
	diag := matrix.DiagBox[uint64]{D: vec(f, cellBig)}
	box := matrix.ComposedBox[uint64]{Boxes: []matrix.BlackBox[uint64]{matrix.DenseBox[uint64]{M: big1}, hankel, diag}}
	toeplitz := structured.NewToeplitz(vec(f, 2*cellBig-1))
	ntt, err := poly.NewNTTPlan[uint64](f, 2*cellBig)
	if err != nil {
		return err
	}
	nttIn := vec(f, 2*cellBig)
	// A length-2n sequence whose minimum polynomial is a random monic one
	// of degree n: both minpoly routes must return exactly that polynomial.
	genPoly := append(vec(f, cellBig), 1)
	sequence := seq.Apply[uint64](f, genPoly, vec(f, cellBig), 2*cellBig)
	minpolyParallel := func(f ff.Field[uint64]) ([]uint64, error) { return seq.MinPolyParallel(f, sequence, cellBig) }
	solver, err := core.NewSolver[uint64](g, core.Options{Seed: seed})
	if err != nil {
		return err
	}
	body, err := json.Marshal(solveRequest(g, small, xs, nil))
	if err != nil {
		return err
	}
	resp := server.SolveResponse{X: xs, N: cellSmall, Digest: matrix.DigestString[uint64](g, small), Precond: "dense", Cache: "hit", ElapsedMS: 2.5}

	// counted runs fn on a counting wrapper of f and returns its total
	// field operations.
	counted := func(fn func(ff.Field[uint64]) error) (float64, error) {
		cf := ff.NewCounting[uint64](f)
		err := fn(cf)
		return float64(cf.Counts().Total()), err
	}
	var (
		fa   *core.Factored[uint64]
		cerr error // the error of the last timed call, checked after timing
	)
	cells := []struct {
		name string
		run  func() (float64, error)
	}{
		{"ff.dot_ns_per_term.n256", func() (float64, error) {
			return float64(timeCell(7, 2000, func() { sinkElem = ff.DotFused[uint64](f, a, b) })) / cellBig, nil
		}},
		{"ff.muladd_ns_per_term.n256", func() (float64, error) {
			return float64(timeCell(7, 2000, func() { ff.VecMulAddInto[uint64](f, dst, s, a) })) / cellBig, nil
		}},
		{"matrix.mul_ms.n256", func() (float64, error) {
			return ms(timeCell(3, 1, func() { sink = matrix.Classical[uint64]{}.Mul(f, big1, big2) })), nil
		}},
		{"matrix.mul_field_ops.n256", func() (float64, error) {
			return counted(func(cf ff.Field[uint64]) error { matrix.Classical[uint64]{}.Mul(cf, big1, big2); return nil })
		}},
		{"matrix.matvec_us.n64", func() (float64, error) {
			return us(timeCell(7, 200, func() { sinkVec = small.MulVec(g, xs) })), nil
		}},
		{"matrix.composed_apply_us.n256", func() (float64, error) {
			x := vec(f, cellBig)
			if !ff.VecEqual[uint64](f, box.Apply(f, x), big1.MulVec(f, hankel.MulVec(f, diag.Apply(f, x)))) {
				return 0, errors.New("ComposedBox.Apply disagrees with applying its boxes in turn")
			}
			return us(timeCell(7, 10, func() { sinkVec = box.Apply(f, x) })), nil
		}},
		{"matrix.digest_us.n64", func() (float64, error) {
			return us(timeCell(7, 10, func() { sinkDigest = matrix.Digest[uint64](g, small) })), nil
		}},
		{"poly.ntt_us.len512", func() (float64, error) {
			return us(timeCell(7, 100, func() { sinkVec = ntt.Transform(nttIn) })), nil
		}},
		{"structured.toeplitz_apply_us.n256", func() (float64, error) {
			x := vec(f, cellBig)
			return us(timeCell(7, 50, func() { sinkVec = toeplitz.MulVec(f, x) })), nil
		}},
		{"seq.minpoly_parallel_ms.len512", func() (float64, error) {
			// About 1.5 s a call: three timed calls, the first also checked and
			// serving as the warm-up.
			d := make([]time.Duration, 3)
			for i := range d {
				t0 := time.Now()
				got, err := minpolyParallel(f)
				d[i] = time.Since(t0)
				if err != nil || !ff.VecEqual[uint64](f, got, genPoly) {
					return 0, fmt.Errorf("seq.MinPolyParallel did not return the generating polynomial (err %v)", err)
				}
			}
			return ms(median(d)), nil
		}},
		{"seq.minpoly_parallel_field_ops.len512", func() (float64, error) {
			return counted(func(cf ff.Field[uint64]) error { _, err := minpolyParallel(cf); return err })
		}},
		{"seq.bm_us.len512", func() (float64, error) {
			got, err := seq.MinPoly[uint64](f, sequence)
			if err != nil || !ff.VecEqual[uint64](f, got, genPoly) {
				return 0, fmt.Errorf("seq.MinPoly did not return the generating polynomial (err %v)", err)
			}
			return us(timeCell(7, 5, func() { sinkVec, cerr = seq.MinPoly[uint64](f, sequence) })), cerr
		}},
		{"seq.bm_field_ops.len512", func() (float64, error) {
			return counted(func(cf ff.Field[uint64]) error { _, err := seq.MinPoly(cf, sequence); return err })
		}},
		{"core.factor_ms.n64", func() (float64, error) {
			return ms(timeCell(5, 1, func() { fa, cerr = solver.Factor(small) })), cerr
		}},
		{"core.factored_solve_us.n64", func() (float64, error) {
			var x []uint64
			d := timeCell(7, 20, func() { x, cerr = fa.Solve(xs) })
			if cerr == nil && !fpCorrect(g, small, x, xs) {
				cerr = errors.New("Factored.Solve returned a wrong answer")
			}
			return us(d), cerr
		}},
		{"server.decode_us.n64", func() (float64, error) {
			// Strict, as the server reads a request body.
			return us(timeCell(7, 10, func() {
				var req server.SolveRequest
				dec := json.NewDecoder(bytes.NewReader(body))
				dec.DisallowUnknownFields()
				cerr = dec.Decode(&req)
				sink = &req
			})), cerr
		}},
		{"server.encode_us.n64", func() (float64, error) {
			return us(timeCell(7, 100, func() { sink, cerr = json.Marshal(&resp) })), cerr
		}},
	}
	for _, c := range cells {
		end := tr.span("cells", "cell/"+c.name, "")
		v, err := c.run()
		end()
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.name, err)
		}
		vals[c.name] = v
	}
	end := tr.span("cells", "cell/rns", "")
	err = rnsCell(seed, vals)
	end()
	if err != nil {
		return fmt.Errorf("cell rns: %w", err)
	}
	return nil
}

// rnsCell solves integer systems exactly with core.IntSolver and default
// options, checks every answer, and stores the per-solve means of their
// RingStats as the rns.* values. The matrices are fresh, so the residue
// cache misses.
func rnsCell(seed uint64, vals map[string]float64) error {
	gen := ff.NewSource(seed ^ 0x5eed_0115)
	s, err := core.NewIntSolver(core.IntOptions{Seed: seed})
	if err != nil {
		return err
	}
	var sum zzTotals
	for i := range zzSolves + 1 {
		n := zzN
		if i == 0 {
			n = zzWarmN
		}
		a, b := zzSystem(gen, n)
		x, st, err := s.SolveInt(a, b)
		if err != nil {
			return err
		}
		if !zzCorrect(a, x, b) {
			return errors.New("IntSolver.SolveInt returned a wrong answer")
		}
		if i > 0 {
			sum.add(st)
		}
	}
	sum.values(vals)
	return nil
}

// zzSystem draws an n×n integer system with entries in [−zzEntry, zzEntry].
func zzSystem(gen *ff.Source, n int) (*rns.IntMat, []*big.Int) {
	entry := func() *big.Int { return big.NewInt(int64(gen.Intn(2*zzEntry+1)) - zzEntry) }
	a := rns.NewIntMat(n, n)
	for i := range a.Data {
		a.Data[i] = entry()
	}
	b := make([]*big.Int, n)
	for i := range b {
		b[i] = entry()
	}
	return a, b
}

// zzCorrect is the independent exact check of a rational answer
// x = num/den: A·num = den·b over ℤ, with den ≠ 0.
func zzCorrect(a *rns.IntMat, x *rns.RatVec, b []*big.Int) bool {
	if x == nil || x.Den == nil || x.Den.Sign() == 0 || len(x.Num) != a.Cols {
		return false
	}
	var acc, t big.Int
	for i := 0; i < a.Rows; i++ {
		acc.SetInt64(0)
		for j := 0; j < a.Cols; j++ {
			acc.Add(&acc, t.Mul(a.At(i, j), x.Num[j]))
		}
		if acc.Cmp(t.Mul(x.Den, b[i])) != 0 {
			return false
		}
	}
	return true
}

// zzTotals sums the RingStats of the rns cell's solves.
type zzTotals struct {
	ops                                      int
	residues, badPrimes, hits, misses        int
	primesNs, wallNs, sumNs, crtNs, verifyNs int64
	efficiency                               float64
}

func (z *zzTotals) add(s *kp.RingStats) {
	z.ops++
	z.residues += s.Residues
	z.badPrimes += s.BadPrimes
	z.hits += s.CacheHits
	z.misses += s.CacheMisses
	z.primesNs += s.PrimesNs
	z.wallNs += s.ResidueWallNs
	z.sumNs += s.ResidueSumNs
	z.crtNs += s.CRTNs
	z.verifyNs += s.VerifyNs
	z.efficiency += s.ParallelEfficiency
}

// values stores the per-solve means.
func (z *zzTotals) values(vals map[string]float64) {
	n := float64(max(z.ops, 1))
	perMs := func(ns int64) float64 { return float64(ns) / 1e6 / n }
	vals["rns.residues_per_solve"] = float64(z.residues) / n
	vals["rns.bad_primes_per_solve"] = float64(z.badPrimes) / n
	vals["rns.primes_ms"] = perMs(z.primesNs)
	vals["rns.residue_wall_ms"] = perMs(z.wallNs)
	vals["rns.residue_busy_ms"] = perMs(z.sumNs)
	vals["rns.parallel_efficiency"] = z.efficiency / n
	vals["rns.crt_ms"] = perMs(z.crtNs)
	vals["rns.verify_ms"] = perMs(z.verifyNs)
	vals["rns.cache_hit_ratio"] = float64(z.hits) / float64(max(z.hits+z.misses, 1))
}
