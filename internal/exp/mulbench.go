package exp

import (
	"fmt"
	"time"

	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
)

// mulNames is the set of dense multipliers E4m sweeps; kpbench -mul
// restricts it.
var mulNames = matrix.Names()

// SetMultipliers restricts the multiplier ablation (E4m) to the named
// kernels. Every name must be registered in matrix.Names().
func SetMultipliers(names []string) error {
	for _, n := range names {
		if _, err := matrix.ByName[uint64](n); err != nil {
			return err
		}
	}
	mulNames = names
	return nil
}

// E4m is the substrate ablation behind the paper's black-box-ω framing,
// measured in wall clock rather than node counts (E4a): the same products
// and the same Theorem 4 solves run under every registered multiplier —
// serial classical, the cache-blocked kernel, the pooled row-parallel
// kernel, and both Strassen forms. Results are bit-identical across
// multipliers (finite-field arithmetic is exact, so summation order is
// irrelevant), which the "solve identical" column verifies by re-running
// the solver with an identical randomness stream.
func E4m(seed uint64, quick bool) (*Table, error) {
	f := fpCirc
	src := ff.NewSource(seed)
	ns := []int{64, 128, 256}
	reps := 3
	solveN := 32
	if quick {
		ns = []int{32, 64}
		reps = 2
		solveN = 16
	}
	t := &Table{
		ID:         "E4m",
		Title:      "Ablation — dense multiplier substrate (pooled/tiled kernels)",
		PaperClaim: "the multiplication black box sets the constant: same results, different wall clock",
		Columns:    []string{"n", "multiplier", "time/mul", "field-ops", "speedup vs classical", "solve identical"},
	}

	// Identity check: Theorem 4 under each multiplier, identical randomness
	// stream, must produce the identical solution vector. It runs through
	// Factor, whose formation of Ã = A·H·D is the Las Vegas route's one
	// dense product (a one-shot Solve never calls the multiplier).
	sa := matrix.Random[uint64](f, src, solveN, solveN, ff.P31)
	sb := ff.SampleVec[uint64](f, src, solveN, ff.P31)
	factorSolve := func(mul matrix.Multiplier[uint64]) ([]uint64, error) {
		fa, err := kp.Factor[uint64](f, mul, sa, kp.Params{Src: ff.NewSource(seed + 1), Subset: f.Modulus()})
		if err != nil {
			return nil, err
		}
		return fa.Solve(sb)
	}
	want, err := factorSolve(matrix.Classical[uint64]{})
	if err != nil {
		return nil, err
	}
	identical := map[string]bool{}
	for _, name := range mulNames {
		mul, err := matrix.ByName[uint64](name)
		if err != nil {
			return nil, err
		}
		got, err := factorSolve(mul)
		identical[name] = err == nil && ff.VecEqual[uint64](f, got, want)
	}

	for _, n := range ns {
		a := matrix.Random[uint64](f, src, n, n, f.Modulus())
		b := matrix.Random[uint64](f, src, n, n, f.Modulus())
		want := matrix.Classical[uint64]{}.Mul(f, a, b)
		var baseline time.Duration
		for _, name := range mulNames {
			mul, err := matrix.ByName[uint64](name)
			if err != nil {
				return nil, err
			}
			inst := matrix.NewInstrumented(mul)
			best := time.Duration(1 << 62)
			for r := 0; r < reps; r++ {
				start := time.Now()
				out := inst.Mul(f, a, b)
				if el := time.Since(start); el < best {
					best = el
				}
				if !out.Equal(f, want) {
					return nil, fmt.Errorf("E4m: %s product differs from classical at n=%d", name, n)
				}
			}
			if name == "classical" {
				baseline = best
			}
			speedup := "-"
			if baseline > 0 && name != "classical" {
				speedup = f2(float64(baseline) / float64(best))
			}
			snap := inst.Stats.Snapshot()
			t.AddRow(d(n), name, best.String(), fmt.Sprintf("%d", snap.FieldOps/snap.Calls),
				speedup, boolMark(identical[name]))
		}
	}
	t.AddNote("pool: %d shared workers; field-ops is the classical-equivalent count r·c·(2k−1) the paper's size bounds are stated in; solve identical = a Theorem 4 factorization under this multiplier reproduces the classical solution bit-for-bit from the same randomness stream (n = %d)",
		matrix.PoolWorkers(), solveN)
	return t, nil
}
