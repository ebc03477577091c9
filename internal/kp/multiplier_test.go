package kp

import (
	"testing"

	"repro/internal/ff"
	"repro/internal/matrix"
)

// TestSolversIdenticalUnderAllMultipliers is the substrate property test:
// the multiplication black box must be observationally invisible. Over a
// finite field the arithmetic is exact, so for the same randomness stream
// every multiplier — serial, tiled, pooled, Strassen — must drive Factor
// (whose formation of Ã is the Las Vegas route's one dense product), Det
// and the Bunch–Hopcroft inverse to bit-identical results.
func TestSolversIdenticalUnderAllMultipliers(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	gen := ff.NewSource(424242)
	for trial, n := range []int{3, 8, 17, 33} {
		a := matrix.Random[uint64](f, gen, n, n, f.Modulus())
		b := ff.SampleVec[uint64](f, gen, n, f.Modulus())
		seed := uint64(1000 + trial)
		factorSolve := func(mul matrix.Multiplier[uint64]) ([]uint64, error) {
			fa, err := Factor[uint64](f, mul, a, Params{Src: ff.NewSource(seed), Subset: f.Modulus()})
			if err != nil {
				return nil, err
			}
			return fa.Solve(b)
		}

		wantX, err := factorSolve(matrix.Classical[uint64]{})
		if err != nil {
			t.Fatalf("n=%d: classical solve: %v", n, err)
		}
		wantDet, err := Det[uint64](f, matrix.Classical[uint64]{}, a, Params{Src: ff.NewSource(seed), Subset: f.Modulus()})
		if err != nil {
			t.Fatalf("n=%d: classical det: %v", n, err)
		}
		wantInv, err := matrix.InverseBH[uint64](f, matrix.Classical[uint64]{}, a, ff.NewSource(seed), f.Modulus(), 0)
		if err != nil {
			t.Fatalf("n=%d: classical inverse: %v", n, err)
		}

		for _, name := range matrix.Names() {
			mul, err := matrix.ByName[uint64](name)
			if err != nil {
				t.Fatal(err)
			}
			x, err := factorSolve(mul)
			if err != nil {
				t.Fatalf("n=%d %s: solve: %v", n, name, err)
			}
			if !ff.VecEqual[uint64](f, x, wantX) {
				t.Fatalf("n=%d: %s solve differs from classical", n, name)
			}
			d, err := Det[uint64](f, mul, a, Params{Src: ff.NewSource(seed), Subset: f.Modulus()})
			if err != nil {
				t.Fatalf("n=%d %s: det: %v", n, name, err)
			}
			if !f.Equal(d, wantDet) {
				t.Fatalf("n=%d: %s det differs from classical", n, name)
			}
			inv, err := matrix.InverseBH[uint64](f, mul, a, ff.NewSource(seed), f.Modulus(), 0)
			if err != nil {
				t.Fatalf("n=%d %s: inverse: %v", n, name, err)
			}
			if !inv.Equal(f, wantInv) {
				t.Fatalf("n=%d: %s inverse differs from classical", n, name)
			}
		}
	}
}
