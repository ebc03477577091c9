package structured

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

// The cached-NTT applies must be bit-identical to the schoolbook products.
// A zero-value literal (no ntt cache box) always takes the schoolbook path,
// which gives us the reference oracle without exporting the internals.

func toeplitzOracle[E any](t Toeplitz[E]) Toeplitz[E] { return Toeplitz[E]{N: t.N, D: t.D} }
func hankelOracle[E any](h Hankel[E]) Hankel[E]       { return Hankel[E]{N: h.N, D: h.D} }

func TestToeplitzNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(11)
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
		tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
		ref := toeplitzOracle(tm)
		for rep := 0; rep < 3; rep++ {
			x := ff.SampleVec[uint64](f, src, n, f.Modulus())
			got := tm.MulVec(f, x)
			want := ref.MulVec(f, x)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d rep=%d: NTT apply diverges at %d: %d vs %d", n, rep, i, got[i], want[i])
				}
			}
		}
	}
}

func TestHankelNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(13)
	for _, n := range []int{1, 2, 5, 31, 64} {
		h := NewHankel(ff.SampleVec[uint64](f, src, 2*n-1, f.Modulus()))
		ref := hankelOracle(h)
		x := ff.SampleVec[uint64](f, src, n, f.Modulus())
		got := h.MulVec(f, x)
		want := ref.MulVec(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: Hankel NTT apply diverges at %d", n, i)
			}
		}
		// Dense cross-check closes the loop on the oracle itself.
		dense := h.Dense(f).MulVec(f, x)
		for i := range want {
			if want[i] != dense[i] {
				t.Fatalf("n=%d: schoolbook oracle diverges from dense at %d", n, i)
			}
		}
	}
}

func TestSylvesterNTTApplyMatchesSchoolbook(t *testing.T) {
	f := ff.MustFp64(ff.PNTT62)
	src := ff.NewSource(17)
	for _, degs := range [][2]int{{1, 1}, {3, 2}, {8, 8}, {20, 5}} {
		a := ff.SampleVec[uint64](f, src, degs[0]+1, f.Modulus())
		b := ff.SampleVec[uint64](f, src, degs[1]+1, f.Modulus())
		a[len(a)-1], b[len(b)-1] = f.One(), f.One() // keep degrees exact
		s := NewSylvester(f, a, b)
		ref := Sylvester[uint64]{A: s.A, B: s.B, m: s.m, n: s.n}
		dim, _ := s.Dims()
		x := ff.SampleVec[uint64](f, src, dim, f.Modulus())
		got := s.Apply(f, x)
		want := ref.Apply(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("degs=%v: Sylvester NTT apply diverges at %d", degs, i)
			}
		}
	}
}

// TestStructuredApplyFallbackUnfriendlyPrime: with 2-adicity 1 (M61) no
// usable transform exists at n ≥ 2 and the apply must silently produce the
// schoolbook answer — the satellite regression for the typed-error fallback.
func TestStructuredApplyFallbackUnfriendlyPrime(t *testing.T) {
	f := ff.MustFp64(2305843009213693951) // 2⁶¹ − 1
	src := ff.NewSource(19)
	n := 24
	tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
	x := ff.SampleVec[uint64](f, src, n, f.Modulus())
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("M61 fallback diverges from dense at %d", i)
		}
	}
}

// TestStructuredApplyFallbackP2: the p = 2 sentinel has no fused transform;
// constructor-built matrices must still apply correctly.
func TestStructuredApplyFallbackP2(t *testing.T) {
	f := ff.MustFp64(2)
	tm := NewToeplitz([]uint64{1, 0, 1, 1, 1}) // n = 3
	x := []uint64{1, 1, 0}
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("F_2 fallback diverges from dense at %d", i)
		}
	}
}

// TestStructuredApplyFallbackFpBig: wrapper fields have no fused kernel;
// the cache stays empty and answers match the dense product.
func TestStructuredApplyFallbackFpBig(t *testing.T) {
	f, err := ff.NewFpBig(new(big.Int).SetUint64(ff.PNTT62))
	if err != nil {
		t.Fatal(err)
	}
	src := ff.NewSource(23)
	n := 9
	tm := RandomToeplitz[*big.Int](f, src, n, 1<<20)
	x := ff.SampleVec[*big.Int](f, src, n, 1<<20)
	got := tm.MulVec(f, x)
	want := tm.Dense(f).MulVec(f, x)
	for i := range want {
		if !f.Equal(got[i], want[i]) {
			t.Fatalf("FpBig fallback diverges from dense at %d", i)
		}
	}
}

// FuzzToeplitzNTTApply drives random sizes and entries through both paths.
func FuzzToeplitzNTTApply(fz *testing.F) {
	fz.Add(uint64(1), uint8(4))
	fz.Add(uint64(99), uint8(17))
	fz.Fuzz(func(t *testing.T, seed uint64, nRaw uint8) {
		n := int(nRaw)%40 + 1
		f := ff.MustFp64(ff.PNTT62)
		src := ff.NewSource(seed)
		tm := RandomToeplitz[uint64](f, src, n, f.Modulus())
		x := ff.SampleVec[uint64](f, src, n, f.Modulus())
		got := tm.MulVec(f, x)
		want := toeplitzOracle(tm).MulVec(f, x)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed=%d n=%d: divergence at %d", seed, n, i)
			}
		}
	})
}

// TestStructuredApplyMatchesDenseAcrossSizes checks Toeplitz, Hankel and
// Sylvester applies against the dense product at sizes on both sides of
// each power of two, on the NTT prime (middle-product transform) and on P62
// (no 2-power roots: schoolbook fallback). On the NTT prime the Toeplitz
// and Hankel plans must have the middle-product length nextpow2(2n−1) and
// Sylvester's the full product length nextpow2(n).
func TestStructuredApplyMatchesDenseAcrossSizes(t *testing.T) {
	nextPow2 := func(m int) int {
		l := 1
		for l < m {
			l <<= 1
		}
		return l
	}
	check := func(name string, n int, got, want []uint64) {
		t.Helper()
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s n=%d: apply diverges from dense at %d", name, n, i)
			}
		}
	}
	for _, p := range []uint64{ff.PNTT62, ff.P62} {
		f := ff.MustFp64(p)
		src := ff.NewSource(29)
		for _, n := range []int{1, 2, 3, 4, 5, 127, 128, 129, 255, 256, 257} {
			x := ff.SampleVec[uint64](f, src, n, p)
			tm := RandomToeplitz[uint64](f, src, n, p)
			check("Toeplitz", n, tm.MulVec(f, x), tm.Dense(f).MulVec(f, x))
			h := NewHankel(ff.SampleVec[uint64](f, src, 2*n-1, p))
			check("Hankel", n, h.MulVec(f, x), h.Dense(f).MulVec(f, x))

			m := (n + 1) / 2 // deg a; deg b = n − m, so the operator is n×n
			a := ff.SampleVec[uint64](f, src, m+1, p)
			b := ff.SampleVec[uint64](f, src, n-m+1, p)
			a[m], b[n-m] = f.One(), f.One()
			s := NewSylvester(f, a, b)
			rows := s.Dense(f)
			want := make([]uint64, n)
			for i, row := range rows {
				want[i] = ff.Dot[uint64](f, row, x)
			}
			check("Sylvester", n, s.Apply(f, x), want)

			if p != ff.PNTT62 {
				// A length-1 transform needs no root, so n = 1 may plan.
				if n > 1 && (tm.ntt.ok || h.ntt.ok) {
					t.Fatalf("P62 n=%d: a transform plan was built without 2-power roots", n)
				}
				continue
			}
			if got := tm.ntt.plan.Len(); got != nextPow2(2*n-1) {
				t.Fatalf("Toeplitz n=%d: plan length %d, want %d", n, got, nextPow2(2*n-1))
			}
			if got := h.ntt.plan.Len(); got != nextPow2(2*n-1) {
				t.Fatalf("Hankel n=%d: plan length %d, want %d", n, got, nextPow2(2*n-1))
			}
			if s.antt.ok {
				if got := s.antt.plan.Len(); got != nextPow2(n) {
					t.Fatalf("Sylvester n=%d: plan length %d, want %d", n, got, nextPow2(n))
				}
			}
		}
	}
}
