package rns

import (
	"math/big"
	"strings"
	"testing"

	"repro/internal/ff"
)

// TestReduceModPaths: the int64 fast path and the big.Int slow path agree,
// including on negative entries and entries beyond the word size.
func TestReduceModPaths(t *testing.T) {
	p := uint64(ff.P62)
	huge := new(big.Int).Lsh(big.NewInt(1), 100)
	entries := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(1 << 62), big.NewInt(-(1 << 62)),
		huge, new(big.Int).Neg(huge),
	}
	got := make([]uint64, len(entries))
	ReduceVecMod(entries, p, got)
	tmp := new(big.Int)
	pb := new(big.Int).SetUint64(p)
	for i, e := range entries {
		want := tmp.Mod(e, pb).Uint64()
		if got[i] != want {
			t.Fatalf("entry %s: reduced to %d, want %d", e, got[i], want)
		}
		if got[i] >= p {
			t.Fatalf("entry %s: residue %d not canonical", e, got[i])
		}
	}
}

// TestHadamardBoundDominatesDet on a matrix with a known determinant.
func TestHadamardBoundDominatesDet(t *testing.T) {
	a := IntMatFromInt64([][]int64{
		{3, -1, 2},
		{0, 4, -5},
		{7, 1, 1},
	})
	// det = 3(4+5) − (−1)(0+35) + 2(0−28) = 27 + 35 − 56 = 6.
	bound := HadamardBound(a)
	if bound.Cmp(big.NewInt(6)) < 0 {
		t.Fatalf("Hadamard bound %s below |det| = 6", bound)
	}
	// SolveBound dominates the plain determinant bound.
	b := []*big.Int{big.NewInt(1), big.NewInt(-2), big.NewInt(3)}
	if SolveBound(a, b).Cmp(bound) < 0 {
		t.Fatal("SolveBound below HadamardBound")
	}
}

// TestIntMatDigest: content-addressed, entry-sensitive, representation-
// independent.
func TestIntMatDigest(t *testing.T) {
	a := IntMatFromInt64([][]int64{{1, 2}, {3, -4}})
	b := IntMatFromInt64([][]int64{{1, 2}, {3, -4}})
	if a.Digest() != b.Digest() {
		t.Fatal("equal matrices digest differently")
	}
	b.Set(1, 1, big.NewInt(4))
	if a.Digest() == b.Digest() {
		t.Fatal("entry flip did not change the digest")
	}
	// A big.Int built differently for the same value digests equal.
	c := NewIntMat(2, 2)
	c.Set(0, 0, big.NewInt(1))
	c.Set(0, 1, new(big.Int).SetUint64(2))
	c.Set(1, 0, new(big.Int).Sub(big.NewInt(10), big.NewInt(7)))
	c.Set(1, 1, big.NewInt(-4))
	if a.Digest() != c.Digest() {
		t.Fatal("same values, different construction: digests differ")
	}
}

// TestRatVecNormalize: lowest-terms invariants, including the all-zero
// vector and a negative denominator.
func TestRatVecNormalize(t *testing.T) {
	v := &RatVec{
		Num: []*big.Int{big.NewInt(-4), big.NewInt(6), big.NewInt(0)},
		Den: big.NewInt(-8),
	}
	v.Normalize()
	if v.Den.Cmp(big.NewInt(4)) != 0 {
		t.Fatalf("den = %s, want 4", v.Den)
	}
	for i, w := range []int64{2, -3, 0} {
		if v.Num[i].Cmp(big.NewInt(w)) != 0 {
			t.Fatalf("num[%d] = %s, want %d", i, v.Num[i], w)
		}
	}
	z := &RatVec{Num: []*big.Int{big.NewInt(0), big.NewInt(0)}, Den: big.NewInt(12)}
	z.Normalize()
	if z.Den.Cmp(big.NewInt(1)) != 0 || !z.IsInt() {
		t.Fatalf("zero vector normalized to den %s, want 1", z.Den)
	}
	if got := z.Rat(0).RatString(); got != "0" {
		t.Fatalf("Rat(0) = %s, want 0", got)
	}
}

// TestParseVerifyMode pins the mode parsing idiom: "" is the
// safe default, junk fails loudly.
func TestParseVerifyMode(t *testing.T) {
	if m, err := ParseVerifyMode(""); err != nil || m != VerifyOn {
		t.Fatalf(`ParseVerifyMode("") = %q, %v`, m, err)
	}
	if m, err := ParseVerifyMode("off"); err != nil || m != VerifyOff {
		t.Fatalf(`ParseVerifyMode("off") = %q, %v`, m, err)
	}
	if _, err := ParseVerifyMode("maybe"); err == nil || !strings.Contains(err.Error(), "maybe") {
		t.Fatalf("ParseVerifyMode(maybe) err = %v, want named-field error", err)
	}
}
