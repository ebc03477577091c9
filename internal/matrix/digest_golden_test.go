package matrix

import (
	"math/big"
	"testing"

	"repro/internal/ff"
)

// goldenDigests are the hex digests of goldenMatrix and goldenInts as the
// v1 token stream defined them when it was first recorded. kpd keys its
// factorization cache and its response digest on these values, so an
// implementation change that moves any of them is a wire-format change.
var goldenDigests = map[string]string{
	"P62":    "fd4fc9185320e52e780fd5da390658ef3ac496bbe825ed828a0e6a48a7e295be",
	"PNTT62": "01458017bdb563c8d3646d1d9f56d204276b6f3bb189856729a5b34e1e509998",
	"F101":   "be753f746ded0312b172d40dd1348836696b178332adb8e601e16b6610c3149a",
	"F2":     "0dda4586abbcfa46fba3ef68f1bd94e898dfa7b40984f6e13254cd36a628fa02",
	"ints":   "7b8f6e5bf0ba5b143ab57da735b736929fe12f2d07821abd60a8f22215045305",
}

type goldenFieldCase struct {
	name string
	f    ff.Fp64
}

func goldenFieldCases() []goldenFieldCase {
	return []goldenFieldCase{
		{"P62", ff.MustFp64(ff.P62)},
		{"PNTT62", ff.MustFp64(ff.PNTT62)},
		{"F101", ff.MustFp64(101)},
		{"F2", ff.MustFp64(2)},
	}
}

// goldenMatrix is a deterministic 6×5 matrix over F_p holding 0, 1, p−1
// and pseudo-random residues of every width up to the modulus.
func goldenMatrix(p uint64) *Dense[uint64] {
	src := ff.NewSource(20240601)
	m := &Dense[uint64]{Rows: 6, Cols: 5, Data: make([]uint64, 30)}
	for i := range m.Data {
		m.Data[i] = src.Uint64n(p) >> (uint(i) % 64)
	}
	m.Data[0], m.Data[7], m.Data[29] = 0, 1, p-1
	return m
}

// goldenInts is a deterministic 4×3 integer matrix with zero, negative
// and multi-word entries.
func goldenInts() (int, int, []*big.Int) {
	big1, _ := new(big.Int).SetString("-123456789012345678901234567890", 10)
	big2 := new(big.Int).Lsh(big.NewInt(1), 200)
	vals := []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(-1),
		big.NewInt(42), big1, big2,
		big.NewInt(-9223372036854775808), new(big.Int).SetUint64(18446744073709551615), big.NewInt(7),
		big.NewInt(-100), big.NewInt(100), new(big.Int).Neg(big2),
	}
	return 4, 3, vals
}

// TestDigestGolden pins Digest over Fp64 and over FpBig, and DigestInts, to
// the recorded values.
func TestDigestGolden(t *testing.T) {
	for _, c := range goldenFieldCases() {
		m := goldenMatrix(c.f.Modulus())
		if got := DigestString[uint64](c.f, m); got != goldenDigests[c.name] {
			t.Errorf("Fp64 %s: digest %s, want %s", c.name, got, goldenDigests[c.name])
		}
		fb, err := ff.NewFpBig(new(big.Int).SetUint64(c.f.Modulus()))
		if err != nil {
			t.Fatal(err)
		}
		mb := &Dense[*big.Int]{Rows: m.Rows, Cols: m.Cols, Data: make([]*big.Int, len(m.Data))}
		for i, v := range m.Data {
			mb.Data[i] = new(big.Int).SetUint64(v)
		}
		if got := DigestString[*big.Int](fb, mb); got != goldenDigests[c.name] {
			t.Errorf("FpBig %s: digest %s, want %s", c.name, got, goldenDigests[c.name])
		}
	}
	r, c, data := goldenInts()
	if got := DigestIntsString(r, c, data); got != goldenDigests["ints"] {
		t.Errorf("DigestInts: digest %s, want %s", got, goldenDigests["ints"])
	}
}
