// Package rns is the number-theoretic substrate of exact solving over ℤ
// and ℚ: residue-number-system (RNS) parameters, integer/rational matrix
// and result types, certified Hadamard/Cramer prime-count bounds, Chinese
// remainder combination, and rational reconstruction (the half-gcd lattice
// step). It is pure bookkeeping — the residue solves themselves are driven
// by kp.IntEngine, which imports this package; rns imports only the field,
// matrix and error layers, so every layer above (kp, core, server, the
// CLIs) can share its types without cycles.
//
// The paper's abstract-field claim is what makes the whole scheme work:
// the same Theorem 4 code runs unchanged over every residue field F_p, so
// a characteristic-0 problem (§5: integer determinants, least squares over
// ℚ) becomes an embarrassingly parallel family of word-sized solves plus
// the reconstruction in this package.
package rns

import (
	"fmt"
	"math/big"

	"repro/internal/errs"
	"repro/internal/matrix"
)

// Error taxonomy (shared sentinels; errors.Is matches across layers).
var (
	// ErrBoundTooSmall reports a forced prime set too small for the answer.
	ErrBoundTooSmall = errs.ErrBoundTooSmall
	// ErrReconstructFailed reports a failed rational reconstruction.
	ErrReconstructFailed = errs.ErrReconstructFailed
	// ErrSingular reports a matrix singular over ℚ.
	ErrSingular = errs.ErrSingular
	// ErrBadShape reports mismatched dimensions.
	ErrBadShape = errs.ErrBadShape
)

// VerifyMode selects the a-posteriori exact check of a multi-modulus run.
type VerifyMode string

const (
	// VerifyOn (the default; "" resolves to it) checks the reconstructed
	// answer exactly: A·num = den·b over ℤ for solves, a fresh check-prime
	// residue comparison for determinants. The check upgrades the CRT
	// pipeline from "correct if the bound arithmetic is right" to
	// "verified", at the cost of one O(n²) big-integer pass (solve) or one
	// extra residue solve (det).
	VerifyOn VerifyMode = "on"
	// VerifyOff skips the check — for benchmarking the raw pipeline or
	// when the certified bound is trusted.
	VerifyOff VerifyMode = "off"
)

// ParseVerifyMode validates a mode string ("" selects VerifyOn).
func ParseVerifyMode(s string) (VerifyMode, error) {
	switch VerifyMode(s) {
	case "", VerifyOn:
		return VerifyOn, nil
	case VerifyOff:
		return VerifyOff, nil
	}
	return "", fmt.Errorf("rns: unknown verify mode %q (want %q or %q)", s, VerifyOn, VerifyOff)
}

// Params configures a multi-modulus run. The zero value is ready to use:
// the prime count is certified from the Hadamard/Cramer bound of the
// actual input, primes are 62-bit NTT-friendly, and verification is on.
type Params struct {
	// Primes, when positive, forces the residue count instead of deriving
	// it from Bound. A forced count too small for the answer surfaces as
	// ErrBoundTooSmall (the verification or reconstruction catches it);
	// the certified default cannot undershoot.
	Primes int
	// Bound, when non-nil, overrides the certified magnitude bound: the
	// engine promises only that answers with |numerator| and |denominator|
	// ≤ Bound reconstruct correctly. Nil derives the Hadamard/Cramer bound
	// from the input — always safe, sometimes pessimistic (more residues
	// than a lucky answer needs).
	Bound *big.Int
	// Verify selects the a-posteriori exact check ("" = VerifyOn).
	Verify VerifyMode
	// Workers bounds the residue solves running concurrently; 0 selects
	// GOMAXPROCS. Residue solves are fully independent, so this is the
	// embarrassingly-parallel axis of the engine.
	Workers int
	// PrimeBits is the residue prime size in bits (0 = 62, the largest the
	// Fp64 lazy-reduction kernels accept). Smaller primes mean more
	// residues for the same bound — only useful in tests that want to
	// exercise many residues cheaply.
	PrimeBits int
	// Log2n is the guaranteed two-adicity of the generated primes
	// (0 = 2^20); every residue field supports NTT sizes up to 2^Log2n, so
	// the cached-NTT Hankel applies of the preconditioner are available
	// per residue.
	Log2n int
}

// Fill resolves the zero values of p to their defaults.
func (p Params) Fill() Params {
	if p.Verify == "" {
		p.Verify = VerifyOn
	}
	if p.PrimeBits == 0 {
		p.PrimeBits = 62
	}
	if p.Log2n == 0 {
		p.Log2n = 20
	}
	return p
}

// IntMat is a dense n×m matrix over ℤ. Entries are treated as immutable
// (shared, never written through) once the matrix is built.
type IntMat struct {
	Rows, Cols int
	Data       []*big.Int // row-major, len = Rows·Cols
}

// NewIntMat returns a zero rows×cols integer matrix.
func NewIntMat(rows, cols int) *IntMat {
	if rows < 0 || cols < 0 {
		panic("rns: negative dimension")
	}
	m := &IntMat{Rows: rows, Cols: cols, Data: make([]*big.Int, rows*cols)}
	for i := range m.Data {
		m.Data[i] = new(big.Int)
	}
	return m
}

// IntMatFromInt64 builds an IntMat from int64 rows (must be rectangular).
func IntMatFromInt64(rows [][]int64) *IntMat {
	r := len(rows)
	c := 0
	if r > 0 {
		c = len(rows[0])
	}
	m := &IntMat{Rows: r, Cols: c, Data: make([]*big.Int, 0, r*c)}
	for _, row := range rows {
		if len(row) != c {
			panic("rns: ragged rows")
		}
		for _, v := range row {
			m.Data = append(m.Data, big.NewInt(v))
		}
	}
	return m
}

// At returns the (i, j) entry.
func (m *IntMat) At(i, j int) *big.Int { return m.Data[i*m.Cols+j] }

// Set sets the (i, j) entry (the big.Int is stored, not copied).
func (m *IntMat) Set(i, j int, v *big.Int) { m.Data[i*m.Cols+j] = v }

// Digest returns the canonical content digest of the matrix — the ring-ℤ
// cache key (matrix.DigestIntsString).
func (m *IntMat) Digest() string {
	return matrix.DigestIntsString(m.Rows, m.Cols, m.Data)
}

// ReduceMod writes the residues of m's entries modulo p into dst (len
// Rows·Cols, row-major), as canonical representatives in [0, p). Entries
// that fit in an int64 take a division-free word path; only genuinely big
// entries pay a big.Int Mod.
func (m *IntMat) ReduceMod(p uint64, dst []uint64) {
	reduceSlice(m.Data, p, dst)
}

// ReduceVecMod is ReduceMod for a plain ℤ vector.
func ReduceVecMod(v []*big.Int, p uint64, dst []uint64) {
	reduceSlice(v, p, dst)
}

func reduceSlice(src []*big.Int, p uint64, dst []uint64) {
	if len(dst) != len(src) {
		panic("rns: reduce destination length mismatch")
	}
	var tmp big.Int
	for i, e := range src {
		if e.IsInt64() {
			v := e.Int64() % int64(p)
			if v < 0 {
				v += int64(p)
			}
			dst[i] = uint64(v)
			continue
		}
		tmp.Mod(e, tmp.SetUint64(p)) // Mod result is in [0, p) for p > 0
		dst[i] = tmp.Uint64()
	}
}

// RatVec is the solution of an integer/rational system in lowest common
// form: X[i] = Num[i] / Den with Den > 0 and gcd(gcd_i Num[i], Den) = 1.
type RatVec struct {
	Num []*big.Int
	Den *big.Int
}

// Len returns the vector length.
func (v *RatVec) Len() int { return len(v.Num) }

// Rat returns the i-th coordinate as a big.Rat.
func (v *RatVec) Rat(i int) *big.Rat {
	return new(big.Rat).SetFrac(v.Num[i], v.Den)
}

// Rats returns all coordinates as big.Rat values.
func (v *RatVec) Rats() []*big.Rat {
	out := make([]*big.Rat, len(v.Num))
	for i := range out {
		out[i] = v.Rat(i)
	}
	return out
}

// IsInt reports whether every coordinate is an integer (Den == 1).
func (v *RatVec) IsInt() bool { return v.Den.Cmp(bigOne) == 0 }

// Normalize divides out the gcd of all numerators and the denominator and
// fixes Den > 0, producing the canonical lowest-common-denominator form.
func (v *RatVec) Normalize() {
	if v.Den.Sign() == 0 {
		panic("rns: zero denominator")
	}
	g := new(big.Int).Abs(v.Den)
	for _, n := range v.Num {
		// Zero numerators divide everything; big.Int.GCD rejects
		// non-positive operands, so skip them.
		if n.Sign() == 0 || g.Cmp(bigOne) == 0 {
			continue
		}
		g.GCD(nil, nil, g, new(big.Int).Abs(n))
	}
	if v.Den.Sign() < 0 {
		g.Neg(g)
	}
	if g.Cmp(bigOne) != 0 {
		v.Den.Quo(v.Den, g)
		for _, n := range v.Num {
			n.Quo(n, g)
		}
	}
}

var bigOne = big.NewInt(1)
