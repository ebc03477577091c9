package ff

import (
	"bytes"
	"encoding/binary"
	"math/big"
	"testing"
)

// kernelFields is the set of word primes the differential checks sweep:
// the three documented test primes, the NTT prime, the largest prime below
// 2⁶³ (the widest modulus Fp64 accepts), and F_2 (the generic fallback
// inside the kernel methods).
func kernelFields() []Fp64 {
	return []Fp64{
		MustFp64(P62),
		MustFp64(P31),
		MustFp64(P17),
		MustFp64(PNTT62),
		MustFp64(P63Max),
		MustFp64(2),
	}
}

// kvec fills a deterministic pseudo-random vector over f.
func kvec(f Fp64, seed uint64, n int) []uint64 {
	v := make([]uint64, n)
	x := seed*0x9e3779b97f4a7c15 + 1
	for i := range v {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = x % f.p
	}
	return v
}

// TestKernelsDifferential cross-checks every Kernels primitive against the
// generic per-element loop on randomized inputs, for every field in the
// sweep and a range of lengths straddling the lazy-reduction chunk.
func TestKernelsDifferential(t *testing.T) {
	for _, f := range kernelFields() {
		k, ok := KernelsOf[uint64](f)
		if !ok {
			t.Fatalf("F_%d: Fp64 must implement Kernels", f.p)
		}
		for _, n := range []int{0, 1, 2, 15, 16, 17, 31, 32, 100, 257} {
			a := kvec(f, uint64(n)+1, n)
			b := kvec(f, uint64(n)+2, n)
			s := kvec(f, uint64(n)+3, 1+n)[n]

			// DotInto vs balanced-tree Dot.
			if got, want := k.DotInto(a, b), Dot[uint64](f, a, b); got != want {
				t.Fatalf("F_%d n=%d: DotInto=%d want %d", f.p, n, got, want)
			}

			// ScaleInto vs per-element Mul.
			dst := make([]uint64, n)
			k.ScaleInto(dst, s, a)
			for i := range a {
				if want := f.Mul(s, a[i]); dst[i] != want {
					t.Fatalf("F_%d n=%d: ScaleInto[%d]=%d want %d", f.p, n, i, dst[i], want)
				}
			}

			// MulAddVec vs Add(Mul).
			acc := append([]uint64(nil), b...)
			k.MulAddVec(acc, s, a)
			for i := range a {
				if want := f.Add(b[i], f.Mul(s, a[i])); acc[i] != want {
					t.Fatalf("F_%d n=%d: MulAddVec[%d]=%d want %d", f.p, n, i, acc[i], want)
				}
			}

			// AddInto vs Add.
			sum := append([]uint64(nil), b...)
			k.AddInto(sum, a)
			for i := range a {
				if want := f.Add(b[i], a[i]); sum[i] != want {
					t.Fatalf("F_%d n=%d: AddInto[%d]=%d want %d", f.p, n, i, sum[i], want)
				}
			}

			// SubInto vs Sub.
			diff := append([]uint64(nil), b...)
			k.SubInto(diff, a)
			for i := range a {
				if want := f.Sub(b[i], a[i]); diff[i] != want {
					t.Fatalf("F_%d n=%d: SubInto[%d]=%d want %d", f.p, n, i, diff[i], want)
				}
			}
		}
	}
}

// TestNTTKernelMatchesGenericButterflies checks the fused Montgomery-domain
// transform against a direct evaluation at the root's powers, for every
// odd-modulus field with enough 2-power roots.
func TestNTTKernelMatchesGenericButterflies(t *testing.T) {
	f := MustFp64(PNTT62)
	ker, ok := any(f).(NTTKernel[uint64])
	if !ok {
		t.Fatal("Fp64 must implement NTTKernel")
	}
	for _, log2n := range []int{0, 1, 3, 6, 9} {
		n := 1 << log2n
		root, ok := f.RootOfUnity(log2n)
		if !ok {
			t.Fatalf("no 2^%d-th root", log2n)
		}
		a := kvec(f, uint64(77+log2n), n)
		got := append([]uint64(nil), a...)
		if !ker.NTTInPlace(got, root, log2n) {
			t.Fatal("NTTInPlace refused an odd modulus")
		}
		// Reference: direct DFT, got[i] must equal Σ_j a[j]·root^{ij}.
		for i := 0; i < n; i++ {
			want := f.Zero()
			wi := f.Pow(root, uint64(i))
			x := f.One()
			for j := 0; j < n; j++ {
				want = f.Add(want, f.Mul(a[j], x))
				x = f.Mul(x, wi)
			}
			if got[i] != want {
				t.Fatalf("log2n=%d: NTT[%d]=%d want %d", log2n, i, got[i], want)
			}
		}
	}
}

// TestKernelsGenericHelpers checks the dispatching helpers: over Fp64 they
// take the fused path, over a Counting wrapper (which hides the kernels)
// the generic loop — both must agree with the naive computation, and the
// counted path must still count.
func TestKernelsGenericHelpers(t *testing.T) {
	f := MustFp64(P31)
	cf := NewCounting[uint64](f)
	if _, ok := KernelsOf[uint64](cf); ok {
		t.Fatal("Counting wrapper must not expose kernels (op counts would drift)")
	}
	a := kvec(f, 5, 33)
	b := kvec(f, 6, 33)
	s := uint64(12345)

	if got, want := DotFused[uint64](f, a, b), DotFused[uint64](cf, a, b); got != want {
		t.Fatalf("DotFused fast=%d generic=%d", got, want)
	}
	if cf.Counts().Mul == 0 {
		t.Fatal("generic DotFused path did not count multiplications")
	}

	d1 := append([]uint64(nil), b...)
	d2 := append([]uint64(nil), b...)
	VecMulAddInto[uint64](f, d1, s, a)
	VecMulAddInto[uint64](cf, d2, s, a)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("VecMulAddInto diverges at %d: %d vs %d", i, d1[i], d2[i])
		}
	}

	VecScaleInto[uint64](f, d1, s, a)
	VecScaleInto[uint64](cf, d2, s, a)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("VecScaleInto diverges at %d", i)
		}
	}

	VecAddInto[uint64](f, d1, a)
	VecAddInto[uint64](cf, d2, a)
	for i := range d1 {
		if d1[i] != d2[i] {
			t.Fatalf("VecAddInto diverges at %d", i)
		}
	}
}

// TestMontgomeryRoundTrip checks toMont/fromMont and the REDC multiply
// against big.Int on deterministic values for the documented primes.
func TestMontgomeryRoundTrip(t *testing.T) {
	for _, f := range kernelFields() {
		if f.pInv == 0 {
			continue // F_2 has no Montgomery form
		}
		P := new(big.Int).SetUint64(f.p)
		vals := kvec(f, 99, 64)
		vals = append(vals, 0, 1, f.p-1)
		for _, a := range vals {
			if got := f.fromMont(f.toMont(a)); got != a {
				t.Fatalf("F_%d: fromMont(toMont(%d)) = %d", f.p, a, got)
			}
			for _, b := range []uint64{0, 1, 2, f.p - 1, vals[0]} {
				want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
				want.Mod(want, P)
				if got := f.Mul(a, b); got != want.Uint64() {
					t.Fatalf("F_%d: Mul(%d,%d) = %d want %v", f.p, a, b, got, want)
				}
			}
		}
	}
}

// P63Max is the largest prime below 2⁶³ (2⁶³ − 25); P62 is the largest
// below 2⁶².
const P63Max uint64 = 9223372036854775783

// dotFields are the odd moduli the DotInto reference checks sweep: the NTT
// prime, the largest primes below 2⁶² and 2⁶³, and two small primes whose
// products never reach the accumulator's middle word.
func dotFields() []Fp64 {
	return []Fp64{MustFp64(PNTT62), MustFp64(P62), MustFp64(P31), MustFp64(P17), MustFp64(P63Max)}
}

// bigDot is the math/big reference for DotInto.
func bigDot(p uint64, a, b []uint64) uint64 {
	sum, t := new(big.Int), new(big.Int)
	for i := range a {
		t.SetUint64(a[i])
		sum.Add(sum, t.Mul(t, new(big.Int).SetUint64(b[i])))
	}
	return sum.Mod(sum, new(big.Int).SetUint64(p)).Uint64()
}

// TestDotIntoMatchesBig checks DotInto against exact big-integer sums for
// every length 0–70 and one long vector, on random vectors and on vectors
// of all p−1, whose sums carry out of 2¹²⁸ soonest.
func TestDotIntoMatchesBig(t *testing.T) {
	lengths := make([]int, 0, 72)
	for n := 0; n <= 70; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 4099)
	for _, f := range dotFields() {
		for _, n := range lengths {
			top := make([]uint64, n)
			for i := range top {
				top[i] = f.p - 1
			}
			cases := [][2][]uint64{
				{kvec(f, uint64(n)+11, n), kvec(f, uint64(n)+12, n)},
				{top, top},
				{top, kvec(f, uint64(n)+13, n)},
			}
			for c, ab := range cases {
				if got, want := f.DotInto(ab[0], ab[1]), bigDot(f.p, ab[0], ab[1]); got != want {
					t.Fatalf("F_%d n=%d case %d: DotInto=%d want %d", f.p, n, c, got, want)
				}
			}
		}
	}
}

// FuzzDotInto fuzzes DotInto against the math/big reference: the input
// bytes become two vectors, reduced into the selected field.
func FuzzDotInto(fz *testing.F) {
	fz.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(0))
	fz.Add(bytes.Repeat([]byte{0xff}, 16*33), uint8(4))
	fields := dotFields()
	fz.Fuzz(func(t *testing.T, data []byte, sel uint8) {
		f := fields[int(sel)%len(fields)]
		n := len(data) / 16
		a, b := make([]uint64, n), make([]uint64, n)
		for i := range a {
			a[i] = binary.LittleEndian.Uint64(data[16*i:]) % f.p
			b[i] = binary.LittleEndian.Uint64(data[16*i+8:]) % f.p
		}
		if got, want := f.DotInto(a, b), bigDot(f.p, a, b); got != want {
			t.Fatalf("F_%d n=%d: DotInto=%d want %d", f.p, n, got, want)
		}
	})
}

// FuzzMontgomery fuzzes the Montgomery round trip and REDC multiply against
// the big.Int reference across P62, P31 and P17.
func FuzzMontgomery(fz *testing.F) {
	fz.Add(uint64(3), uint64(5), uint8(0))
	fz.Add(uint64(1)<<61, uint64(1)<<60, uint8(1))
	fz.Add(^uint64(0), ^uint64(0), uint8(2))
	fields := []Fp64{MustFp64(P62), MustFp64(P31), MustFp64(P17)}
	fz.Fuzz(func(t *testing.T, a, b uint64, sel uint8) {
		f := fields[int(sel)%len(fields)]
		a, b = a%f.p, b%f.p
		if got := f.fromMont(f.toMont(a)); got != a {
			t.Fatalf("F_%d: round trip %d -> %d", f.p, a, got)
		}
		P := new(big.Int).SetUint64(f.p)
		want := new(big.Int).Mul(new(big.Int).SetUint64(a), new(big.Int).SetUint64(b))
		want.Mod(want, P)
		if got := f.Mul(a, b); got != want.Uint64() {
			t.Fatalf("F_%d: Mul(%d,%d) = %d want %v", f.p, a, b, got, want)
		}
		// Pow/Inv ride the same REDC ladder: spot-check a·a⁻¹ = 1.
		if a != 0 {
			inv, err := f.Inv(a)
			if err != nil {
				t.Fatalf("F_%d: Inv(%d): %v", f.p, a, err)
			}
			if f.Mul(a, inv) != 1 {
				t.Fatalf("F_%d: %d·Inv = %d", f.p, a, f.Mul(a, inv))
			}
		}
	})
}

// BenchmarkDotInto times the fused dot at the solver's dimension on the
// NTT prime.
func BenchmarkDotInto(b *testing.B) {
	f := MustFp64(PNTT62)
	x, y := kvec(f, 1, 256), kvec(f, 2, 256)
	var sink uint64
	for b.Loop() {
		sink = f.DotInto(x, y)
	}
	_ = sink
}
