package ff

import "math/bits"

// Fused, allocation-free vector kernels — the fast-arithmetic backend the
// dense hot paths dispatch to. A field that implements Kernels promises
// that the primitives compute exactly the same field elements as the
// corresponding per-element loops of Add/Mul, only faster: the matrix,
// sequence and polynomial layers type-assert for the interface and fall
// back to the generic loops otherwise, so abstract fields (FpBig, FpExt,
// Rat) and the instrumented wrappers (Counting, the circuit Builder) keep
// their exact per-operation semantics — op counts and traced circuit shape
// are unchanged because those wrappers simply do not implement Kernels.
type Kernels[E any] interface {
	// MulAddVec sets dst[i] = dst[i] + s·a[i] for all i; len(dst) must
	// equal len(a).
	MulAddVec(dst []E, s E, a []E)
	// DotInto returns ⟨a, b⟩ without allocating; slices must have equal
	// length.
	DotInto(a, b []E) E
	// ScaleInto sets dst[i] = s·a[i]; dst may alias a.
	ScaleInto(dst []E, s E, a []E)
	// AddInto sets dst[i] = dst[i] + a[i].
	AddInto(dst []E, a []E)
	// SubInto sets dst[i] = dst[i] − a[i].
	SubInto(dst []E, a []E)
}

// KernelsOf returns the fused kernels of f, if it provides them.
func KernelsOf[E any](f Field[E]) (Kernels[E], bool) {
	k, ok := any(f).(Kernels[E])
	return k, ok
}

// VecScaleInto sets dst[i] = s·a[i] (dst may alias a), through the fused
// kernels when the field has them. The in-place variant of VecScale.
func VecScaleInto[E any](f Field[E], dst []E, s E, a []E) {
	mustSameLen(len(dst), len(a))
	if k, ok := KernelsOf(f); ok {
		k.ScaleInto(dst, s, a)
		return
	}
	for i := range a {
		dst[i] = f.Mul(s, a[i])
	}
}

// VecAddInto sets dst[i] = dst[i] + a[i]. The in-place variant of VecAdd.
func VecAddInto[E any](f Field[E], dst, a []E) {
	mustSameLen(len(dst), len(a))
	if k, ok := KernelsOf(f); ok {
		k.AddInto(dst, a)
		return
	}
	for i := range a {
		dst[i] = f.Add(dst[i], a[i])
	}
}

// VecSubInto sets dst[i] = dst[i] − a[i]. The in-place variant of VecSub.
func VecSubInto[E any](f Field[E], dst, a []E) {
	mustSameLen(len(dst), len(a))
	if k, ok := KernelsOf(f); ok {
		k.SubInto(dst, a)
		return
	}
	for i := range a {
		dst[i] = f.Sub(dst[i], a[i])
	}
}

// VecMulAddInto sets dst[i] = dst[i] + s·a[i] — the fused saxpy primitive
// of the dense kernels.
func VecMulAddInto[E any](f Field[E], dst []E, s E, a []E) {
	mustSameLen(len(dst), len(a))
	if k, ok := KernelsOf(f); ok {
		k.MulAddVec(dst, s, a)
		return
	}
	for i := range a {
		dst[i] = f.Add(dst[i], f.Mul(s, a[i]))
	}
}

// DotFused returns ⟨a, b⟩ through the fused kernels when available. The
// fallback is the balanced-tree Dot, so traced circuits keep their
// O(log n) accumulation depth and counted fields their exact op totals;
// only concrete kernel-bearing fields take the sequential fused path (a
// field is commutative-associative, so the value is identical).
func DotFused[E any](f Field[E], a, b []E) E {
	if k, ok := KernelsOf(f); ok {
		mustSameLen(len(a), len(b))
		return k.DotInto(a, b)
	}
	return Dot(f, a, b)
}

// --- Fp64 implementation -------------------------------------------------

// MulAddVec sets dst[i] += s·a[i]. The scalar is converted to Montgomery
// form once, so each element costs a single wide multiply plus one REDC —
// no divisions anywhere in the loop.
func (f Fp64) MulAddVec(dst []uint64, s uint64, a []uint64) {
	mustSameLen(len(dst), len(a))
	if f.pInv == 0 {
		for i := range a {
			dst[i] = f.Add(dst[i], s&a[i])
		}
		return
	}
	sm := f.toMont(s)
	p := f.p
	for i, ai := range a {
		hi, lo := bits.Mul64(sm, ai)
		d := dst[i] + f.redc(hi, lo) // both < p < 2⁶³: no overflow
		if d >= p {
			d -= p
		}
		dst[i] = d
	}
}

// ScaleInto sets dst[i] = s·a[i] at one REDC per element.
func (f Fp64) ScaleInto(dst []uint64, s uint64, a []uint64) {
	mustSameLen(len(dst), len(a))
	if f.pInv == 0 {
		for i := range a {
			dst[i] = s & a[i]
		}
		return
	}
	sm := f.toMont(s)
	for i, ai := range a {
		hi, lo := bits.Mul64(sm, ai)
		dst[i] = f.redc(hi, lo)
	}
}

// AddInto sets dst[i] += a[i].
func (f Fp64) AddInto(dst []uint64, a []uint64) {
	mustSameLen(len(dst), len(a))
	p := f.p
	for i, ai := range a {
		d := dst[i] + ai
		if d >= p {
			d -= p
		}
		dst[i] = d
	}
}

// SubInto sets dst[i] −= a[i].
func (f Fp64) SubInto(dst []uint64, a []uint64) {
	mustSameLen(len(dst), len(a))
	p := f.p
	for i, ai := range a {
		d := dst[i] - ai
		if dst[i] < ai {
			d += p
		}
		dst[i] = d
	}
}

// DotInto returns ⟨a, b⟩ with one reduction per dot and no division. For
// odd p < 2⁶³ every product is below 2¹²⁶, so raw 128-bit products sum
// exactly into 192-bit accumulators (the top word counts carries out of
// 2¹²⁸). Two independent lanes take the even and odd terms, so their carry
// chains overlap. The lanes are merged and the 192-bit total reduced by
// REDC at the end; F_2 runs the generic loop.
func (f Fp64) DotInto(a, b []uint64) uint64 {
	mustSameLen(len(a), len(b))
	if f.pInv == 0 {
		var d uint64
		for i := range a {
			d = f.Add(d, a[i]&b[i])
		}
		return d
	}
	var lo0, hi0, top0, lo1, hi1, top1, c uint64
	b = b[:len(a)]
	for i := 1; i < len(a); i += 2 {
		ph, pl := bits.Mul64(a[i-1], b[i-1])
		lo0, c = bits.Add64(lo0, pl, 0)
		hi0, c = bits.Add64(hi0, ph, c)
		top0 += c
		ph, pl = bits.Mul64(a[i], b[i])
		lo1, c = bits.Add64(lo1, pl, 0)
		hi1, c = bits.Add64(hi1, ph, c)
		top1 += c
	}
	if len(a)%2 == 1 {
		ph, pl := bits.Mul64(a[len(a)-1], b[len(a)-1])
		lo0, c = bits.Add64(lo0, pl, 0)
		hi0, c = bits.Add64(hi0, ph, c)
		top0 += c
	}
	lo, c := bits.Add64(lo0, lo1, 0)
	hi, c := bits.Add64(hi0, hi1, c)
	top := top0 + top1 + c
	// The total V = top·2¹²⁸ + hi·2⁶⁴ + lo is < len·p², and len·p < 2¹²⁶,
	// so top < p. REDC takes (top, hi) to (top·2⁶⁴ + hi)·R⁻¹, a
	// multiplication by R² turns that into the high word (top·2⁶⁴ + hi)
	// mod p, a second REDC gives V·R⁻¹ and a last multiplication by R²
	// gives V mod p.
	h := f.mulRedc(f.redc(top, hi), f.r2)
	return f.mulRedc(f.redc(h, lo), f.r2)
}

var _ Kernels[uint64] = Fp64{}
