package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"math/big"
	"testing"

	"repro/internal/ff"
)

// TestDigestCrossBackend checks the canonicalization contract: the same
// mathematical matrix digests equal whether its field is the Montgomery-form
// word backend or the big-integer backend, because the digest sees canonical
// residue strings, never internal representations.
func TestDigestCrossBackend(t *testing.T) {
	p := ff.P62
	f64 := ff.MustFp64(p)
	fbig, err := ff.NewFpBig(new(big.Int).SetUint64(p))
	if err != nil {
		t.Fatal(err)
	}
	rows := [][]int64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}
	a64 := FromRows[uint64](f64, rows)
	abig := FromRows[*big.Int](fbig, rows)
	d64 := DigestString[uint64](f64, a64)
	dbig := DigestString[*big.Int](fbig, abig)
	if d64 != dbig {
		t.Fatalf("digest differs across backends over the same field:\n  Fp64  %s\n  FpBig %s", d64, dbig)
	}
}

func TestDigestDistinguishesFields(t *testing.T) {
	rows := [][]int64{{1, 2}, {3, 4}}
	f1 := ff.MustFp64(ff.P62)
	f2 := ff.MustFp64(ff.P31)
	if DigestString[uint64](f1, FromRows[uint64](f1, rows)) == DigestString[uint64](f2, FromRows[uint64](f2, rows)) {
		t.Fatal("same entries over different fields must digest differently")
	}
}

// TestDigestEntrySensitivity flips every entry of a random matrix in turn
// and checks each change flips the digest.
func TestDigestEntrySensitivity(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	src := ff.NewSource(7)
	a := Random[uint64](f, src, 5, 5, f.Modulus())
	base := DigestString[uint64](f, a)
	for i := range a.Data {
		old := a.Data[i]
		a.Data[i] = f.Add(old, f.One())
		if DigestString[uint64](f, a) == base {
			t.Fatalf("changing entry %d did not change the digest", i)
		}
		a.Data[i] = old
	}
	if DigestString[uint64](f, a) != base {
		t.Fatal("digest is not a pure function of the entries")
	}
}

// TestDigestShapeFraming: a 2×3 and a 3×2 matrix sharing the same flat data
// must digest differently (dimensions are framed, not inferred).
func TestDigestShapeFraming(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	flat := []uint64{1, 2, 3, 4, 5, 6}
	a := &Dense[uint64]{Rows: 2, Cols: 3, Data: flat}
	b := &Dense[uint64]{Rows: 3, Cols: 2, Data: flat}
	if DigestString[uint64](f, a) == DigestString[uint64](f, b) {
		t.Fatal("2×3 and 3×2 with the same flat data digest equal")
	}
}

func TestDigestDeterministic(t *testing.T) {
	f := ff.MustFp64(ff.P62)
	a := Random[uint64](f, ff.NewSource(1), 8, 8, f.Modulus())
	if Digest[uint64](f, a) != Digest[uint64](f, a) {
		t.Fatal("digest not deterministic")
	}
	if DigestString[uint64](f, a) != DigestString[uint64](f, a.Clone()) {
		t.Fatal("clone digests differently")
	}
}

// BenchmarkDigest times the kpd cache key of a full-width P62 matrix. Its
// allocs/op must not grow with n: entries are formatted into one buffer.
func BenchmarkDigest(b *testing.B) {
	f := ff.MustFp64(ff.P62)
	for _, n := range []int{64, 256} {
		a := Random[uint64](f, ff.NewSource(uint64(n)), n, n, f.Modulus())
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				Digest[uint64](f, a)
			}
		})
	}
}

// referenceDigest is the v1 token stream written the plain way: one
// length-prefixed Field.String token per entry, straight into the hash.
// Digest must agree with it on every matrix.
func referenceDigest[E any](f ff.Field[E], m *Dense[E]) [DigestSize]byte {
	h := sha256.New()
	writeToken(h, []byte("kp/matrix/v1"))
	writeToken(h, []byte(f.Characteristic().String()))
	writeToken(h, []byte(f.Cardinality().String()))
	var dims [16]byte
	binary.BigEndian.PutUint64(dims[0:8], uint64(m.Rows))
	binary.BigEndian.PutUint64(dims[8:16], uint64(m.Cols))
	h.Write(dims[:])
	for _, e := range m.Data {
		writeToken(h, []byte(f.String(e)))
	}
	var out [DigestSize]byte
	h.Sum(out[:0])
	return out
}

// referenceDigestInts is the ring-ℤ reference stream (big.Int.String).
func referenceDigestInts(rows, cols int, data []*big.Int) [DigestSize]byte {
	h := sha256.New()
	writeToken(h, []byte("kp/matrix/zz/v1"))
	var dims [16]byte
	binary.BigEndian.PutUint64(dims[0:8], uint64(rows))
	binary.BigEndian.PutUint64(dims[8:16], uint64(cols))
	h.Write(dims[:])
	for _, e := range data {
		writeToken(h, []byte(e.String()))
	}
	var out [DigestSize]byte
	h.Sum(out[:0])
	return out
}

func writeToken(w io.Writer, b []byte) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(len(b)))
	w.Write(n[:])
	w.Write(b)
}

// FuzzDigest checks Digest (Fp64 and FpBig) and DigestInts against the
// reference token streams on matrices cut from the fuzz input: 8 bytes per
// entry, the first byte of the input picking the field and the row count.
// Large inputs cross the buffer's flush boundary many times.
func FuzzDigest(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(make([]byte, 1+8*64))
	f.Add(append([]byte{0x13}, make([]byte, 8*300)...))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x80, 0, 0, 0, 0, 0, 0, 1})
	type fields struct {
		fp ff.Fp64
		fb ff.FpBig
	}
	var all []fields
	for _, p := range []uint64{ff.P62, ff.PNTT62, 101, 2} {
		fb, err := ff.NewFpBig(new(big.Int).SetUint64(p))
		if err != nil {
			f.Fatal(err)
		}
		all = append(all, fields{ff.MustFp64(p), fb})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		fp, fb := all[int(data[0])%len(all)].fp, all[int(data[0])%len(all)].fb
		p := fp.Modulus()
		words := (len(data) - 1) / 8
		rows := 1 + int(data[0]>>2)%8
		cols := words / rows
		m := &Dense[uint64]{Rows: rows, Cols: cols, Data: make([]uint64, rows*cols)}
		mb := &Dense[*big.Int]{Rows: rows, Cols: cols, Data: make([]*big.Int, rows*cols)}
		ints := make([]*big.Int, rows*cols)
		for i := range m.Data {
			w := binary.LittleEndian.Uint64(data[1+8*i:])
			m.Data[i] = w % p
			mb.Data[i] = new(big.Int).SetUint64(m.Data[i])
			// Signed, and multi-word when the top bit is set.
			ints[i] = big.NewInt(int64(w))
			if w>>63 == 1 {
				ints[i].Mul(ints[i], new(big.Int).SetUint64(w))
			}
		}
		if got, want := Digest[uint64](fp, m), referenceDigest[uint64](fp, m); got != want {
			t.Fatalf("Fp64 over %d, %d×%d: digest %x, reference %x", p, rows, cols, got, want)
		}
		if got, want := Digest[*big.Int](fb, mb), referenceDigest[*big.Int](fb, mb); got != want {
			t.Fatalf("FpBig over %d, %d×%d: digest %x, reference %x", p, rows, cols, got, want)
		}
		if got, want := DigestInts(rows, cols, ints), referenceDigestInts(rows, cols, ints); got != want {
			t.Fatalf("DigestInts %d×%d: digest %x, reference %x", rows, cols, got, want)
		}
	})
}
