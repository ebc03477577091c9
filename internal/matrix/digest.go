package matrix

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math/big"
	"strconv"

	"repro/internal/ff"
)

// Canonical matrix digests for content-addressed factorization caching.
// A digest identifies the mathematical object — the field and the entries —
// not any implementation detail: two matrices digest equal exactly when a
// solve against one is a solve against the other. The kpd server keys its
// kp.Factorization cache on these, so the canonicalization rules below are
// load-bearing:
//
//   - The field enters through its characteristic and cardinality, so F_p as
//     ff.Fp64 and the same F_p as ff.FpBig collide (they are the same field)
//     while F_p and F_q never do.
//   - Entries enter through Field.String, which every backend defines as the
//     canonical residue representation, so internal representation changes
//     cannot split the cache. Fp64 entries are formatted by strconv straight
//     into the token buffer, the same decimal bytes Fp64.String prints.
//   - Dimensions are framed explicitly and every token is length-prefixed,
//     so a 2×3 and a 3×2 matrix with the same flat data differ, and no
//     concatenation of entry strings is ambiguous.
//
// The multiplier, the random source, and every other solve knob are
// deliberately absent: a factorization produced under any of them answers
// queries about the same matrix.

// DigestSize is the size of a matrix digest in bytes.
const DigestSize = sha256.Size

// Digest returns the canonical SHA-256 digest of m over f.
func Digest[E any](f ff.Field[E], m *Dense[E]) [DigestSize]byte {
	t := newTokenStream()
	t.stringToken("kp/matrix/v1")
	t.bigToken(f.Characteristic())
	t.bigToken(f.Cardinality())
	t.dims(m.Rows, m.Cols)
	if _, ok := any(f).(ff.Fp64); ok {
		// Fp64.String prints the residue in decimal.
		for _, e := range any(m.Data).([]uint64) {
			t.uintToken(e)
		}
	} else {
		for _, e := range m.Data {
			t.stringToken(f.String(e))
		}
	}
	return t.sum()
}

// DigestString returns the hex form of Digest — the cache key and the wire
// representation the kpd API reports.
func DigestString[E any](f ff.Field[E], m *Dense[E]) string {
	d := Digest(f, m)
	return hex.EncodeToString(d[:])
}

// DigestInts returns the canonical digest of an integer matrix — the ring-ℤ
// analogue of Digest, under its own domain tag so a ℤ matrix and an F_p
// matrix can never collide. data is row-major with len = rows·cols; entries
// enter as their canonical signed decimal (big.Int.String), so any two
// big.Int representations of the same integer digest equal. The kpd server
// keys the per-prime factorization cache of ring=zz requests on these
// (qualified by the residue prime), so repeat integer matrices skip every
// Krylov phase.
func DigestInts(rows, cols int, data []*big.Int) [DigestSize]byte {
	if len(data) != rows*cols {
		panic("matrix: DigestInts data length does not match dimensions")
	}
	t := newTokenStream()
	t.stringToken("kp/matrix/zz/v1")
	t.dims(rows, cols)
	for _, e := range data {
		t.bigToken(e)
	}
	return t.sum()
}

// DigestIntsString returns the hex form of DigestInts.
func DigestIntsString(rows, cols int, data []*big.Int) string {
	d := DigestInts(rows, cols, data)
	return hex.EncodeToString(d[:])
}

// digestChunk is how many bytes of the token stream a tokenStream gathers
// before one write to the hash.
const digestChunk = 8 << 10

// tokenStream is the digest input: a sequence of tokens, each an 8-byte
// big-endian length followed by its bytes, so the stream is an unambiguous
// framing of its tokens (the dimension frame is the one bare 16-byte
// record). Tokens are formatted straight into one buffer that is hashed in
// digestChunk-sized writes, so a digest allocates the same handful of
// objects whatever the matrix size.
type tokenStream struct {
	h   hash.Hash
	buf []byte
}

func newTokenStream() *tokenStream {
	return &tokenStream{h: sha256.New(), buf: make([]byte, 0, digestChunk+64)}
}

// open reserves a token's length prefix and returns where it starts.
func (t *tokenStream) open() int {
	at := len(t.buf)
	t.buf = append(t.buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return at
}

// close fills in the length prefix of the token opened at at, and hands a
// full buffer to the hash.
func (t *tokenStream) close(at int) {
	binary.BigEndian.PutUint64(t.buf[at:], uint64(len(t.buf)-at-8))
	if len(t.buf) >= digestChunk {
		t.h.Write(t.buf)
		t.buf = t.buf[:0]
	}
}

func (t *tokenStream) stringToken(s string) {
	at := t.open()
	t.buf = append(t.buf, s...)
	t.close(at)
}

// uintToken writes v in decimal, the bytes strconv.FormatUint(v, 10) gives.
func (t *tokenStream) uintToken(v uint64) {
	at := t.open()
	t.buf = strconv.AppendUint(t.buf, v, 10)
	t.close(at)
}

// bigToken writes x in signed decimal, the bytes x.String() gives.
func (t *tokenStream) bigToken(x *big.Int) {
	at := t.open()
	t.buf = x.Append(t.buf, 10)
	t.close(at)
}

// dims writes the bare rows/cols frame.
func (t *tokenStream) dims(rows, cols int) {
	t.buf = binary.BigEndian.AppendUint64(t.buf, uint64(rows))
	t.buf = binary.BigEndian.AppendUint64(t.buf, uint64(cols))
}

func (t *tokenStream) sum() [DigestSize]byte {
	t.h.Write(t.buf)
	var out [DigestSize]byte
	t.h.Sum(out[:0])
	return out
}
