package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/bits"
	"net/http"
	"slices"
	"time"
)

// Request decoding. Every body is bounded in bytes and in time and goes to
// one of two parsers:
//
//   - parseSolveRequest, a direct parser for the shape json.Marshal of an
//     F_p SolveRequest has: keys "p", "a", "b", "bs", "deadline_ms" and
//     "ring", exact lowercase and each at most once; unsigned decimal
//     integers; ASCII strings without escapes; nothing but whitespace
//     after the object. It parses the body read whole into memory and
//     allocates only the request's own slices.
//   - the strict json.Decoder, for every body the direct parser declines:
//     ring zz/qq bodies, unknown, cased or repeated keys, null, signs,
//     fractions, exponents, values above the field's range, escapes and
//     trailing bytes. These bodies get exactly the result they always had.
//     One the direct parser declines within its first bytes is streamed
//     to the decoder, as every body was before the direct parser.
//
// The direct parser accepts only bodies on which the strict decoder
// succeeds with the same struct (FuzzDecodeRequest), so which parser ran
// never shows in a response.

// bodyReadTimeout bounds how long a client may take to send a request
// body, counted from when its handler starts reading, so a client that
// trickles its body cannot hold a connection and a request slot until the
// request deadline.
const defaultBodyReadTimeout = 30 * time.Second

// bodyReadTimeout is the default; tests shorten it.
var bodyReadTimeout = defaultBodyReadTimeout

// maxBodyPresize caps the buffer reserved from a declared Content-Length,
// so a client declaring a large body it never sends cannot make the server
// allocate ahead of the bytes that arrive.
const maxBodyPresize = 1 << 20

// sniffLen is how much of a body decodeBody reads before it chooses a
// parser. The bodies meant for the strict decoder (ring zz/qq, unknown
// keys, null) show it within their first few keys, and a short prefix
// keeps the direct parser's trial run on it cheap.
const sniffLen = 512

// decodeBody decodes r's JSON body into req, which must be zero: a typo'd
// or unsupported top-level field is a client bug the server must name, not
// silently ignore. It reads at most limit bytes, and the whole body,
// trailing bytes included, within bodyReadTimeout. The deadline is lifted
// once the body is in: from then on net/http reads the connection to
// notice a client disconnect and cancels the request context if that read
// fails, so a live deadline would cancel the solve. After a failed read
// the deadline stays, so the server's own drain of the unread body is
// bounded too.
//
// A body whose first sniffLen bytes already rule out the direct parser is
// streamed to the strict decoder, which then holds the only whole copy of
// it; any other body is read whole and parsed from memory.
func decodeBody(w http.ResponseWriter, r *http.Request, limit int64, req *SolveRequest) error {
	rc := http.NewResponseController(w)
	// A writer without a connection (httptest.ResponseRecorder) reports
	// ErrNotSupported; its body is in memory already.
	_ = rc.SetReadDeadline(time.Now().Add(bodyReadTimeout))
	body := http.MaxBytesReader(nil, r.Body, limit)
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 {
		buf.Grow(int(min(n, limit, maxBodyPresize)) + bytes.MinRead)
	}
	switch _, err := io.CopyN(&buf, body, sniffLen); {
	case err == io.EOF:
		// The whole body is in buf.
	case err != nil:
		return err
	case directDeclines(buf.Bytes()):
		if err := decodeStrict(io.MultiReader(&buf, body), req); err != nil {
			return err
		}
		if _, err := io.Copy(io.Discard, body); err != nil {
			return err
		}
		_ = rc.SetReadDeadline(time.Time{})
		return nil
	default:
		if _, err := buf.ReadFrom(body); err != nil {
			return err
		}
	}
	_ = rc.SetReadDeadline(time.Time{})
	if parseSolveRequest(buf.Bytes(), req) {
		return nil
	}
	return decodeStrict(bytes.NewReader(buf.Bytes()), req)
}

// decodeStrict decodes the first JSON value read from body into req,
// rejecting unknown fields. Bytes after that value are ignored.
func decodeStrict(body io.Reader, req *SolveRequest) error {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// parseSolveRequest fills req from body and reports true when body has the
// direct parser's shape (see the top of this file); otherwise it leaves
// req untouched and reports false.
func parseSolveRequest(body []byte, req *SolveRequest) bool {
	p := reqParser{b: body}
	return p.request(req)
}

// directDeclines reports whether the direct parser refuses a body that
// begins with prefix whatever follows it: it stopped at a byte inside
// prefix, and it never looks ahead of the byte it stops at.
func directDeclines(prefix []byte) bool {
	p := reqParser{b: prefix}
	var r SolveRequest
	return !p.request(&r) && p.i < len(prefix)
}

// request parses a whole body into req; see parseSolveRequest.
func (p *reqParser) request(req *SolveRequest) bool {
	var r SolveRequest
	if !p.next('{') {
		return false
	}
	if !p.next('}') {
		var seen uint8
		for {
			key, ok := p.key()
			if !ok || !p.next(':') {
				return false
			}
			var bit uint8
			switch string(key) {
			case "p":
				bit = 1 << 0
				r.P, ok = p.uint(math.MaxUint64)
			case "a":
				bit = 1 << 1
				r.A, ok = p.uintRows()
			case "b":
				bit = 1 << 2
				r.B, ok = p.uints(len(r.A))
			case "bs":
				bit = 1 << 3
				r.Bs, ok = p.uintRows()
			case "deadline_ms":
				bit = 1 << 4
				var d uint64
				d, ok = p.uint(math.MaxInt64)
				r.DeadlineMS = int64(d)
			case "ring":
				bit = 1 << 5
				r.Ring, ok = p.str()
			default:
				return false
			}
			if !ok || seen&bit != 0 {
				return false
			}
			seen |= bit
			if p.next('}') {
				break
			}
			if !p.next(',') {
				return false
			}
		}
	}
	p.space()
	if p.i != len(p.b) {
		return false
	}
	*req = r
	return true
}

// reqParser is the direct parser's cursor over a request body.
type reqParser struct {
	b []byte
	i int
}

// space skips JSON whitespace.
func (p *reqParser) space() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// next consumes c after optional whitespace, reporting whether it was
// there.
func (p *reqParser) next(c byte) bool {
	p.space()
	if p.i < len(p.b) && p.b[p.i] == c {
		p.i++
		return true
	}
	return false
}

// uint parses an unsigned decimal integer no larger than max. Nineteen
// digits always fit 64 bits, so only a twentieth is checked for overflow;
// a twenty-first, a sign, a fraction or an exponent fails at the caller's
// next structural byte. A leading zero on a longer literal is not JSON.
func (p *reqParser) uint(max uint64) (uint64, bool) {
	p.space()
	b, start := p.b, p.i
	i, end := start, min(len(b), start+19)
	var v uint64
	for ; i < end; i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	if i == start+19 && i < len(b) {
		if c := b[i] - '0'; c <= 9 {
			hi, lo := bits.Mul64(v, 10)
			lo, carry := bits.Add64(lo, uint64(c), 0)
			if hi|carry != 0 {
				return 0, false
			}
			v = lo
			i++
		}
	}
	p.i = i
	if n := i - start; n == 0 || n > 1 && b[start] == '0' || v > max {
		return 0, false
	}
	return v, true
}

// appendUints parses an array of unsigned integers and appends its
// entries to out.
func (p *reqParser) appendUints(out []uint64) ([]uint64, bool) {
	if !p.next('[') {
		return nil, false
	}
	if p.next(']') {
		return out, true
	}
	for {
		v, ok := p.uint(math.MaxUint64)
		if !ok {
			return nil, false
		}
		out = append(out, v)
		if p.next(']') {
			return out, true
		}
		if !p.next(',') {
			return nil, false
		}
	}
}

// uints parses an array of unsigned integers; [] gives an empty, non-nil
// slice, as encoding/json does. capHint presizes the slice, up to the
// number of entries the rest of the body can hold (each takes a digit and
// a separator), so a short body cannot reserve a long slice.
func (p *reqParser) uints(capHint int) ([]uint64, bool) {
	return p.appendUints(make([]uint64, 0, min(capHint, (len(p.b)-p.i)/2)))
}

// uintRows parses an array of integer arrays. All entries go into one
// backing slice and each row is a capacity-limited window onto it, so
// memory stays proportional to the body whatever the rows' lengths.
func (p *reqParser) uintRows() ([][]uint64, bool) {
	if !p.next('[') {
		return nil, false
	}
	flat := []uint64{} // non-nil, so an empty row is [] and not null
	var ends []int
	if !p.next(']') {
		for {
			var ok bool
			if flat, ok = p.appendUints(flat); !ok {
				return nil, false
			}
			ends = append(ends, len(flat))
			if len(ends) == 1 && len(flat) > 0 {
				// Square matrices are the common case: reserve as many
				// rows as the first has entries, as far as the rest of
				// the body can hold them (an entry takes at least two
				// bytes), so the reservation stays proportional to it.
				n, rest := len(flat), (len(p.b)-p.i)/2
				flat = slices.Grow(flat, min(n*(n-1), rest))
				ends = slices.Grow(ends, min(n-1, rest))
			}
			if p.next(']') {
				break
			}
			if !p.next(',') {
				return nil, false
			}
		}
	}
	out := make([][]uint64, len(ends))
	start := 0
	for i, end := range ends {
		out[i] = flat[start:end:end]
		start = end
	}
	return out, true
}

// key parses an object key; see str.
func (p *reqParser) key() ([]byte, bool) {
	if !p.next('"') {
		return nil, false
	}
	start := p.i
	for ; p.i < len(p.b); p.i++ {
		switch c := p.b[p.i]; {
		case c == '"':
			p.i++
			return p.b[start : p.i-1], true
		case c < 0x20 || c >= 0x80 || c == '\\':
			// Control bytes, non-ASCII and escapes are the strict
			// decoder's to validate and unescape.
			return nil, false
		}
	}
	return nil, false
}

// str parses a string of printable ASCII without escapes.
func (p *reqParser) str() (string, bool) {
	b, ok := p.key()
	return string(b), ok
}
