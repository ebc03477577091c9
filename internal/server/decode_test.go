package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/ff"
)

// canonicalRequest is a random n×n solve request over F_P62.
func canonicalRequest(seed uint64, n int) SolveRequest {
	src := ff.NewSource(seed)
	req := SolveRequest{P: ff.P62, A: make([][]uint64, n), B: make([]uint64, n)}
	for i := range req.A {
		req.A[i] = make([]uint64, n)
		for j := range req.A[i] {
			req.A[i][j] = src.Uint64n(ff.P62)
		}
		req.B[i] = src.Uint64n(ff.P62)
	}
	return req
}

func mustMarshal(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// decodeSeeds are request bodies on both sides of the direct parser's
// shape: canonical json.Marshal output, and bodies it must leave to the
// strict decoder.
func decodeSeeds() [][]byte {
	solve := canonicalRequest(5, 3)
	seeds := [][]byte{
		mustMarshal(solve),
		mustMarshal(SolveRequest{P: ff.P62, A: solve.A, Bs: [][]uint64{{1, 2, 3}, {4, 5, 6}}, DeadlineMS: 250, Ring: "fp"}),
		mustMarshal(SolveRequest{P: 101, A: [][]uint64{{0, 1}, {1, 0}}}),
	}
	for _, s := range []string{
		` {"p" : 5 ,` + "\n\t" + `"a":[ [1, 2] ,[3,4]], "b":[0,18446744073709551615]}` + "\r\n",
		`{}`,
		`{"A":[[1]]}`,
		`{"P":5}`,
		`{"p":5,"p":7,"a":[[1]]}`,
		`{"a":[[1]],"a":[[2]]}`,
		`null`,
		`{"a":null}`,
		`{"p":null}`,
		`{"a":[null]}`,
		`{"p":1e3}`,
		`{"p":1.0}`,
		`{"p":-1}`,
		`{"deadline_ms":-1}`,
		`{"p":18446744073709551616}`,
		`{"p":18446744073709551615}`,
		`{"deadline_ms":9223372036854775807}`,
		`{"deadline_ms":9223372036854775808}`,
		`{"p":"5"}`,
		`{"p":01}`,
		`{"p":0}`,
		`{"p":5}xyz`,
		`{"p":5} {"p":6}`,
		`{"p":5,}`,
		`{"p":5`,
		``,
		`{"subste":31}`,
		`{"ring":"fp"}`,
		`{"ring":"é"}`,
		`{"ring":"f\u0070"}`,
		`{"\u0070":5}`,
		`{"ring":5}`,
		`{"ring":"zz","az":[["1"]],"bz":["1"]}`,
		`{"a":[]}`,
		`{"a":[[]]}`,
		`{"b":[]}`,
		`{"bs":[]}`,
		`{"a":[[1,2],[3]]}`,
		`[1]`,
	} {
		seeds = append(seeds, []byte(s))
	}
	return seeds
}

// largeBodies are bodies longer than sniffLen: one decodeBody streams to
// the strict decoder (ring zz), and three it reads whole (one for the
// direct parser, two the direct parser declines late).
func largeBodies() [][]byte {
	fpReq := canonicalRequest(7, 40)
	fp := mustMarshal(fpReq)
	zz := SolveRequest{Ring: "zz", Az: make([][]string, 40), Bz: make([]string, 40)}
	for i, row := range fpReq.A {
		for _, v := range row {
			zz.Az[i] = append(zz.Az[i], fmt.Sprint(v))
		}
		zz.Bz[i] = fmt.Sprint(fpReq.B[i])
	}
	return [][]byte{
		fp,
		mustMarshal(zz),
		append(bytes.Clone(fp[:len(fp)-1]), `,"verify":"on"}`...),
		append(bytes.Clone(fp), "xyz"...),
	}
}

// TestDecodeBodyMatchesStrict: on every seed and large body, decodeBody's
// request and error are those of the strict decoder alone, whichever
// parser ran and whether the body was streamed or read whole.
func TestDecodeBodyMatchesStrict(t *testing.T) {
	direct := 0
	for _, body := range append(decodeSeeds(), largeBodies()...) {
		var got, want SolveRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		gotErr := decodeBody(httptest.NewRecorder(), r, 1<<20, &got)
		wantErr := decodeStrict(bytes.NewReader(body), &want)
		if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
			t.Errorf("%s: error %v, strict decoder %v", body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: request %+v, strict decoder %+v", body, got, want)
		}
		var probe SolveRequest
		if parseSolveRequest(body, &probe) {
			direct++
		}
	}
	if direct < 8 {
		t.Fatalf("the direct parser took %d seeds; the canonical ones alone are 8", direct)
	}
}

// TestDecodeBodyStreamsDeclinedBody: a body the direct parser declines in
// its first bytes reaches the strict decoder before the rest is read, so
// its syntax error is reported even when the body is over the limit, and
// a well-formed body over the limit is still too large.
func TestDecodeBodyStreamsDeclinedBody(t *testing.T) {
	pad := strings.Repeat(" ", 2<<20)
	for body, want := range map[string]string{
		`{"ring":"zz","az":x` + pad:                   "invalid character 'x' looking for beginning of value",
		`{"ring":"zz","az":[["1"]],"bz":["1"]}` + pad: "http: request body too large",
	} {
		var req SolveRequest
		r := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(body))
		if err := decodeBody(httptest.NewRecorder(), r, 1<<20, &req); fmt.Sprint(err) != want {
			t.Errorf("%.40s…: error %v, want %s", body, err, want)
		}
	}
}

// TestDecodeRowsMemoryLinear: a tall ragged body, one long first row and
// then thousands of one-entry rows, costs memory in proportion to its
// length. Presizing each row from the rows before it would reserve about
// rows × first-row-length words here.
func TestDecodeRowsMemoryLinear(t *testing.T) {
	var body bytes.Buffer
	body.WriteString(`{"a":[[`)
	body.WriteString(strings.Repeat("1,", 2999) + "1]")
	body.WriteString(strings.Repeat(",[1]", 4000))
	body.WriteString(`]}`)
	var req SolveRequest
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ok := parseSolveRequest(body.Bytes(), &req)
	runtime.ReadMemStats(&after)
	if !ok || len(req.A) != 4001 || len(req.A[0]) != 3000 {
		t.Fatalf("parsed %v, %d rows", ok, len(req.A))
	}
	for i, row := range req.A[1:] {
		if len(row) != 1 || cap(row) != 1 {
			t.Fatalf("row %d: len %d cap %d", i+1, len(row), cap(row))
		}
	}
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(32*body.Len()); got > limit {
		t.Fatalf("decoding a %d-byte body allocated %d bytes (limit %d)", body.Len(), got, limit)
	}
}

// FuzzDecodeRequest: whenever the direct parser accepts a body, the strict
// decoder accepts it too and builds a DeepEqual request — nil and empty
// slices included — and no prefix of the body is one directDeclines, so
// decodeBody never streams it to the strict decoder. A declined body
// leaves the request untouched.
func FuzzDecodeRequest(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got SolveRequest
		if !parseSolveRequest(body, &got) {
			if !reflect.DeepEqual(got, SolveRequest{}) {
				t.Fatalf("declined body %q changed the request: %+v", body, got)
			}
			return
		}
		var want SolveRequest
		if err := decodeStrict(bytes.NewReader(body), &want); err != nil {
			t.Fatalf("direct parser accepted %q; strict decoder: %v", body, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: direct %#v, strict %#v", body, got, want)
		}
		for k := range body {
			if directDeclines(body[:k]) {
				t.Fatalf("direct parser accepted %q but declines its prefix %q", body, body[:k])
			}
		}
	})
}

// BenchmarkDecodeBody decodes a canonical n=64 solve body through
// decodeBody (the direct parser) and through the strict decoder alone.
func BenchmarkDecodeBody(b *testing.B) {
	body := mustMarshal(canonicalRequest(3, 64))
	b.Run("decodeBody", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		w := httptest.NewRecorder()
		for b.Loop() {
			var got SolveRequest
			r := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
			if err := decodeBody(w, r, 1<<26, &got); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for b.Loop() {
			var got SolveRequest
			if err := decodeStrict(bytes.NewReader(body), &got); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSolveHit serves a cache-hit n=64 solve through Server.Handler:
// decode, field lookup, digest, backsolve, verify and encode. Profile it
// with -cpuprofile to see a hit's cost by layer.
func BenchmarkSolveHit(b *testing.B) {
	s, err := New(Config{})
	if err != nil {
		b.Fatal(err)
	}
	h := s.Handler()
	body := mustMarshal(canonicalRequest(3, 64))
	serve := func() *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		return w
	}
	if w := serve(); w.Code != http.StatusOK {
		b.Fatalf("warm-up solve: %d %s", w.Code, w.Body)
	}
	b.ReportAllocs()
	for b.Loop() {
		if w := serve(); w.Code != http.StatusOK {
			b.Fatalf("hit: %d %s", w.Code, w.Body)
		}
	}
}
