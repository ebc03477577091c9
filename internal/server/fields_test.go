package server

import (
	"bytes"
	"encoding/json"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestFieldMemoBounded solves over maxSolvers+1 distinct primes from
// several clients at once, each starting at a different prime and ending
// on its first again: the per-modulus memo never holds more than
// maxSolvers entries, and a modulus it evicted still solves.
func TestFieldMemoBounded(t *testing.T) {
	s := newTestServer(t, nil)
	h := s.Handler()
	var primes []uint64
	for p := uint64(1<<40 - 1); len(primes) < maxSolvers+1; p -= 2 {
		if new(big.Int).SetUint64(p).ProbablyPrime(20) {
			primes = append(primes, p)
		}
	}
	const clients = 3
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range len(primes) + 1 {
				p := primes[(c*len(primes)/clients+i)%len(primes)]
				// det = 1 over every field; x = (1, 1).
				body := mustMarshal(SolveRequest{P: p, A: [][]uint64{{2, 1}, {1, 1}}, B: []uint64{3, 2}})
				w := httptest.NewRecorder()
				h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
				var resp SolveResponse
				if err := json.Unmarshal(w.Body.Bytes(), &resp); w.Code != http.StatusOK || err != nil ||
					len(resp.X) != 2 || resp.X[0] != 1 || resp.X[1] != 1 {
					t.Errorf("p=%d: status %d, body %s", p, w.Code, w.Body)
					return
				}
				s.solverMu.Lock()
				size := len(s.solvers)
				s.solverMu.Unlock()
				if size > maxSolvers {
					t.Errorf("p=%d: the modulus memo holds %d entries, cap %d", p, size, maxSolvers)
					return
				}
			}
		}()
	}
	wg.Wait()
}
