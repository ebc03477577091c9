package server

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
)

// newTestServer builds a Server with small, deterministic test settings,
// overridable by tweak.
func newTestServer(t *testing.T, tweak func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Multiplier:  "classical",
		Seed:        42,
		CacheSize:   8,
		MaxDeadline: 30 * time.Second,
		MaxDim:      256,
	}
	if tweak != nil {
		tweak(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// testSystem generates a random (almost surely non-singular over F_P62)
// system in wire form plus its dense original for verification.
func testSystem(t *testing.T, seed uint64, n int) (ff.Fp64, *matrix.Dense[uint64], SolveRequest) {
	t.Helper()
	f := ff.MustFp64(ff.P62)
	src := ff.NewSource(seed)
	a := matrix.Random[uint64](f, src, n, n, f.Modulus())
	req := SolveRequest{P: ff.P62}
	req.A = make([][]uint64, n)
	for i := 0; i < n; i++ {
		req.A[i] = a.Row(i)
	}
	req.B = ff.SampleVec[uint64](f, src, n, f.Modulus())
	return f, a, req
}

// withObserver installs a fresh Observer (global state) for span counting.
func withObserver(t *testing.T) *obs.Observer {
	t.Helper()
	prev := obs.Active()
	o := obs.New(1 << 14)
	obs.SetActive(o)
	t.Cleanup(func() { obs.SetActive(prev) })
	return o
}

func krylovSpans(o *obs.Observer) int {
	return o.PhaseTotals()[obs.PhaseBatchKrylov].Count
}

// TestSolveAndCacheHit is the core economics check: the first solve of a
// matrix factors (batch/krylov runs), the second solve of the same matrix
// hits the cache and runs no Krylov phase at all.
func TestSolveAndCacheHit(t *testing.T) {
	o := withObserver(t)
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	f, a, req := testSystem(t, 1, 16)
	hits0 := cacheHits.Value()

	resp, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Fatalf("first solve: cache = %q, want miss", resp.Cache)
	}
	if !ff.VecEqual[uint64](f, a.MulVec(f, resp.X), req.B) {
		t.Fatal("first solve: A·x ≠ b")
	}
	if resp.Digest != matrix.DigestString[uint64](f, a) {
		t.Fatal("response digest disagrees with the canonical matrix digest")
	}
	spansAfterMiss := krylovSpans(o)
	if spansAfterMiss == 0 {
		t.Fatal("first solve recorded no batch/krylov span — did it factor at all?")
	}

	// Fresh RHS, same matrix: must hit, must not re-run Krylov.
	req.B = ff.SampleVec[uint64](f, ff.NewSource(99), 16, f.Modulus())
	resp2, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache != "hit" {
		t.Fatalf("second solve: cache = %q, want hit", resp2.Cache)
	}
	if !ff.VecEqual[uint64](f, a.MulVec(f, resp2.X), req.B) {
		t.Fatal("second solve: A·x ≠ b")
	}
	if got := krylovSpans(o); got != spansAfterMiss {
		t.Fatalf("cache hit re-ran the Krylov phase: %d spans, want %d", got, spansAfterMiss)
	}
	if d := cacheHits.Value() - hits0; d != 1 {
		t.Fatalf("server.cache.hits grew by %d, want 1", d)
	}
}

func TestSolveBatchEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	f, a, req := testSystem(t, 2, 12)
	req.B = nil
	src := ff.NewSource(7)
	k := 3
	req.Bs = make([][]uint64, k)
	for j := range req.Bs {
		req.Bs[j] = ff.SampleVec[uint64](f, src, 12, f.Modulus())
	}
	resp, err := client.SolveBatch(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Xs) != k {
		t.Fatalf("got %d solutions, want %d", len(resp.Xs), k)
	}
	for j, x := range resp.Xs {
		if !ff.VecEqual[uint64](f, a.MulVec(f, x), req.Bs[j]) {
			t.Fatalf("column %d: A·x ≠ b", j)
		}
	}
}

// TestFactorWarmsCache: /v1/factor then /v1/solve on the same matrix is a
// hit — the warming pattern a client with known upcoming traffic uses.
func TestFactorWarmsCache(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	_, _, req := testSystem(t, 3, 10)
	resp, err := client.Factor(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != "miss" {
		t.Fatalf("factor: cache = %q, want miss", resp.Cache)
	}
	resp2, err := client.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache != "hit" {
		t.Fatalf("solve after factor: cache = %q, want hit", resp2.Cache)
	}
}

// TestBackpressure429 wedges the single execution slot and fills the
// queue, then checks the next request is rejected with 429 immediately —
// and that the wedged requests still complete once released (no deadlock).
func TestBackpressure429(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 1
	})
	gate := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	var once sync.Once
	s.testHookInSlot = func() {
		once.Do(wedged.Done) // signal: slot is held
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	_, _, req := testSystem(t, 4, 8)

	results := make(chan error, 2)
	go func() {
		_, err := client.Solve(context.Background(), req)
		results <- err
	}()
	wedged.Wait() // slot held; queue empty

	go func() {
		_, err := client.Solve(context.Background(), req)
		results <- err
	}()
	// Wait until the second request occupies the queue.
	for i := 0; i < 500; i++ {
		if s.queued.Load() == 1 {
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if s.queued.Load() != 1 {
		t.Fatal("second request never queued")
	}

	// Slot busy + queue full: this one must bounce with 429 now.
	start := time.Now()
	_, err := client.Solve(context.Background(), req)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != 429 {
		t.Fatalf("overflow request: got %v, want APIError 429", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("429 was not immediate")
	}

	close(gate) // drain the wedge
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("wedged request %d failed after release: %v", i, err)
		}
	}
}

// TestQueuedRequestHonorsDeadline: a request stuck in the queue past its
// deadline leaves with 503 instead of waiting forever.
func TestQueuedRequestHonorsDeadline(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 1
		c.MaxQueue = 4
	})
	gate := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	var once sync.Once
	s.testHookInSlot = func() {
		once.Do(wedged.Done)
		<-gate
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	_, _, req := testSystem(t, 5, 8)

	done := make(chan error, 1)
	go func() {
		_, err := client.Solve(context.Background(), req)
		done <- err
	}()
	wedged.Wait()

	req2 := req
	req2.DeadlineMS = 50
	_, err := client.Solve(context.Background(), req2)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != 503 {
		t.Fatalf("queued-past-deadline request: got %v, want APIError 503", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

func TestBadRequests(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.MaxDim = 16 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	ctx := context.Background()

	cases := []struct {
		name string
		req  SolveRequest
	}{
		{"empty", SolveRequest{P: ff.P62}},
		{"ragged", SolveRequest{P: ff.P62, A: [][]uint64{{1, 2}, {3}}, B: []uint64{1, 2}}},
		{"rhs mismatch", SolveRequest{P: ff.P62, A: [][]uint64{{1, 0}, {0, 1}}, B: []uint64{1}}},
		{"composite modulus", SolveRequest{P: 15, A: [][]uint64{{1, 0}, {0, 1}}, B: []uint64{1, 2}}},
		{"too large", SolveRequest{P: ff.P62, A: make([][]uint64, 17), B: make([]uint64, 17)}},
		{"char too small", SolveRequest{P: 2, A: [][]uint64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}}, B: []uint64{1, 1, 1}}},
	}
	for _, tc := range cases {
		_, err := client.Solve(ctx, tc.req)
		apiErr, ok := err.(*APIError)
		if !ok || apiErr.Status != 400 {
			t.Errorf("%s: got %v, want APIError 400", tc.name, err)
		}
	}
}

// TestSingularMatrix422: a singular input exhausts the Las Vegas retries
// and surfaces as 422 — a property of the request, not a server error.
func TestSingularMatrix422(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Retries = 2 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	// Rank-1 matrix: row i = (i+1)·(1, 2, 3, 4).
	n := 4
	req := SolveRequest{P: ff.P62, A: make([][]uint64, n), B: []uint64{1, 2, 3, 4}}
	for i := 0; i < n; i++ {
		req.A[i] = make([]uint64, n)
		for j := 0; j < n; j++ {
			req.A[i][j] = uint64((i + 1) * (j + 1))
		}
	}
	_, err := client.Solve(context.Background(), req)
	apiErr, ok := err.(*APIError)
	if !ok || apiErr.Status != 422 {
		t.Fatalf("singular solve: got %v, want APIError 422", err)
	}
}

// TestConcurrentMixedLoad is the -race workhorse: many goroutines, a mix
// of cache hits (shared kp.Factorization) and misses (per-request
// ff.Source splits), all results verified. Before the PR's bugfixes this
// pattern raced on both the shared power ladder and the shared random
// stream.
func TestConcurrentMixedLoad(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxConcurrent = 4
		c.MaxQueue = 64
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	const distinct = 3
	systems := make([]struct {
		f   ff.Fp64
		a   *matrix.Dense[uint64]
		req SolveRequest
	}, distinct)
	for i := range systems {
		systems[i].f, systems[i].a, systems[i].req = testSystem(t, uint64(100+i), 12)
	}

	const goroutines = 8
	const perG = 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := ff.NewSource(uint64(500 + g))
			for i := 0; i < perG; i++ {
				sys := systems[(g+i)%distinct]
				req := sys.req
				req.B = ff.SampleVec[uint64](sys.f, src, 12, sys.f.Modulus())
				resp, err := client.Solve(context.Background(), req)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !ff.VecEqual[uint64](sys.f, sys.a.MulVec(sys.f, resp.X), req.B) {
					t.Errorf("goroutine %d: A·x ≠ b under concurrent load", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestMetricsEndpointServesServerFamilies: the request/cache metrics are
// visible on the same listener's /metrics in Prometheus form.
func TestMetricsEndpointServesServerFamilies(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}
	_, _, req := testSystem(t, 6, 8)
	if _, err := client.Solve(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	hresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	buf := make([]byte, 1<<20)
	n, _ := hresp.Body.Read(buf)
	for n < len(buf) {
		m, err := hresp.Body.Read(buf[n:])
		n += m
		if err != nil {
			break
		}
	}
	text := string(buf[:n])
	for _, want := range []string{
		"kp_server_requests_total",
		"kp_server_cache_hits_total",
		"kp_server_cache_misses_total",
		"kp_server_inflight",
		"kp_server_queue_depth",
		"kp_server_request_ns_bucket",
	} {
		if !contains(text, want) {
			t.Errorf("/metrics is missing %s", want)
		}
	}
}

func contains(haystack, needle string) bool {
	for i := 0; i+len(needle) <= len(haystack); i++ {
		if haystack[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

// TestPrecondModeCacheKeying pins the cache key to the matrix digest alone:
// the server has one preconditioner route, so a repeat matrix hits one
// entry, the response carries no precond label, and a body still naming the
// removed "precond" field is the strict decoder's 400 naming it.
func TestPrecondModeCacheKeying(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &Client{BaseURL: ts.URL}

	f, a, req := testSystem(t, 17, 12)
	for i, want := range []string{"miss", "hit"} {
		resp, err := client.Solve(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Cache != want || resp.Precond != "" {
			t.Fatalf("solve %d: cache=%q precond=%q, want %s and no precond", i, resp.Cache, resp.Precond, want)
		}
		if resp.Digest != matrix.DigestString[uint64](f, a) {
			t.Fatalf("solve %d: digest %q is not the matrix digest", i, resp.Digest)
		}
		if !ff.VecEqual[uint64](f, a.MulVec(f, resp.X), req.B) {
			t.Fatalf("solve %d: A·x ≠ b", i)
		}
	}
	if got := s.cache.Len(); got != 1 {
		t.Fatalf("cache holds %d entries for one matrix, want 1", got)
	}

	code, m := postJSON(t, s.Handler(), "/v1/solve", `{"p":4611686018427387847,"a":[[2]],"b":[4],"precond":"implicit"}`)
	if code != http.StatusBadRequest {
		t.Fatalf("precond body: status %d, body %v", code, m)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "precond") {
		t.Fatalf("error %q does not name the removed precond field", msg)
	}
}
