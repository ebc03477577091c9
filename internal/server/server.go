// Package server is the kpd networked solve service: an HTTP+JSON front
// end over core.Solver with a digest-keyed LRU cache of factorizations,
// bounded-queue admission control with backpressure, per-request deadlines
// riding kp.Params.Ctx cancellation, and request-level telemetry in the
// obs registry (scrapeable at /metrics beside the solve endpoints).
//
// Endpoints:
//
//	POST /v1/solve        {"p":…,"a":[[…]],"b":[…]}        → {"x":[…],…}
//	POST /v1/solve_batch  {"p":…,"a":[[…]],"bs":[[…],…]}   → {"xs":[[…],…],…}
//	POST /v1/factor       {"p":…,"a":[[…]]}                → {"digest":…,…}
//	GET  /metrics /snapshot /healthz                        (obs.Handler)
//
// /v1/solve additionally accepts "ring": "zz" or "qq" with string-valued
// entries ("az"/"bz"), solving exactly over ℤ/ℚ through the RNS/CRT
// multi-modulus engine; the response then carries the exact rational
// solution ("xr") and the run's RingStats ("rns"). Per-(matrix, prime)
// factorizations are cached in the engine, so repeat ring requests on the
// same matrix skip every residue front end.
//
// Request bodies are strict: unknown top-level fields are rejected with
// 400 naming the offending field, so client typos (or version drift) fail
// loudly instead of being silently ignored.
//
// Every response carries the canonical matrix digest and whether the
// factorization came from the cache ("hit") or was computed ("miss");
// repeat matrices skip the Krylov phase entirely.
//
// Concurrency contract: one Server handles any number of concurrent
// requests. Each request draws its randomness from a private
// ff.Source.Split child (the root source is touched only under srcMu),
// and cached kp.Factorization handles are shared across requests, which
// is safe by kp's concurrency guarantee.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math/big"
	"net/http"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/errs"
	"repro/internal/ff"
	"repro/internal/kp"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/rns"
)

// Request-level telemetry, exposed on /metrics with the rest of the obs
// registry ("server." is mangled to kp_server_…).
var (
	reqTotal    = obs.NewCounter("server.requests")
	reqRejected = obs.NewCounter("server.rejected")
	reqErrors   = obs.NewCounter("server.errors")
	inflight    = obs.NewGauge("server.inflight")
	queueDepth  = obs.NewGauge("server.queue.depth")

	queueWaitHist = obs.NewHistogram("server.queue.wait.ns")
	latSolve      = obs.NewLabeledHistogram("server.request.ns", "route", "solve")
	latBatch      = obs.NewLabeledHistogram("server.request.ns", "route", "solve_batch")
	latFactor     = obs.NewLabeledHistogram("server.request.ns", "route", "factor")
)

// Config configures a Server. The zero value of every field selects a
// sensible default (see New).
type Config struct {
	// Multiplier names the matrix-multiplication black box (matrix.Names);
	// "" selects "parallel" — a server exists to use the cores.
	Multiplier string
	// Seed seeds the root randomness source (0 = kp.DefaultSeed). Every
	// request runs on its own Split child, so concurrent load stays both
	// race-free and replayable in single-request order.
	Seed uint64
	// Retries bounds the Las Vegas attempts per factorization.
	Retries int
	// CacheSize bounds the factorization LRU (default 64 matrices).
	CacheSize int
	// MaxConcurrent bounds solves executing simultaneously (default
	// GOMAXPROCS). Beyond it, requests wait in the queue.
	MaxConcurrent int
	// MaxQueue bounds the waiting room; a request arriving with MaxQueue
	// requests already waiting is rejected with 429 (default
	// 4×MaxConcurrent).
	MaxQueue int
	// MaxDeadline caps the per-request deadline; a request asking for more
	// (or not asking) gets this much (default 30s).
	MaxDeadline time.Duration
	// MaxDim rejects systems larger than MaxDim×MaxDim with 400 before any
	// work happens (default 2048).
	MaxDim int
	// Logger, when non-nil, receives one record per request (route, n,
	// cache, status, wall) and is forwarded to the solvers' per-attempt
	// logging.
	Logger *slog.Logger
}

// Server is the kpd solve service. Create with New, mount Handler.
type Server struct {
	cfg   Config
	cache *Cache[uint64]

	srcMu sync.Mutex
	src   *ff.Source

	// solvers memoizes, per modulus, the validated field and its solver:
	// proving a modulus prime takes about 0.1 ms, a tenth of a whole cache
	// hit at n = 64. At most maxSolvers entries; see fieldFor.
	solverMu sync.Mutex
	solvers  map[uint64]fieldSolver

	sem    chan struct{} // execution slots (MaxConcurrent)
	queued atomic.Int64

	// intEng drives ring=zz/qq requests; it owns the per-(matrix, prime)
	// residue factorization cache, shared across requests.
	intEng *kp.IntEngine

	// testHookInSlot, when non-nil, runs while a request holds an
	// execution slot — tests use it to wedge the server and probe the
	// admission control deterministically.
	testHookInSlot func()
}

// New returns a Server for the config, resolving zero values to defaults.
func New(cfg Config) (*Server, error) {
	if cfg.Multiplier == "" {
		cfg.Multiplier = "parallel"
	}
	if _, err := matrix.ByName[uint64](cfg.Multiplier); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.Seed == 0 {
		cfg.Seed = kp.DefaultSeed
	}
	if cfg.CacheSize <= 0 {
		cfg.CacheSize = 64
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxConcurrent
	}
	if cfg.MaxDeadline <= 0 {
		cfg.MaxDeadline = 30 * time.Second
	}
	if cfg.MaxDim <= 0 {
		cfg.MaxDim = 2048
	}
	intMul, _ := matrix.ByName[uint64](cfg.Multiplier) // validated above
	return &Server{
		cfg:     cfg,
		cache:   NewCache[uint64](cfg.CacheSize),
		src:     ff.NewSource(cfg.Seed),
		solvers: make(map[uint64]fieldSolver),
		sem:     make(chan struct{}, cfg.MaxConcurrent),
		intEng:  kp.NewIntEngine(intMul),
	}, nil
}

// Handler returns the service mux: the /v1 solve endpoints plus the obs
// telemetry endpoints (/metrics, /snapshot, /healthz).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/solve", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, "solve", latSolve)
	})
	mux.HandleFunc("POST /v1/solve_batch", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, "solve_batch", latBatch)
	})
	mux.HandleFunc("POST /v1/factor", func(w http.ResponseWriter, r *http.Request) {
		s.handle(w, r, "factor", latFactor)
	})
	mux.Handle("/", obs.Handler())
	return mux
}

// SolveRequest is the JSON request body of every /v1 endpoint. Entries are
// integers reduced modulo P.
type SolveRequest struct {
	// P is the prime field modulus.
	P uint64 `json:"p"`
	// A is the n×n system matrix, row by row.
	A [][]uint64 `json:"a"`
	// B is the right-hand side for /v1/solve (length n).
	B []uint64 `json:"b,omitempty"`
	// Bs are the k right-hand sides for /v1/solve_batch (each length n).
	Bs [][]uint64 `json:"bs,omitempty"`
	// DeadlineMS bounds this request's wall time; 0 or anything above the
	// server's MaxDeadline is clamped to MaxDeadline.
	DeadlineMS int64 `json:"deadline_ms,omitempty"`
	// Ring selects the coefficient ring: "fp" (default; word prime field
	// P), "zz" (integers) or "qq" (rationals). zz/qq are /v1/solve only and
	// take the system in Az/Bz instead of A/B.
	Ring string `json:"ring,omitempty"`
	// Az is the n×n matrix for ring zz/qq, entries as decimal strings
	// (ring qq also accepts "num/den").
	Az [][]string `json:"az,omitempty"`
	// Bz is the right-hand side for ring zz/qq (length n).
	Bz []string `json:"bz,omitempty"`
	// Verify overrides the ring engine's a-posteriori exact check: "on"
	// (default) or "off". Ignored for ring fp.
	Verify string `json:"verify,omitempty"`
}

// SolveResponse is the JSON response of every /v1 endpoint.
type SolveResponse struct {
	// X is the solution vector (/v1/solve).
	X []uint64 `json:"x,omitempty"`
	// Xs are the per-RHS solutions (/v1/solve_batch), Xs[i] solving
	// A·x = Bs[i].
	Xs [][]uint64 `json:"xs,omitempty"`
	// N is the system dimension.
	N int `json:"n"`
	// Digest is the canonical matrix digest, the factorization cache key.
	Digest string `json:"digest"`
	// Precond is never set.
	//
	// Deprecated: the server has one preconditioner route; the request
	// field that selected between two is gone.
	Precond string `json:"precond,omitempty"`
	// Cache is "hit" when the factorization came from the cache, "miss"
	// when this request computed it.
	Cache string `json:"cache"`
	// ElapsedMS is the server-side wall time of the request.
	ElapsedMS float64 `json:"elapsed_ms"`
	// TraceID identifies the request in /debug/traces and the server log.
	TraceID string `json:"trace_id,omitempty"`
	// Ring echoes the coefficient ring the request ran over ("" = fp).
	Ring string `json:"ring,omitempty"`
	// Xr is the exact solution for ring zz/qq, one canonical rational
	// string ("num" or "num/den") per coordinate.
	Xr []string `json:"xr,omitempty"`
	// RNS reports the multi-modulus run (residue count, bad primes, cache
	// hits, phase times, parallel efficiency) for ring zz/qq.
	RNS *kp.RingStats `json:"rns,omitempty"`
}

// errorResponse is the JSON body of every non-2xx response. TraceID lets a
// failing client quote the exact request when reading /debug/traces or the
// server log.
type errorResponse struct {
	Error   string `json:"error"`
	TraceID string `json:"trace_id,omitempty"`
}

// handle runs the common request pipeline: trace identity, decode,
// validate, admission, deadline, digest/cache, route-specific math,
// respond, tail-sample.
func (s *Server) handle(w http.ResponseWriter, r *http.Request, route string, lat *obs.Histogram) {
	start := time.Now()
	reqTotal.Inc()

	// Request identity: continue the caller's trace when a valid W3C
	// traceparent came in (our root span becomes a child of the caller's
	// span), else mint a fresh trace. A malformed header must never fail
	// the request — it only loses the caller's linkage.
	var parentSpan obs.SpanID
	tc := obs.NewTraceContext()
	if parent, perr := obs.ParseTraceparent(r.Header.Get("traceparent")); perr == nil {
		parentSpan = parent.Span
		tc = parent.Child()
	}
	scope := obs.NewScope(tc)
	ctx := obs.ContextWithScope(r.Context(), scope)
	w.Header().Set("traceparent", tc.Traceparent())

	// pprof labels: a CPU or goroutine profile taken while this request
	// runs attributes its samples to the trace id and route.
	var (
		status int
		resp   *SolveResponse
		err    error
	)
	pprof.Do(ctx, pprof.Labels("trace_id", tc.Trace.String(), "route", route), func(ctx context.Context) {
		sp := obs.StartPhaseCtx(ctx, "request/"+route)
		status, resp, err = s.serve(w, r.WithContext(ctx), route)
		sp.End()
	})
	wall := time.Since(start)
	// The latency sample doubles as the bucket's OpenMetrics exemplar: a
	// p99 spike on a dashboard carries the trace id of a request that
	// caused it.
	lat.ObserveExemplar(wall.Nanoseconds(), tc.Trace.String())

	if err != nil {
		if status == http.StatusTooManyRequests {
			reqRejected.Inc()
		} else {
			reqErrors.Inc()
		}
		writeJSON(w, status, errorResponse{Error: err.Error(), TraceID: tc.Trace.String()})
	} else {
		status = http.StatusOK
		resp.TraceID = tc.Trace.String()
		resp.ElapsedMS = float64(wall.Microseconds()) / 1000
		writeJSON(w, http.StatusOK, resp)
	}
	s.logRequest(route, resp, status, start, tc, err)
	s.recordTrace(route, resp, status, start, wall, tc, parentSpan, scope, err)
	// A request over the slow threshold fires a triggered profile capture
	// tagged with the same trace id the trace store just retained, so
	// /debug/traces and /debug/profiles cross-link for the post-mortem.
	if ts := obs.ActiveTraceStore(); ts != nil && wall >= ts.Config().SlowThreshold {
		obs.TriggerProfile(obs.TriggerSlowRequest, tc.Trace.String(),
			fmt.Sprintf("route=%s wall=%s", route, wall))
	}
}

// recordTrace submits the finished request to the tail-sampling trace
// store, when one is installed; the store decides retention (slow, errored,
// unlucky, or background sample).
func (s *Server) recordTrace(route string, resp *SolveResponse, status int, start time.Time, wall time.Duration, tc obs.TraceContext, parentSpan obs.SpanID, scope *obs.TraceScope, err error) {
	ts := obs.ActiveTraceStore()
	if ts == nil {
		return
	}
	rt := obs.RequestTrace{
		TraceID:      tc.Trace.String(),
		SpanID:       tc.Span.String(),
		ParentSpanID: parentSpan.String(),
		Route:        route,
		Status:       status,
		Attempts:     scope.Attempts(),
		Start:        start,
		Wall:         wall,
		QueueWait:    scope.QueueWait(),
		Spans:        scope.Spans(),
		SpansDropped: scope.SpansDropped(),
	}
	if resp != nil {
		rt.N = resp.N
		rt.Cache = resp.Cache
	}
	if err != nil {
		rt.Error = err.Error()
	}
	ts.Record(rt)
}

// serve decodes and executes one request, returning the HTTP status and
// either a response or an error.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, route string) (int, *SolveResponse, error) {
	var req SolveRequest
	// Bound the body by what a MaxDim system can legitimately need
	// (~20 bytes per decimal entry) so a hostile body cannot balloon memory
	// before validation sees the dimensions.
	limit := int64(s.cfg.MaxDim)*int64(s.cfg.MaxDim)*24 + 1<<20
	if err := decodeBody(w, r, limit, &req); err != nil {
		return http.StatusBadRequest, nil, fmt.Errorf("decode request: %w", err)
	}

	switch req.Ring {
	case "", "fp":
	case "zz", "qq":
		return s.serveRing(r, route, &req)
	default:
		return http.StatusBadRequest, nil, fmt.Errorf("unknown ring %q (want \"fp\", \"zz\" or \"qq\")", req.Ring)
	}

	fs, a, err := s.buildSystem(&req)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	f, n := fs.f, a.Rows

	// Per-request deadline, clamped to the server cap, cancels the Las
	// Vegas drivers cooperatively via kp.Params.Ctx (the request context
	// also dies when the client disconnects or the server drains).
	deadline := s.cfg.MaxDeadline
	if req.DeadlineMS > 0 && time.Duration(req.DeadlineMS)*time.Millisecond < deadline {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()

	// Admission: a free execution slot, or a bounded wait in the queue, or
	// 429. Backpressure bounds memory and keeps latency honest — beyond
	// MaxQueue waiting solves, a fast failure beats a doomed wait.
	release, status, err := s.acquire(ctx)
	if err != nil {
		return status, nil, err
	}
	defer release()
	if s.testHookInSlot != nil {
		s.testHookInSlot()
	}

	// Factorization via the digest-keyed cache: repeat matrices skip the
	// Krylov phase and go straight to the backsolve.
	digest := matrix.DigestString[uint64](f, a)
	fa, hit, err := s.cache.GetOrFactor(ctx, digest, func() (*core.Factored[uint64], error) {
		// Nested pprof label: profile samples inside the expensive
		// cache-miss factorization additionally carry phase=factor.
		var (
			fa   *core.Factored[uint64]
			ferr error
		)
		pprof.Do(ctx, pprof.Labels("phase", "factor"), func(ctx context.Context) {
			fa, ferr = fs.solver.WithSource(s.splitSource()).FactorCtx(ctx, a)
		})
		return fa, ferr
	})
	if err != nil {
		return errStatus(err), nil, err
	}
	resp := &SolveResponse{N: n, Digest: digest, Cache: cacheLabel(hit)}

	switch route {
	case "factor":
		return http.StatusOK, resp, nil
	case "solve":
		x, err := fa.SolveCtx(ctx, req.B)
		if err != nil {
			return errStatus(err), nil, err
		}
		resp.X = x
		return http.StatusOK, resp, nil
	case "solve_batch":
		bm := matrix.NewDense[uint64](f, n, len(req.Bs))
		for j, col := range req.Bs {
			for i, v := range col {
				bm.Set(i, j, v%f.Modulus())
			}
		}
		x, err := fa.InverseApplyCtx(ctx, bm)
		if err != nil {
			return errStatus(err), nil, err
		}
		xs := make([][]uint64, x.Cols)
		for j := range xs {
			xs[j] = x.Col(j)
		}
		resp.Xs = xs
		return http.StatusOK, resp, nil
	default:
		return http.StatusNotFound, nil, fmt.Errorf("unknown route %q", route)
	}
}

// serveRing executes a ring=zz/qq request: exact solve over ℤ/ℚ through
// the multi-modulus engine, under the same admission control and deadline
// regime as the field routes. Only /v1/solve supports exact rings.
func (s *Server) serveRing(r *http.Request, route string, req *SolveRequest) (int, *SolveResponse, error) {
	if route != "solve" {
		return http.StatusBadRequest, nil, fmt.Errorf("ring %q is supported on /v1/solve only, not /v1/%s: %w", req.Ring, route, kp.ErrBadShape)
	}
	if len(req.A) > 0 || len(req.B) > 0 || len(req.Bs) > 0 || req.P != 0 {
		return http.StatusBadRequest, nil, fmt.Errorf("ring %q takes the system in \"az\"/\"bz\"; \"p\"/\"a\"/\"b\"/\"bs\" do not apply: %w", req.Ring, kp.ErrBadShape)
	}
	verify, err := rns.ParseVerifyMode(req.Verify)
	if err != nil {
		return http.StatusBadRequest, nil, err
	}
	n := len(req.Az)
	if n == 0 {
		return http.StatusBadRequest, nil, fmt.Errorf("empty system: %w", kp.ErrBadShape)
	}
	if n > s.cfg.MaxDim {
		return http.StatusBadRequest, nil, fmt.Errorf("dimension %d exceeds the server limit %d: %w", n, s.cfg.MaxDim, kp.ErrBadShape)
	}
	if len(req.Bz) != n {
		return http.StatusBadRequest, nil, fmt.Errorf("right-hand side has %d entries, want %d: %w", len(req.Bz), n, kp.ErrBadShape)
	}

	deadline := s.cfg.MaxDeadline
	if req.DeadlineMS > 0 && time.Duration(req.DeadlineMS)*time.Millisecond < deadline {
		deadline = time.Duration(req.DeadlineMS) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	release, status, err := s.acquire(ctx)
	if err != nil {
		return status, nil, err
	}
	defer release()
	if s.testHookInSlot != nil {
		s.testHookInSlot()
	}

	rp := rns.Params{Verify: verify, Workers: s.cfg.MaxConcurrent}
	kpp := kp.Params{Src: s.splitSource(), Retries: s.cfg.Retries, Ctx: ctx, Logger: s.cfg.Logger}
	var (
		x     *rns.RatVec
		stats *kp.RingStats
	)
	switch req.Ring {
	case "zz":
		a, b, berr := buildIntSystem(req.Az, req.Bz)
		if berr != nil {
			return http.StatusBadRequest, nil, berr
		}
		resp := &SolveResponse{N: n, Ring: req.Ring, Digest: a.Digest()}
		x, stats, err = s.intEng.Solve(ctx, a, b, rp, kpp)
		if err != nil {
			return errStatus(err), nil, err
		}
		return ringOK(resp, x, stats)
	default: // "qq"
		a, b, berr := buildRatSystem(req.Az, req.Bz)
		if berr != nil {
			return http.StatusBadRequest, nil, berr
		}
		ai, bi, cerr := rns.ClearDenominators(a, b)
		if cerr != nil {
			return http.StatusBadRequest, nil, cerr
		}
		resp := &SolveResponse{N: n, Ring: req.Ring, Digest: ai.Digest()}
		x, stats, err = s.intEng.Solve(ctx, ai, bi, rp, kpp)
		if err != nil {
			return errStatus(err), nil, err
		}
		return ringOK(resp, x, stats)
	}
}

// ringOK fills the ring response: canonical rational strings plus the
// engine stats, with the cache label summarizing the residue lookups.
func ringOK(resp *SolveResponse, x *rns.RatVec, stats *kp.RingStats) (int, *SolveResponse, error) {
	xr := make([]string, x.Len())
	for i := range xr {
		xr[i] = x.Rat(i).RatString()
	}
	resp.Xr = xr
	resp.RNS = stats
	resp.Cache = cacheLabel(stats.CacheMisses == 0 && stats.CacheHits > 0)
	return http.StatusOK, resp, nil
}

// buildIntSystem parses decimal-string entries into the ℤ system.
func buildIntSystem(az [][]string, bz []string) (*rns.IntMat, []*big.Int, error) {
	n := len(az)
	a := rns.NewIntMat(n, n)
	for i, row := range az {
		if len(row) != n {
			return nil, nil, fmt.Errorf("row %d has %d entries, want %d: %w", i, len(row), n, kp.ErrBadShape)
		}
		for j, e := range row {
			v, ok := new(big.Int).SetString(strings.TrimSpace(e), 10)
			if !ok {
				return nil, nil, fmt.Errorf("a[%d][%d]: %q is not a decimal integer: %w", i, j, e, kp.ErrBadShape)
			}
			a.Set(i, j, v)
		}
	}
	b := make([]*big.Int, n)
	for i, e := range bz {
		v, ok := new(big.Int).SetString(strings.TrimSpace(e), 10)
		if !ok {
			return nil, nil, fmt.Errorf("b[%d]: %q is not a decimal integer: %w", i, e, kp.ErrBadShape)
		}
		b[i] = v
	}
	return a, b, nil
}

// buildRatSystem parses rational-string entries ("3", "-2/7", "1.5") into
// the ℚ system.
func buildRatSystem(az [][]string, bz []string) ([][]*big.Rat, []*big.Rat, error) {
	n := len(az)
	a := make([][]*big.Rat, n)
	for i, row := range az {
		if len(row) != n {
			return nil, nil, fmt.Errorf("row %d has %d entries, want %d: %w", i, len(row), n, kp.ErrBadShape)
		}
		a[i] = make([]*big.Rat, n)
		for j, e := range row {
			v, ok := new(big.Rat).SetString(strings.TrimSpace(e))
			if !ok {
				return nil, nil, fmt.Errorf("a[%d][%d]: %q is not a rational: %w", i, j, e, kp.ErrBadShape)
			}
			a[i][j] = v
		}
	}
	b := make([]*big.Rat, n)
	for i, e := range bz {
		v, ok := new(big.Rat).SetString(strings.TrimSpace(e))
		if !ok {
			return nil, nil, fmt.Errorf("b[%d]: %q is not a rational: %w", i, e, kp.ErrBadShape)
		}
		b[i] = v
	}
	return a, b, nil
}

// buildSystem validates the request shape and materializes the field (with
// its solver) and matrix. Entries are reduced modulo p, so clients may send
// any residue representative.
func (s *Server) buildSystem(req *SolveRequest) (fieldSolver, *matrix.Dense[uint64], error) {
	n := len(req.A)
	if n == 0 {
		return fieldSolver{}, nil, fmt.Errorf("empty system: %w", kp.ErrBadShape)
	}
	if n > s.cfg.MaxDim {
		return fieldSolver{}, nil, fmt.Errorf("dimension %d exceeds the server limit %d: %w", n, s.cfg.MaxDim, kp.ErrBadShape)
	}
	fs, err := s.fieldFor(req.P)
	if err != nil {
		return fs, nil, err
	}
	f := fs.f
	a := matrix.NewDense[uint64](f, n, n)
	for i, row := range req.A {
		if len(row) != n {
			return fs, nil, fmt.Errorf("row %d has %d entries, want %d: %w", i, len(row), n, kp.ErrBadShape)
		}
		for j, v := range row {
			a.Set(i, j, v%f.Modulus())
		}
	}
	if req.B != nil && len(req.B) != n {
		return fs, nil, fmt.Errorf("right-hand side has %d entries, want %d: %w", len(req.B), n, kp.ErrBadShape)
	}
	for i := range req.B {
		req.B[i] %= f.Modulus()
	}
	for j, col := range req.Bs {
		if len(col) != n {
			return fs, nil, fmt.Errorf("right-hand side %d has %d entries, want %d: %w", j, len(col), n, kp.ErrBadShape)
		}
	}
	return fs, a, nil
}

// acquire claims an execution slot, waiting in the bounded queue when all
// slots are busy. It returns the release function, or a non-zero HTTP
// status with the rejection error.
func (s *Server) acquire(ctx context.Context) (func(), int, error) {
	select {
	case s.sem <- struct{}{}:
	default:
		// All slots busy: join the queue unless it is full.
		if n := s.queued.Add(1); n > int64(s.cfg.MaxQueue) {
			s.queued.Add(-1)
			// Queue saturation is the second profile trigger: a capture
			// taken while the server is wedged shows what the executing
			// requests are doing, which the bounced request cannot.
			obs.TriggerProfile(obs.TriggerQueueSaturation,
				obs.TraceFromContext(ctx).Trace.String(),
				fmt.Sprintf("queue full: %d executing, %d queued", s.cfg.MaxConcurrent, s.cfg.MaxQueue))
			return nil, http.StatusTooManyRequests,
				fmt.Errorf("server at capacity (%d executing, %d queued); retry later", s.cfg.MaxConcurrent, s.cfg.MaxQueue)
		}
		queueDepth.Set(s.queued.Load())
		// The wait is a span on the request's trace (queue/wait) and an
		// annotation on its scope, so the tail sampler can show where a
		// slow request's time went before any math ran.
		sp := obs.StartPhaseCtx(ctx, "queue/wait")
		sc := obs.ScopeFromContext(ctx)
		wait := time.Now()
		select {
		case s.sem <- struct{}{}:
			s.queued.Add(-1)
			queueDepth.Set(s.queued.Load())
			d := time.Since(wait)
			queueWaitHist.Observe(d.Nanoseconds())
			sc.SetQueueWait(d)
			sp.End()
		case <-ctx.Done():
			s.queued.Add(-1)
			queueDepth.Set(s.queued.Load())
			sc.SetQueueWait(time.Since(wait))
			sp.End()
			return nil, http.StatusServiceUnavailable, fmt.Errorf("canceled while queued: %w", ctx.Err())
		}
	}
	inflight.Add(1)
	return func() {
		inflight.Add(-1)
		<-s.sem
	}, 0, nil
}

// maxSolvers bounds the per-modulus memo: each distinct prime a client
// sends adds an entry, so without a bound a client could grow it without
// limit. An evicted entry costs one primality proof to rebuild.
const maxSolvers = 64

// fieldSolver is one modulus's validated field and solver.
type fieldSolver struct {
	f      ff.Fp64
	solver *core.Solver[uint64]
}

// fieldFor returns the field and solver for modulus p, proving p prime and
// building the solver only for a modulus not already memoized. When the
// memo is full an arbitrary entry makes room.
func (s *Server) fieldFor(p uint64) (fieldSolver, error) {
	s.solverMu.Lock()
	fs, ok := s.solvers[p]
	s.solverMu.Unlock()
	if ok {
		return fs, nil
	}
	// The primality proof runs unlocked, so requests on new moduli do not
	// queue behind each other's.
	f, err := ff.NewFp64(p)
	if err != nil {
		return fieldSolver{}, err
	}
	sv, err := core.NewSolver[uint64](f, core.Options{
		Seed:       s.cfg.Seed,
		Multiplier: s.cfg.Multiplier,
		Retries:    s.cfg.Retries,
		Logger:     s.cfg.Logger,
	})
	if err != nil {
		return fieldSolver{}, err
	}
	s.solverMu.Lock()
	defer s.solverMu.Unlock()
	if fs, ok := s.solvers[p]; ok {
		return fs, nil // a concurrent request memoized p first
	}
	if len(s.solvers) >= maxSolvers {
		for k := range s.solvers {
			delete(s.solvers, k)
			break
		}
	}
	fs = fieldSolver{f: f, solver: sv}
	s.solvers[p] = fs
	return fs, nil
}

// splitSource derives one private random stream for a request. The root
// source is a mutable splitmix64 stream — the only place it is ever
// touched is here, under srcMu, so concurrent requests can never corrupt
// it (or each other's Las Vegas probability accounting).
func (s *Server) splitSource() *ff.Source {
	s.srcMu.Lock()
	defer s.srcMu.Unlock()
	return s.src.Split()
}

// errStatus maps the kp error taxonomy onto HTTP statuses.
func errStatus(err error) int {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	case errors.Is(err, kp.ErrBadShape), errors.Is(err, kp.ErrCharacteristicTooSmall):
		return http.StatusBadRequest
	case errors.Is(err, errs.ErrBoundTooSmall), errors.Is(err, errs.ErrReconstructFailed):
		// Undersized forced prime set / bound: a property of the request.
		return http.StatusUnprocessableEntity
	case errors.Is(err, kp.ErrSingular), errors.Is(err, kp.ErrInconsistent), errors.Is(err, kp.ErrRetriesExhausted):
		// Exhausted retries on a non-singular input have probability
		// ≈ (3n²/|S|)^retries ≈ 0, so this is virtually always "the matrix
		// is singular" — a property of the request, not the server.
		return http.StatusUnprocessableEntity
	default:
		return http.StatusInternalServerError
	}
}

func cacheLabel(hit bool) string {
	if hit {
		return "hit"
	}
	return "miss"
}

// writeJSON marshals into memory first (same discipline as the obs
// /snapshot fix: never stream-encode into the ResponseWriter, so a late
// encode error cannot corrupt a committed 200).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.Marshal(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}

// logRequest emits the per-request slog record when logging is configured.
// The trace attr cross-links the record to /debug/traces and to the per-
// attempt kp records carrying the same id.
func (s *Server) logRequest(route string, resp *SolveResponse, status int, start time.Time, tc obs.TraceContext, err error) {
	if s.cfg.Logger == nil {
		return
	}
	attrs := []any{
		slog.String("route", route),
		slog.Int("status", status),
		slog.Duration("wall", time.Since(start)),
		slog.String("trace", tc.Trace.String()),
	}
	if resp != nil {
		attrs = append(attrs, slog.Int("n", resp.N), slog.String("cache", resp.Cache))
	}
	if err != nil {
		attrs = append(attrs, slog.String("error", err.Error()))
		s.cfg.Logger.Error("kpd.request", attrs...)
		return
	}
	s.cfg.Logger.Info("kpd.request", attrs...)
}
