package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/server"
)

// kpd-mixed drives an in-process kpd server over loopback HTTP with an
// open loop: requests are due on a fixed schedule whether or not earlier
// ones have finished, so a stall shows as latency of the requests behind
// it. Most requests hit the factorization cache (backsolve only); a tenth
// factor a fresh matrix and insert it, pushing older entries out of the
// LRU.
const (
	kpdN     = 64 // system dimension, over the generic (non-NTT) prime ff.P62
	kpdHot   = 8  // matrices in the hot set, factored during set-up
	kpdRHS   = 8  // right-hand sides of a /v1/solve_batch request
	kpdConns = 2  // client connections, at most nproc
	// kpdRate is the offered load in requests per second: at the seed
	// commit the process then uses about half of two cores. At 40 the
	// misses' factorizations overlap often enough that a slower host
	// raised the p50 by half, not by the host's slowdown.
	kpdRate = 30
	// kpdLimit is the latency limit goodput_ratio counts against: a few
	// times the p99 of the seed commit at kpdRate.
	kpdLimit = 500 * time.Millisecond
	// The mix repeats every kpdBlock requests: one batch solve at
	// kpdBatchAt and a fresh-matrix solve (a cache miss) at kpdMissAt in
	// each half block, hot-set solves everywhere else — 85% hits, 5% batch,
	// 10% misses. The seed draws the matrices and right-hand sides; fixing
	// the places keeps two misses from landing back to back by chance,
	// which would make the p99 depend on the seed rather than the program.
	kpdBlock   = 20
	kpdBatchAt = 9
	kpdMissAt  = 4
	// kpdSetups is how many times an untraced run sets up; each set-up
	// factors the whole hot set, over a second.
	kpdSetups = 5
)

// kpdRequest is one scheduled request and what checking its answer needs.
type kpdRequest struct {
	due  time.Duration // offset from the segment start
	path string
	a    *matrix.Dense[uint64]
	req  server.SolveRequest
}

// kpdResult is what one request came back with.
type kpdResult struct {
	lat     time.Duration // from due time to answer
	rtt     time.Duration // the HTTP round trip alone
	ok      bool
	err     error
	hit     bool
	elapsed float64 // the server's own elapsed_ms
}

// solveRequest wraps a matrix and right-hand sides in a request body.
func solveRequest(f ff.Fp64, a *matrix.Dense[uint64], b []uint64, bs [][]uint64) server.SolveRequest {
	req := server.SolveRequest{P: f.Modulus(), A: make([][]uint64, a.Rows), B: b, Bs: bs}
	for i := range req.A {
		req.A[i] = a.Row(i)
	}
	return req
}

// kpdSchedule draws n requests due at kpdRate per second from gen.
func kpdSchedule(f ff.Fp64, gen *ff.Source, hot []*matrix.Dense[uint64], n int) []kpdRequest {
	reqs := make([]kpdRequest, n)
	vec := func() []uint64 { return ff.SampleVec[uint64](f, gen, kpdN, f.Modulus()) }
	for i := range reqs {
		r := &reqs[i]
		r.due = time.Duration(float64(i) * float64(time.Second) / kpdRate)
		switch {
		case i%kpdBlock == kpdBatchAt:
			r.path, r.a = "/v1/solve_batch", hot[gen.Intn(kpdHot)]
			bs := make([][]uint64, kpdRHS)
			for j := range bs {
				bs[j] = vec()
			}
			r.req = solveRequest(f, r.a, nil, bs)
		case i%(kpdBlock/2) == kpdMissAt:
			r.path, r.a = "/v1/solve", matrix.Random[uint64](f, gen, kpdN, kpdN, f.Modulus())
			r.req = solveRequest(f, r.a, vec(), nil)
		default:
			r.path, r.a = "/v1/solve", hot[gen.Intn(kpdHot)]
			r.req = solveRequest(f, r.a, vec(), nil)
		}
	}
	return reqs
}

// kpdCorrect is the independent check of a response: A·x = b mod p for
// every returned column.
func kpdCorrect(f ff.Fp64, r *kpdRequest, resp *server.SolveResponse) bool {
	if r.req.Bs == nil {
		return fpCorrect(f, r.a, resp.X, r.req.B)
	}
	if len(resp.Xs) != len(r.req.Bs) {
		return false
	}
	for j, x := range resp.Xs {
		if !fpCorrect(f, r.a, x, r.req.Bs[j]) {
			return false
		}
	}
	return true
}

// kpdService is one in-process server on a loopback listener and the
// client that talks to it.
type kpdService struct {
	hs     *http.Server
	served chan struct{} // closed when Serve has returned
	base   string
	hc     *http.Client
}

func startService() (*kpdService, error) {
	srv, err := server.New(server.Config{})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &kpdService{
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan struct{}),
		base:   "http://" + ln.Addr().String(),
		hc: &http.Client{
			Timeout:   time.Minute,
			Transport: &http.Transport{MaxConnsPerHost: kpdConns, MaxIdleConnsPerHost: kpdConns},
		},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln) // always http.ErrServerClosed after close
	}()
	return s, nil
}

// close stops the server and waits for it.
func (s *kpdService) close() {
	s.hc.CloseIdleConnections()
	_ = s.hs.Close() // Close only reports the listener's close error
	<-s.served
}

// post sends one request, wrapping client encode, HTTP round trip and
// response decode in spans of op id.
func (s *kpdService) post(tr *tracer, tc obs.TraceContext, path string, req *server.SolveRequest) (*server.SolveResponse, time.Duration, error) {
	id := tc.Trace.String()
	end := tr.span(id, "client.encode", "op")
	body, err := json.Marshal(req)
	end()
	if err != nil {
		return nil, 0, err
	}
	hreq, err := http.NewRequestWithContext(context.Background(), http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set("traceparent", tc.Traceparent())
	end = tr.span(id, "http.roundtrip", "op")
	t0 := time.Now()
	hresp, err := s.hc.Do(hreq)
	if err != nil {
		end()
		return nil, 0, err
	}
	raw, err := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	rtt := time.Since(t0)
	end()
	if err != nil {
		return nil, rtt, err
	}
	if hresp.StatusCode != http.StatusOK {
		return nil, rtt, fmt.Errorf("%s: status %d: %s", path, hresp.StatusCode, bytes.TrimSpace(raw))
	}
	end = tr.span(id, "client.decode", "op")
	defer end()
	var resp server.SolveResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, rtt, fmt.Errorf("%s: decode response: %w", path, err)
	}
	return &resp, rtt, nil
}

// openLoop sends reqs on their schedule over kpdConns connections and
// returns each request's result and how late the generator handed it over.
func (s *kpdService) openLoop(f ff.Fp64, tr *tracer, reqs []kpdRequest) ([]kpdResult, []time.Duration) {
	results := make([]kpdResult, len(reqs))
	lags := make([]time.Duration, len(reqs))
	next := make(chan int, len(reqs)) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for range kpdConns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := &reqs[i]
				tc := obs.NewTraceContext()
				end := tr.span(tc.Trace.String(), "op", "")
				resp, rtt, err := s.post(tr, tc, r.path, &r.req)
				res := kpdResult{lat: time.Since(start) - r.due, rtt: rtt, err: err}
				if err == nil {
					endCheck := tr.span(tc.Trace.String(), "verify", "op")
					res.ok = kpdCorrect(f, r, resp)
					endCheck()
					res.hit = resp.Cache == "hit"
					res.elapsed = resp.ElapsedMS
				}
				end()
				results[i] = res
			}
		}()
	}
	for i := range reqs {
		if d := time.Until(start.Add(reqs[i].due)); d > 0 {
			time.Sleep(d)
		}
		lags[i] = time.Since(start) - reqs[i].due
		next <- i
	}
	close(next)
	wg.Wait()
	return results, lags
}

// kpdSegment accounts the results of one open-loop stretch.
func kpdSegment(results []kpdResult) segment {
	var s segment
	for _, r := range results {
		s.record(r.lat, r.ok, r.err, kpdLimit)
	}
	return s
}

func runKPDMixed(cfg Config, tr *tracer) (*outcome, error) {
	f := ff.MustFp64(ff.P62)
	gen := ff.NewSource(cfg.Seed)
	hot := make([]*matrix.Dense[uint64], kpdHot)
	for i := range hot {
		hot[i] = matrix.Random[uint64](f, gen, kpdN, kpdN, f.Modulus())
	}

	// Set-up starts a server with the default config and primes the hot
	// set: one factorization per hot matrix.
	var svc *kpdService
	setups, err := setupTimes(cfg, kpdSetups, func() error {
		var err error
		if svc, err = startService(); err != nil {
			return err
		}
		for _, a := range hot {
			req := solveRequest(f, a, nil, nil)
			if _, _, err := svc.post(nil, obs.NewTraceContext(), "/v1/factor", &req); err != nil {
				return err
			}
		}
		return nil
	})
	if svc != nil {
		defer svc.close()
	}
	if err != nil {
		return nil, err
	}

	count := func(d time.Duration) int { return max(int(d.Seconds()*kpdRate), 1) }
	if !cfg.Trace {
		reqs := kpdSchedule(f, gen, hot, count(cfg.Duration))
		s := measure(func(*heapSampler) segment {
			res, _ := svc.openLoop(f, nil, reqs)
			return kpdSegment(res)
		})
		return &outcome{attempted: s.attempted, failed: s.failed, wrong: s.wrong, values: endToEndValues(setups, s, false)}, nil
	}

	// Traced run: the first half untraced, the second with the observer
	// installed; only the second feeds the per-layer values.
	half := count(cfg.Duration / 2)
	plainRes, _ := svc.openLoop(f, nil, kpdSchedule(f, gen, hot, half))
	tracedReqs := kpdSchedule(f, gen, hot, half)
	o := tr.newObserver()
	att0 := obs.AttemptsTotal()
	obs.SetActive(o)
	tracedRes, lags := svc.openLoop(f, tr, tracedReqs)
	obs.SetActive(nil)
	attempts := obs.AttemptsTotal() - att0

	vals := newLayerValues()
	var hitEl, missEl, transport []time.Duration
	hits := 0
	for _, r := range tracedRes {
		if r.err != nil {
			continue
		}
		el := time.Duration(r.elapsed * float64(time.Millisecond))
		transport = append(transport, r.rtt-el)
		if r.hit {
			hits++
			hitEl = append(hitEl, el)
		} else {
			missEl = append(missEl, el)
		}
	}
	traced := kpdSegment(tracedRes)
	vals["server.cache_hit_ratio"] = float64(hits) / float64(max(len(hitEl)+len(missEl), 1))
	vals["server.hit_elapsed_ms"] = ms(quantile(hitEl, 0.5))
	vals["server.miss_elapsed_ms"] = ms(quantile(missEl, 0.5))
	vals["server.transport_ms"] = ms(quantile(transport, 0.5))
	vals["kpd.send_lag_p99_ms"] = ms(quantile(lags, 0.99))
	vals["kp.attempts_per_solve"] = float64(attempts) / float64(max(len(traced.lat), 1))
	return finishTrace(cfg, tr, o, vals, kpdSegment(plainRes), traced)
}
