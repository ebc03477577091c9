// Command kpdclient exercises a running kpd daemon from the command line:
// it generates a random system (or repeats a seeded one to demonstrate the
// factorization cache), posts it to the requested endpoint, verifies the
// returned solution locally, and reports whether the server's cache hit.
//
// Usage:
//
//	kpdclient -addr http://127.0.0.1:8080 -n 64          # one solve
//	kpdclient -addr http://127.0.0.1:8080 -n 64 -repeat 3 # same matrix 3×: cache hits
//	kpdclient -addr http://127.0.0.1:8080 -n 64 -rhs 8    # batched solve
//	kpdclient -addr http://127.0.0.1:8080 -op factor      # warm the cache only
//	kpdclient -addr http://127.0.0.1:8080 -n 16 -ring zz  # exact integer solve
//
// Exit codes: 0 success, 1 request/verification failure, 2 usage.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/big"
	"os"
	"time"

	"repro/internal/ff"
	"repro/internal/matrix"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", "http://127.0.0.1:8080", "kpd base URL")
		n        = flag.Int("n", 32, "system dimension")
		p        = flag.Uint64("p", ff.P62, "prime field modulus")
		op       = flag.String("op", "solve", "operation: solve | batch | factor")
		rhs      = flag.Int("rhs", 4, "right-hand sides for op=batch")
		seed     = flag.Uint64("seed", uint64(time.Now().UnixNano()), "matrix generation seed (fix it to re-request the same matrix)")
		repeat   = flag.Int("repeat", 1, "send the same system this many times (2nd+ should be cache hits)")
		deadline = flag.Duration("deadline", 10*time.Second, "per-request deadline")
		slow     = flag.Duration("slow", 250*time.Millisecond, "round-trip time above which the server's trace and profile URLs are printed (0 disables; match kpd -trace-slow)")
		ring     = flag.String("ring", "fp", "coefficient ring: fp (one word prime field) | zz (exact over the integers; op=solve only)")
	)
	flag.Parse()
	if *repeat < 1 || *n < 1 || *rhs < 1 {
		fmt.Fprintln(os.Stderr, "kpdclient: -n, -rhs and -repeat want positive values")
		os.Exit(2)
	}
	if *ring == "zz" {
		runRing(*addr, *op, *n, *seed, *repeat, *deadline, *slow)
		return
	}
	if *ring != "fp" {
		fmt.Fprintf(os.Stderr, "kpdclient: -ring wants fp or zz, got %q\n", *ring)
		os.Exit(2)
	}

	f, err := ff.NewFp64(*p)
	if err != nil {
		fmt.Fprintln(os.Stderr, "kpdclient:", err)
		os.Exit(2)
	}
	src := ff.NewSource(*seed)
	a := matrix.Random[uint64](f, src, *n, *n, f.Modulus())
	req := server.SolveRequest{
		P:          *p,
		A:          denseRows(a),
		DeadlineMS: deadline.Milliseconds(),
	}
	var bs *matrix.Dense[uint64]
	switch *op {
	case "solve":
		req.B = ff.SampleVec[uint64](f, src, *n, f.Modulus())
	case "batch":
		bs = matrix.Random[uint64](f, src, *n, *rhs, f.Modulus())
		req.Bs = denseCols(bs)
	case "factor":
	default:
		fmt.Fprintf(os.Stderr, "kpdclient: unknown -op %q\n", *op)
		os.Exit(2)
	}

	client := &server.Client{BaseURL: *addr}
	ctx := context.Background()
	for i := 0; i < *repeat; i++ {
		start := time.Now()
		var resp *server.SolveResponse
		var err error
		switch *op {
		case "solve":
			resp, err = client.Solve(ctx, req)
		case "batch":
			resp, err = client.SolveBatch(ctx, req)
		case "factor":
			resp, err = client.Factor(ctx, req)
		}
		if err != nil {
			// APIError.Error() already quotes the trace id; surface it on
			// its own line too so scripts can grep it and pull the request
			// out of the server's /debug/traces — and the profile store,
			// since a failed request may have fired a triggered capture.
			fmt.Fprintln(os.Stderr, "kpdclient:", err)
			var apiErr *server.APIError
			if errors.As(err, &apiErr) && apiErr.TraceID != "" {
				fmt.Fprintf(os.Stderr, "kpdclient: trace_id=%s (see kpd /debug/traces?id=%s and /debug/profiles)\n", apiErr.TraceID, apiErr.TraceID)
			}
			os.Exit(1)
		}
		rtt := time.Since(start)
		noteSlow(rtt, *slow, resp.TraceID)
		// Trust but verify: the solver is Las Vegas, the transport is not.
		switch *op {
		case "solve":
			if !ff.VecEqual[uint64](f, a.MulVec(f, resp.X), req.B) {
				fmt.Fprintln(os.Stderr, "kpdclient: returned x does not satisfy A·x = b")
				os.Exit(1)
			}
		case "batch":
			for j, x := range resp.Xs {
				if !ff.VecEqual[uint64](f, a.MulVec(f, x), bs.Col(j)) {
					fmt.Fprintf(os.Stderr, "kpdclient: returned column %d does not satisfy A·x = b\n", j)
					os.Exit(1)
				}
			}
		}
		verified := ""
		if *op != "factor" {
			verified = ", verified locally"
		}
		fmt.Printf("%s n=%d cache=%s server=%.1fms rtt=%s digest=%s… trace=%s%s\n",
			*op, resp.N, resp.Cache, resp.ElapsedMS, rtt.Round(time.Millisecond), resp.Digest[:12], resp.TraceID, verified)
	}
}

// runRing posts an exact integer solve (ring=zz) and verifies the returned
// rationals locally over ℚ. Repeats with a fixed -seed re-send the same
// matrix, so the second round should report cache=hit: every residue
// factorization is served from the server's per-prime cache.
// noteSlow points at the server-side artifacts when a round trip crossed
// the slow threshold: the tail-sampled trace store retains the request (it
// was slow) and the profile store likely holds a capture fired while it
// ran, both keyed by the same trace id.
func noteSlow(rtt, slow time.Duration, traceID string) {
	if slow <= 0 || rtt < slow || traceID == "" {
		return
	}
	fmt.Fprintf(os.Stderr, "kpdclient: slow request (rtt=%s): trace_id=%s (see kpd /debug/traces?id=%s and /debug/profiles)\n",
		rtt.Round(time.Millisecond), traceID, traceID)
}

func runRing(addr, op string, n int, seed uint64, repeat int, deadline time.Duration, slow time.Duration) {
	if op != "solve" {
		fmt.Fprintf(os.Stderr, "kpdclient: -ring zz supports -op solve only, got %q\n", op)
		os.Exit(2)
	}
	src := ff.NewSource(seed)
	const bound = 999
	draw := func() string {
		return fmt.Sprintf("%d", src.Intn(2*bound+1)-bound)
	}
	az := make([][]string, n)
	for i := range az {
		az[i] = make([]string, n)
		for j := range az[i] {
			az[i][j] = draw()
		}
	}
	bz := make([]string, n)
	for i := range bz {
		bz[i] = draw()
	}
	req := server.SolveRequest{
		Ring:       "zz",
		Az:         az,
		Bz:         bz,
		DeadlineMS: deadline.Milliseconds(),
	}
	client := &server.Client{BaseURL: addr}
	ctx := context.Background()
	for i := 0; i < repeat; i++ {
		start := time.Now()
		resp, err := client.Solve(ctx, req)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kpdclient:", err)
			var apiErr *server.APIError
			if errors.As(err, &apiErr) && apiErr.TraceID != "" {
				fmt.Fprintf(os.Stderr, "kpdclient: trace_id=%s (see kpd /debug/traces?id=%s and /debug/profiles)\n", apiErr.TraceID, apiErr.TraceID)
			}
			os.Exit(1)
		}
		rtt := time.Since(start)
		noteSlow(rtt, slow, resp.TraceID)
		if !verifyRing(az, bz, resp.Xr) {
			fmt.Fprintln(os.Stderr, "kpdclient: returned x does not satisfy A·x = b over ℚ")
			os.Exit(1)
		}
		residues := 0
		if resp.RNS != nil {
			residues = resp.RNS.Residues
		}
		fmt.Printf("solve ring=zz n=%d residues=%d cache=%s server=%.1fms rtt=%s digest=%s… trace=%s, verified locally\n",
			resp.N, residues, resp.Cache, resp.ElapsedMS, rtt.Round(time.Millisecond), resp.Digest[:12], resp.TraceID)
	}
}

// verifyRing checks A·x = b exactly over ℚ from the wire strings.
func verifyRing(az [][]string, bz []string, xr []string) bool {
	if len(xr) != len(bz) {
		return false
	}
	x := make([]*big.Rat, len(xr))
	for i, s := range xr {
		r, ok := new(big.Rat).SetString(s)
		if !ok {
			return false
		}
		x[i] = r
	}
	for i, row := range az {
		acc := new(big.Rat)
		for j, s := range row {
			a, ok := new(big.Rat).SetString(s)
			if !ok {
				return false
			}
			acc.Add(acc, a.Mul(a, x[j]))
		}
		b, ok := new(big.Rat).SetString(bz[i])
		if !ok || acc.Cmp(b) != 0 {
			return false
		}
	}
	return true
}

// denseRows flattens a dense matrix into the wire row-of-rows form.
func denseRows(m *matrix.Dense[uint64]) [][]uint64 {
	rows := make([][]uint64, m.Rows)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows
}

// denseCols returns the columns of m (the wire form of a multi-RHS block).
func denseCols(m *matrix.Dense[uint64]) [][]uint64 {
	cols := make([][]uint64, m.Cols)
	for j := range cols {
		cols[j] = m.Col(j)
	}
	return cols
}
