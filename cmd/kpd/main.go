// Command kpd is the long-running Kaltofen–Pan solve daemon: an HTTP+JSON
// service over core.Solver with a digest-keyed factorization cache, bounded
// admission control, per-request deadlines, and the full obs telemetry
// surface on the same listener.
//
// Usage:
//
//	kpd -addr :8080                      # defaults: parallel multiplier, 64-entry cache
//	kpd -addr :8080 -cache 256 -queue 64 # bigger cache, deeper waiting room
//	kpd -addr :8080 -log json            # structured request + attempt records
//
// Endpoints: POST /v1/solve, /v1/solve_batch, /v1/factor (JSON bodies, see
// internal/server); GET /metrics (Prometheus 0.0.4, or OpenMetrics with
// exemplars via Accept negotiation / ?format=openmetrics), /snapshot
// (JSON), /debug/traces (tail-sampled request traces), /debug/profiles
// (triggered pprof captures), /debug/timeline (metrics sample ring),
// /debug/slo (objective status), /healthz. Repeat matrices hit the
// factorization cache and skip the Krylov phase — watch
// kp_server_cache_hits_total and the absence of new batch/krylov spans.
// Every request gets a W3C trace context (honoring an incoming traceparent
// header); slow, errored and unlucky requests are always retained in the
// trace store, and slow requests, queue saturation and RNS bad-prime
// storms fire triggered profile captures cross-linked by trace id. With
// -slo, latency/error/efficiency objectives are evaluated as multi-window
// burn rates over the timeline and a breach degrades /healthz (503).
// SIGINT/SIGTERM drains in-flight requests before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"strings"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/server"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		mul      = flag.String("mul", "parallel", "matrix multiplier: "+strings.Join(matrix.Names(), "|"))
		seed     = flag.Uint64("seed", 0, "root randomness seed (0 = deterministic default; each request runs on a Split child)")
		cache    = flag.Int("cache", 64, "factorization cache capacity (matrices)")
		conc     = flag.Int("concurrency", 0, "max solves executing at once (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 0, "max queued requests before 429 (0 = 4×concurrency)")
		deadline = flag.Duration("deadline", 30*time.Second, "cap on per-request deadlines")
		maxDim   = flag.Int("max-n", 2048, "largest accepted system dimension")
		grace    = flag.Duration("grace", 10*time.Second, "drain budget on SIGINT/SIGTERM")
		logFmt   = flag.String("log", "off", "structured request/attempt logging to stderr: off | text | json")

		traces      = flag.Int("traces", 256, "tail-sampled trace store capacity (0 disables /debug/traces)")
		traceSlow   = flag.Duration("trace-slow", 250*time.Millisecond, "latency above which a request trace is always retained")
		traceSample = flag.Int("trace-sample", 16, "keep 1 in this many fast+successful request traces (1 = keep all)")

		profiles    = flag.Int("profiles", 32, "triggered profile store capacity (0 disables /debug/profiles)")
		profileCPU  = flag.Duration("profile-cpu", 250*time.Millisecond, "CPU capture window per trigger (negative = heap only)")
		profileCool = flag.Duration("profile-cooldown", 10*time.Second, "minimum interval between captures per trigger reason")

		timelineCap      = flag.Int("timeline", 360, "metrics timeline capacity in samples (0 disables /debug/timeline)")
		timelineInterval = flag.Duration("timeline-interval", 10*time.Second, "metrics timeline sampling interval")

		slo     = flag.Bool("slo", false, "evaluate SLO burn rates over the timeline (degrades /healthz on breach)")
		sloP99  = flag.Duration("slo-p99", 250*time.Millisecond, "latency objective: 99% of /v1/solve requests faster than this")
		sloFast = flag.Duration("slo-fast", time.Minute, "fast burn window")
		sloSlow = flag.Duration("slo-slow", 15*time.Minute, "slow burn window")
		sloBurn = flag.Float64("slo-burn", 1.0, "burn-rate threshold; breach when both windows burn at or above it")
	)
	flag.Parse()

	var logger *slog.Logger
	switch *logFmt {
	case "off":
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	default:
		fatal(fmt.Errorf("-log wants off|text|json, got %q", *logFmt))
	}

	srv, err := server.New(server.Config{
		Multiplier:    *mul,
		Seed:          *seed,
		CacheSize:     *cache,
		MaxConcurrent: *conc,
		MaxQueue:      *queue,
		MaxDeadline:   *deadline,
		MaxDim:        *maxDim,
		Logger:        logger,
	})
	if err != nil {
		fatal(err)
	}
	// An active Observer keeps the phase-latency histograms and /snapshot
	// phase totals live for every solve the daemon runs — and populates the
	// per-request span trees the trace store retains.
	obs.SetActive(obs.New(0))
	if *traces > 0 {
		obs.SetTraceStore(obs.NewTraceStore(obs.TraceStoreConfig{
			Capacity:      *traces,
			SlowThreshold: *traceSlow,
			SampleEvery:   *traceSample,
		}))
	}
	if *profiles > 0 {
		obs.SetProfileStore(obs.NewProfileStore(obs.ProfileStoreConfig{
			Capacity:    *profiles,
			CPUDuration: *profileCPU,
			Cooldown:    *profileCool,
		}))
	}
	if *timelineCap > 0 {
		tl := obs.NewTimeline(obs.TimelineConfig{
			Capacity: *timelineCap,
			Interval: *timelineInterval,
		})
		obs.SetTimeline(tl)
		tl.Start()
		defer tl.Stop()
		if *slo {
			eng := obs.NewSLOEngine(obs.SLOConfig{
				FastWindow: *sloFast,
				SlowWindow: *sloSlow,
				Burn:       *sloBurn,
			}, tl, obs.DefaultKpdObjectives(*sloP99))
			obs.SetSLOEngine(eng)
			eng.Start()
			defer eng.Stop()
		}
	} else if *slo {
		fatal(fmt.Errorf("-slo needs the timeline: set -timeline > 0"))
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "kpd: serving on http://%s (/v1/solve /v1/solve_batch /v1/factor /metrics /snapshot /debug/traces /debug/profiles /debug/timeline /healthz)\n", ln.Addr())

	ctx, stop := server.SignalContext(context.Background())
	defer stop()
	if err := server.ServeUntil(ctx, ln, srv.Handler(), *grace); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "kpd: drained, bye")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kpd:", err)
	os.Exit(1)
}
