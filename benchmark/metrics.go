package main

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// Config is one benchmark run.
type Config struct {
	Workload string
	Seed     uint64
	// Duration is the measured time; a traced run splits it between the
	// untraced and the traced segment.
	Duration time.Duration
	// Trace selects the traced run (per-layer metrics) over the untraced
	// one (end-to-end metrics).
	Trace bool
	// RepoRoot is the tree whose non-test Go lines the report header counts.
	RepoRoot string
	// TraceDir receives the span file of a traced run.
	TraceDir string
	// setupChild makes the workload stop after its first set-up and hand
	// back the time it took (see setupTimes).
	setupChild bool
}

// metricSpec names one reported metric and its unit.
type metricSpec struct {
	name, unit string
}

// endToEnd is what a user of the solver or the service sees; the untraced
// run prints exactly these.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"throughput_ops_s", "1/s"},
	{"goodput_ratio", "ratio"},
	{"cpu_ms_per_op", "ms"},
	{"heap_peak_mb", "MB"},
}

// perLayer is what the traced run prints: per-op values from the program's
// phase spans and server responses, plus the layer cells timed directly
// and the rns cell's RingStats. README.md maps each to the end-to-end metric it should move.
var perLayer = []metricSpec{
	{"error_ratio", "ratio"},
	{"latency_samples", "count"},
	{"kp.precondition.busy_ms", "ms"},
	{"kp.krylov.busy_ms", "ms"},
	{"kp.krylov.mul_calls", "count"},
	{"kp.minpoly.busy_ms", "ms"},
	{"kp.backsolve.busy_ms", "ms"},
	{"kp.backsolve.mul_calls", "count"},
	{"kp.apply_calls", "count"},
	{"kp.attempts_per_solve", "ratio"},
	{"matrix.mul_calls", "count"},
	{"matrix.mul_busy_ms", "ms"},
	{"matrix.mul_ms.n256", "ms"},
	{"matrix.mul_field_ops.n256", "count"},
	{"matrix.matvec_us.n64", "us"},
	{"matrix.composed_apply_us.n256", "us"},
	{"matrix.digest_us.n64", "us"},
	{"ff.dot_ns_per_term.n256", "ns"},
	{"ff.muladd_ns_per_term.n256", "ns"},
	{"poly.ntt_us.len512", "us"},
	{"structured.toeplitz_apply_us.n256", "us"},
	{"seq.minpoly_parallel_ms.len512", "ms"},
	{"seq.minpoly_parallel_field_ops.len512", "count"},
	{"seq.bm_us.len512", "us"},
	{"seq.bm_field_ops.len512", "count"},
	{"rns.residues_per_solve", "count"},
	{"rns.bad_primes_per_solve", "count"},
	{"rns.primes_ms", "ms"},
	{"rns.residue_wall_ms", "ms"},
	{"rns.residue_busy_ms", "ms"},
	{"rns.parallel_efficiency", "ratio"},
	{"rns.crt_ms", "ms"},
	{"rns.verify_ms", "ms"},
	{"rns.cache_hit_ratio", "ratio"},
	{"core.factor_ms.n64", "ms"},
	{"core.factored_solve_us.n64", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.hit_elapsed_ms", "ms"},
	{"server.miss_elapsed_ms", "ms"},
	{"server.transport_ms", "ms"},
	{"server.decode_us.n64", "us"},
	{"server.encode_us.n64", "us"},
	{"kpd.send_lag_p99_ms", "ms"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.dropped_spans", "count"},
}

// Metric is one reported value.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the JSON object printed as the last line of standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// outcome is what a workload hands back: op counts and a value for every
// metric of the run's catalog.
type outcome struct {
	attempted, failed, wrong int
	values                   map[string]float64
}

type workloadFunc func(cfg Config, tr *tracer) (*outcome, error)

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]workloadFunc{
	"fp-solve":  runFPSolve,
	"kpd-mixed": runKPDMixed,
}

// Run executes cfg, writing the report header and a per-metric summary to
// w, and returns the result object.
func Run(cfg Config, w io.Writer) (*Result, error) {
	wl, ok := workloads[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want fp-solve or kpd-mixed)", cfg.Workload)
	}
	writeHeader(w, cfg)
	var tr *tracer
	if cfg.Trace {
		tr = newTracer()
	}
	out, err := wl(cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	catalog := endToEnd
	if cfg.Trace {
		catalog = perLayer
	}
	res := &Result{
		Correct:   out.wrong == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]Metric, len(catalog)),
	}
	for _, m := range catalog {
		v, ok := out.values[m.name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s was not measured", cfg.Workload, m.name)
		}
		res.Metrics[m.name] = Metric{Value: v, Unit: m.unit}
		fmt.Fprintf(w, "# %-40s %14.6g %s\n", m.name, v, m.unit)
	}
	if res.Attempted < 1 {
		return nil, fmt.Errorf("%s: no op was attempted", cfg.Workload)
	}
	return res, nil
}

// segment accounts the ops of one measured stretch.
type segment struct {
	lat       []time.Duration // latency of every correctly answered op
	attempted int
	failed    int // errors, refusals and wrong answers
	wrong     int
	inLimit   int           // correct answers within the workload's latency limit
	busy      time.Duration // closed loop: time spent inside program calls
	wall      time.Duration
	cpu       time.Duration
	heapPeak  uint64
	// opPeaks is the live-heap peak of each closed-loop op; when present,
	// heapPeak is their median, which a single late GC cannot move.
	opPeaks []uint64
}

// record accounts one op: err is a failed or refused call, ok == false a
// wrong answer.
func (s *segment) record(lat time.Duration, ok bool, err error, limit time.Duration) {
	s.attempted++
	switch {
	case err != nil:
		s.failed++
	case !ok:
		s.failed++
		s.wrong++
	default:
		s.lat = append(s.lat, lat)
		if lat <= limit {
			s.inLimit++
		}
	}
}

// endToEndValues derives the untraced run's metrics. A closed loop's
// throughput is ops per second of program time; an open loop's is answers
// per second of wall time, and its p99 is windowed (see windowedP99).
func endToEndValues(setups []time.Duration, s segment, closed bool) map[string]float64 {
	thr := float64(len(s.lat)) / s.wall.Seconds()
	p99 := windowedP99(s.lat)
	if closed {
		thr = float64(len(s.lat)) / s.busy.Seconds()
		p99 = quantile(s.lat, 0.99)
	}
	return map[string]float64{
		"setup_s":          median(setups).Seconds(),
		"latency_p50_ms":   ms(quantile(s.lat, 0.50)),
		"latency_p99_ms":   ms(p99),
		"throughput_ops_s": thr,
		"goodput_ratio":    float64(s.inLimit) / float64(s.attempted),
		"cpu_ms_per_op":    ms(s.cpu) / float64(s.attempted),
		"heap_peak_mb":     float64(s.heapPeak) / (1 << 20),
	}
}

// newLayerValues returns every per-layer metric at zero; a workload fills
// in the ones its layers produce and the layer cells fill in the rest, so
// a traced run of any workload prints the full catalog.
func newLayerValues() map[string]float64 {
	v := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		v[m.name] = 0
	}
	return v
}

// setupChildEnv, set to "<workload>:<seed>", turns a process of this
// executable into a set-up child: it sets the workload up once, prints the
// nanoseconds that took and exits.
const setupChildEnv = "BENCHMARK_SETUP_CHILD"

// setupDone ends a set-up child's workload after its one timed set-up.
type setupDone struct{ d time.Duration }

func (e *setupDone) Error() string { return "set-up done" }

// setupTimes times the workload's set-up. Each timed set-up must pay the
// process-wide first-use work too (the matrix worker pool, the NTT twiddle
// tables, …), so only one runs in this process — its build serves the
// measured ops — and an untraced run times reps−1 more, each in a fresh
// child process of this executable. setup_s is the median.
func setupTimes(cfg Config, reps int, build func() error) ([]time.Duration, error) {
	t0 := time.Now()
	if err := build(); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	d := []time.Duration{time.Since(t0)}
	if cfg.setupChild {
		return nil, &setupDone{d[0]}
	}
	if cfg.Trace {
		return d, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	for range reps - 1 {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d", setupChildEnv, cfg.Workload, cfg.Seed))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("setup child: %w", err)
		}
		d = append(d, time.Duration(ns))
	}
	return d, nil
}

// setupChild runs one set-up of the workload spec ("<workload>:<seed>")
// names and prints its nanoseconds; it returns the process exit code.
func setupChild(spec string, stdout, stderr io.Writer) int {
	name, seedText, _ := strings.Cut(spec, ":")
	seed, err := strconv.ParseUint(seedText, 10, 64)
	wl, ok := workloads[name]
	if err != nil || !ok {
		fmt.Fprintf(stderr, "benchmark: bad %s=%q\n", setupChildEnv, spec)
		return 2
	}
	_, err = wl(Config{Workload: name, Seed: seed, setupChild: true}, nil)
	var done *setupDone
	if !errors.As(err, &done) {
		fmt.Fprintf(stderr, "benchmark: set-up child %s: %v\n", spec, err)
		return 1
	}
	fmt.Fprintln(stdout, int64(done.d))
	return 0
}

// measure runs body as one measured stretch and fills in the segment's
// wall time, process CPU time and peak heap. body may read per-op peaks
// from the sampler it is handed.
func measure(body func(hs *heapSampler) segment) segment {
	runtime.GC() // every run starts from the same heap state
	hs := startHeapSampler()
	cpu0 := processCPU()
	t0 := time.Now()
	s := body(hs)
	s.wall = time.Since(t0)
	s.cpu = processCPU() - cpu0
	s.heapPeak = hs.stop()
	if len(s.opPeaks) > 0 {
		s.heapPeak = median(s.opPeaks)
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// quantile returns the nearest-rank q-quantile of d (0 for no samples).
func quantile(d []time.Duration, q float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	i := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// p99Window is the window of an open loop's p99: 5 s of kpd-mixed answers.
const p99Window = 5 * kpdRate

// windowedP99 splits d, in arrival order, into equal windows of about
// p99Window samples and returns the median of their p99s, so a host stall
// of a few seconds moves one window's tail rather than the whole run's.
func windowedP99(d []time.Duration) time.Duration {
	n := max(len(d)/p99Window, 1)
	p := make([]time.Duration, n)
	for k := range n {
		p[k] = quantile(d[k*len(d)/n:(k+1)*len(d)/n], 0.99)
	}
	return median(p)
}

// median is the middle sample (the mean of the two middle ones for an
// even count).
func median[T ~int64 | ~uint64](d []T) T {
	if len(d) == 0 {
		return 0
	}
	s := slices.Clone(d)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return s[len(s)/2-1]/2 + s[len(s)/2]/2
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// heapSampler polls the live heap every millisecond and keeps the maximum.
type heapSampler struct {
	peak atomic.Uint64 // the maximum since the last take
	quit chan struct{}
	done chan uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{quit: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		sample := []metrics.Sample{{Name: heapMetric}}
		var runPeak uint64
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			v := sample[0].Value.Uint64()
			runPeak = max(runPeak, v)
			for old := h.peak.Load(); v > old && !h.peak.CompareAndSwap(old, v); old = h.peak.Load() {
			}
			select {
			case <-h.quit:
				h.done <- runPeak
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the peak since the previous take and starts a new one.
func (h *heapSampler) take() uint64 { return h.peak.Swap(0) }

// stop ends the sampler and returns the peak of its whole run.
func (h *heapSampler) stop() uint64 {
	close(h.quit)
	return <-h.done
}

// writeHeader prints the environment the numbers were taken in.
func writeHeader(w io.Writer, cfg Config) {
	fmt.Fprintf(w, "# benchmark workload=%s seed=%d seconds=%g trace=%t\n",
		cfg.Workload, cfg.Seed, cfg.Duration.Seconds(), cfg.Trace)
	fmt.Fprintf(w, "# go_version=%s nproc=%d gomaxprocs=%d commit=%s go_lines_non_test=%d\n",
		runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0),
		gitCommit(), goLines(cfg.RepoRoot))
}

// gitCommit is the revision the Go toolchain stamped into the binary when
// it was built inside a git checkout, or "unknown".
func gitCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// benchDir is this benchmark's directory, left out of the program's line
// count along with build output and VCS metadata.
const benchDir = "benchmark"

// goLines counts the lines of the program's non-test Go files.
func goLines(root string) int {
	total := 0
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // an unreadable entry only lowers an informational count
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".bench_build", benchDir:
				if path != root {
					return filepath.SkipDir
				}
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		if b, err := os.ReadFile(path); err == nil {
			total += strings.Count(string(b), "\n")
		}
		return nil
	})
	return total
}
