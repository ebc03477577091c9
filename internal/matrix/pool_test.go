package matrix

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/ff"
	"repro/internal/obs"
)

func TestParallelForCoversRangeOnce(t *testing.T) {
	for _, tc := range []struct{ n, grain, maxPar int }{
		{1, 1, 0}, {7, 3, 0}, {64, 1, 0}, {64, 16, 0}, {1000, 7, 0},
		{100, 1, 3}, {100, 10, 200}, {5, 100, 0}, {33, 4, 1},
	} {
		hits := make([]atomic.Int32, tc.n)
		parallelForMax(tc.n, tc.grain, tc.maxPar, func(lo, hi int) {
			if lo < 0 || hi > tc.n || lo >= hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, tc.n)
			}
			for i := lo; i < hi; i++ {
				hits[i].Add(1)
			}
		})
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("n=%d grain=%d maxPar=%d: index %d visited %d times",
					tc.n, tc.grain, tc.maxPar, i, got)
			}
		}
	}
}

func TestParallelForEmptyAndNested(t *testing.T) {
	parallelFor(0, 4, func(lo, hi int) { t.Error("body called for n=0") })
	parallelFor(-3, 4, func(lo, hi int) { t.Error("body called for n<0") })

	// Nested parallelFors must not deadlock, whatever the pool is doing.
	var total atomic.Int64
	parallelFor(8, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			parallelFor(16, 2, func(lo2, hi2 int) {
				total.Add(int64(hi2 - lo2))
			})
		}
	})
	if total.Load() != 8*16 {
		t.Fatalf("nested total %d, want %d", total.Load(), 8*16)
	}

	var ran [3]atomic.Bool
	parallelDo(
		func() { ran[0].Store(true) },
		func() { ran[1].Store(true) },
		func() { ran[2].Store(true) },
	)
	for i := range ran {
		if !ran[i].Load() {
			t.Fatalf("parallelDo skipped fn %d", i)
		}
	}

	if PoolWorkers() < 2 {
		t.Fatalf("pool has %d workers, want ≥ 2", PoolWorkers())
	}
}

// TestParallelMulEdgeCases covers the dimension corners the row-banded
// schedule must get right: more workers than rows, single-row and
// single-column operands, and empty products.
func TestParallelMulEdgeCases(t *testing.T) {
	f := fp31
	src := ff.NewSource(77)
	cases := []struct{ r, k, c int }{
		{1, 1, 1}, {1, 9, 1}, {1, 5, 7}, {7, 5, 1}, {3, 3, 3},
		{2, 64, 2}, {64, 2, 64}, {0, 4, 3}, {4, 0, 3}, {129, 65, 33},
	}
	muls := []Multiplier[uint64]{
		Parallel[uint64]{},
		Parallel[uint64]{Workers: 64}, // Workers ≫ Rows
		Parallel[uint64]{Workers: 1},
		Parallel[uint64]{Tile: 5},
		Blocked[uint64]{},
		Blocked[uint64]{Tile: 3},
		ParallelStrassen[uint64]{Cutoff: 8},
	}
	for _, tc := range cases {
		a := Random[uint64](f, src, tc.r, tc.k, ff.P31)
		b := Random[uint64](f, src, tc.k, tc.c, ff.P31)
		want := mulClassical[uint64](f, a, b)
		for _, m := range muls {
			got := m.Mul(f, a, b)
			if !got.Equal(f, want) {
				t.Fatalf("%s disagrees with classical on %dx%d · %dx%d",
					m.Name(), tc.r, tc.k, tc.c, tc.c)
			}
		}
	}
}

func TestParallelMulDimensionMismatchPanics(t *testing.T) {
	f := fp31
	a := NewDense[uint64](f, 2, 3)
	b := NewDense[uint64](f, 4, 2)
	for _, m := range []Multiplier[uint64]{Parallel[uint64]{}, Blocked[uint64]{}, ParallelStrassen[uint64]{}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s accepted mismatched dims", m.Name())
				}
			}()
			m.Mul(f, a, b)
		}()
	}
}

// TestParallelStrassenRecursion drives the pooled recursion through several
// levels (odd sizes force the padding path) against the classical product.
func TestParallelStrassenRecursion(t *testing.T) {
	f := fp31
	src := ff.NewSource(123)
	s := ParallelStrassen[uint64]{Cutoff: 4}
	for _, n := range []int{5, 8, 16, 23, 33, 64} {
		a := Random[uint64](f, src, n, n, ff.P31)
		b := Random[uint64](f, src, n, n, ff.P31)
		if !s.Mul(f, a, b).Equal(f, mulClassical[uint64](f, a, b)) {
			t.Fatalf("parallel-strassen wrong at n=%d", n)
		}
	}
}

func TestScaleDiagHelpers(t *testing.T) {
	f := fp31
	src := ff.NewSource(5)
	for _, shape := range []struct{ r, c int }{{3, 5}, {64, 130}, {1, 1}} {
		m := Random[uint64](f, src, shape.r, shape.c, ff.P31)
		dc := ff.SampleVec[uint64](f, src, shape.c, ff.P31)
		dr := ff.SampleVec[uint64](f, src, shape.r, ff.P31)
		wantC := Mul(f, m, Diagonal(f, dc))
		if !ScaleColumnsDiag(f, m, dc).Equal(f, wantC) {
			t.Fatalf("ScaleColumnsDiag wrong at %dx%d", shape.r, shape.c)
		}
		wantR := Mul(f, Diagonal(f, dr), m)
		if !ScaleRowsDiag(f, m, dr).Equal(f, wantR) {
			t.Fatalf("ScaleRowsDiag wrong at %dx%d", shape.r, shape.c)
		}
	}
}

func TestByNameRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName[uint64](name)
		if err != nil {
			t.Fatal(err)
		}
		if m.Name() != name {
			t.Fatalf("ByName(%q).Name() = %q", name, m.Name())
		}
		if m.Omega() < 2 || m.Omega() > 3 {
			t.Fatalf("%s: omega %f out of range", name, m.Omega())
		}
	}
	if m, err := ByName[uint64](""); err != nil || m.Name() != "classical" {
		t.Fatalf("empty name: %v, %v", m, err)
	}
	if _, err := ByName[uint64]("quantum"); err == nil {
		t.Fatal("unknown multiplier accepted")
	}
	for in, want := range map[string]string{
		"classical": "classical", "blocked": "classical", "parallel": "classical",
		"strassen": "strassen", "parallel-strassen": "strassen", "": "classical",
	} {
		if got := CircuitSafeName(in); got != want {
			t.Fatalf("CircuitSafeName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestInstrumentedCounts(t *testing.T) {
	f := fp31
	src := ff.NewSource(9)
	inst := NewInstrumented(Classical[uint64]{})
	a := Random[uint64](f, src, 4, 6, ff.P31)
	b := Random[uint64](f, src, 6, 3, ff.P31)
	want := mulClassical[uint64](f, a, b)
	for i := 0; i < 3; i++ {
		if !inst.Mul(f, a, b).Equal(f, want) {
			t.Fatal("instrumented product wrong")
		}
	}
	snap := inst.Stats.Snapshot()
	if snap.Calls != 3 {
		t.Fatalf("calls = %d", snap.Calls)
	}
	if wantOps := uint64(3 * 4 * 3 * (2*6 - 1)); snap.FieldOps != wantOps {
		t.Fatalf("field-ops = %d, want %d", snap.FieldOps, wantOps)
	}
	if snap.Wall <= 0 {
		t.Fatal("wall time not recorded")
	}
	if inst.Name() != "instrumented(classical)" {
		t.Fatalf("name %q", inst.Name())
	}
	if inst.Omega() != 3 {
		t.Fatalf("omega %f", inst.Omega())
	}
	inst.Stats.Reset()
	if s := inst.Stats.Snapshot(); s.Calls != 0 || s.FieldOps != 0 || s.Wall != 0 {
		t.Fatalf("reset left %+v", s)
	}
}

// TestParallelFallsBackOverCircuitBuilder checks the concurrency guard: a
// circuit Builder is not ff.ConcurrentSafe, so the pooled multipliers must
// trace through their serial forms — same results, no data race on the
// node list, and classical-shape depth for Parallel.
func TestParallelFallsBackOverCircuitBuilder(t *testing.T) {
	model := ff.MustFp64(ff.P31)
	n := 6
	build := func(mul Multiplier[circuit.Wire]) *circuit.Builder {
		b := circuit.NewBuilderFor[uint64](model)
		aw := &Dense[circuit.Wire]{Rows: n, Cols: n, Data: b.Inputs(n * n)}
		bw := &Dense[circuit.Wire]{Rows: n, Cols: n, Data: b.Inputs(n * n)}
		out := mul.Mul(b, aw, bw)
		b.Return(out.Data...)
		return b
	}
	if ff.IsConcurrentSafe[circuit.Wire](circuit.NewBuilderFor[uint64](model)) {
		t.Fatal("circuit Builder must not report itself concurrency-safe")
	}
	classical := build(Classical[circuit.Wire]{})
	parallel := build(Parallel[circuit.Wire]{})
	if cm, pm := classical.Metrics(), parallel.Metrics(); cm != pm {
		t.Fatalf("Parallel over a Builder traced %+v, classical traced %+v", pm, cm)
	}

	// The traced product evaluates correctly and its p=1 list schedule
	// validates (the serialized schedule the PRAM experiments start from).
	f := ff.MustFp64(ff.P31)
	src := ff.NewSource(31)
	a := Random[uint64](f, src, n, n, ff.P31)
	bm := Random[uint64](f, src, n, n, ff.P31)
	inputs := append(append([]uint64{}, a.Data...), bm.Data...)
	got, err := circuit.Eval[uint64](parallel, f, inputs)
	if err != nil {
		t.Fatal(err)
	}
	want := mulClassical[uint64](f, a, bm)
	if !ff.VecEqual[uint64](f, got, want.Data) {
		t.Fatal("traced product evaluates wrong")
	}
	sched := parallel.ListSchedule(1)
	if err := sched.Validate(parallel); err != nil {
		t.Fatalf("p=1 schedule invalid: %v", err)
	}
	if sched.Steps != sched.Work {
		t.Fatalf("p=1 must serialize exactly: steps %d, work %d", sched.Steps, sched.Work)
	}
}

// TestInstrumentedConcurrentWall exercises the concurrent wall-time
// accounting: many goroutines share one Instrumented multiplier (as pool
// callers do), and the union-of-intervals Wall must stay below elapsed
// time while Busy sums every call. Run under -race this also proves the
// interval bookkeeping is data-race free.
func TestInstrumentedConcurrentWall(t *testing.T) {
	f := fp31
	src := ff.NewSource(77)
	inst := NewInstrumented(Classical[uint64]{})
	a := Random[uint64](f, src, 24, 24, ff.P31)
	b := Random[uint64](f, src, 24, 24, ff.P31)
	const workers, reps = 8, 12
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < reps; r++ {
				inst.Mul(f, a, b)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	snap := inst.Stats.Snapshot()
	if snap.Calls != workers*reps {
		t.Fatalf("calls = %d, want %d", snap.Calls, workers*reps)
	}
	if wantOps := uint64(workers * reps * 24 * 24 * (2*24 - 1)); snap.FieldOps != wantOps {
		t.Fatalf("field-ops = %d, want %d", snap.FieldOps, wantOps)
	}
	if snap.Wall <= 0 || snap.Busy <= 0 {
		t.Fatalf("times not recorded: %+v", snap)
	}
	// Union of intervals can never exceed the enclosing elapsed window...
	if snap.Wall > elapsed {
		t.Fatalf("Wall %v exceeds elapsed %v: overlapping calls double-counted", snap.Wall, elapsed)
	}
	// ...and the per-call sum can never undercut the union.
	if snap.Busy < snap.Wall {
		t.Fatalf("Busy %v < Wall %v", snap.Busy, snap.Wall)
	}
}

// TestPoolMetrics checks the obs counters the pool maintains: chunks are
// counted once each, the submitting goroutine's participation is visible,
// and submissions are tallied.
func TestPoolMetrics(t *testing.T) {
	submitted := obs.NewCounter("pool.jobs.submitted").Value()
	claimed := obs.NewCounter("pool.chunks.claimed").Value()
	caller := obs.NewCounter("pool.chunks.caller").Value()

	const n, grain, runs = 256, 4, 50
	var touched atomic.Int64
	for r := 0; r < runs; r++ {
		parallelFor(n, grain, func(lo, hi int) {
			touched.Add(int64(hi - lo))
		})
	}
	if touched.Load() != n*runs {
		t.Fatalf("touched %d of %d", touched.Load(), n*runs)
	}
	if got := obs.NewCounter("pool.jobs.submitted").Value() - submitted; got < runs {
		t.Fatalf("jobs.submitted delta = %d, want ≥ %d", got, runs)
	}
	wantChunks := int64((n+grain-1)/grain) * runs
	if got := obs.NewCounter("pool.chunks.claimed").Value() - claimed; got < wantChunks {
		t.Fatalf("chunks.claimed delta = %d, want ≥ %d", got, wantChunks)
	}
	// The submitting goroutine drives every job itself after the
	// non-blocking offers, so across many runs it claims chunks (any
	// single run can in principle be fully served by workers).
	if got := obs.NewCounter("pool.chunks.caller").Value() - caller; got < 1 {
		t.Fatalf("chunks.caller delta = %d, want ≥ 1 over %d runs", got, runs)
	}
	if obs.NewGauge("pool.workers.busy").Max() < 0 {
		t.Fatal("busy gauge must be non-negative")
	}
}

// TestFormRowsCancelMidway cancels the context from inside one row and
// checks that FormRows returns context.Canceled with every goroutine
// stopping within its current chunk: a row starts after the cancellation
// only inside a chunk already running, and no row is still running when
// FormRows returns. A field without the ConcurrentSafe marker covers the
// in-order path, which stops at the end of the cancelling row's chunk.
func TestFormRowsCancelMidway(t *testing.T) {
	const rows, cancelAt = 256, 20
	run := func(t *testing.T, f ff.Field[uint64], inFlight int) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var filled, late, active atomic.Int64
		m, err := FormRows(ctx, f, rows, 1, func(i int, row []uint64) {
			active.Add(1)
			defer active.Add(-1)
			if ctx.Err() != nil {
				late.Add(1)
			}
			if filled.Add(1) == cancelAt {
				cancel()
			}
			row[0] = uint64(i)
		})
		if !errors.Is(err, context.Canceled) || m != nil {
			t.Fatalf("FormRows = (%v, %v), want (nil, context.Canceled)", m, err)
		}
		if a := active.Load(); a != 0 {
			t.Fatalf("%d rows still running after FormRows returned", a)
		}
		if got, bound := late.Load(), int64(inFlight*formRowsGrain); got >= bound {
			t.Fatalf("%d rows ran after the cancellation, want < %d (one chunk per goroutine)", got, bound)
		}
	}
	t.Run("pool", func(t *testing.T) { run(t, ff.MustFp64(ff.P62), PoolWorkers()+1) })
	t.Run("in-order", func(t *testing.T) { run(t, serialField{}, 1) })
}

// TestFormRowsFillsEveryRow checks the uncancelled result on both paths.
func TestFormRowsFillsEveryRow(t *testing.T) {
	for _, f := range []ff.Field[uint64]{ff.MustFp64(ff.P62), serialField{}} {
		m, err := FormRows(nil, f, 100, 3, func(i int, row []uint64) {
			for j := range row {
				row[j] = uint64(3*i + j)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range m.Data {
			if v != uint64(k) {
				t.Fatalf("entry %d = %d", k, v)
			}
		}
	}
}

// serialField hides the ConcurrentSafe marker of the field it wraps (none
// here: FormRows never calls the field), so FormRows takes its in-order
// path.
type serialField struct{ ff.Field[uint64] }
