package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/obs"
)

// tracer keeps the benchmark's own spans in memory: one around every call
// the benchmark makes into the program, all spans of one op sharing its op
// id. A nil tracer (the untraced run) records nothing.
type tracer struct {
	epoch time.Time
	// programEpoch is when the program's observer started, as an offset
	// from epoch; program span times are offsets from it.
	programEpoch time.Duration
	mu           sync.Mutex
	spans        []benchSpan
}

type benchSpan struct {
	Op     string `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// span opens a span and returns the function that closes it.
func (t *tracer) span(op, name, parent string) func() {
	if t == nil {
		return func() {}
	}
	start := time.Since(t.epoch)
	return func() {
		end := time.Since(t.epoch)
		t.mu.Lock()
		t.spans = append(t.spans, benchSpan{Op: op, Name: name, Parent: parent, Start: start.Nanoseconds(), Dur: (end - start).Nanoseconds()})
		t.mu.Unlock()
	}
}

// traceFile is the document a traced run writes when it ends: the
// benchmark's spans and the program's own phase spans, whose trace id is
// the op id of the benchmark op that caused them.
type traceFile struct {
	Workload     string           `json:"workload"`
	Seed         uint64           `json:"seed"`
	BenchSpans   []benchSpan      `json:"bench_spans"`
	ProgramEpoch int64            `json:"program_epoch_ns"`
	ProgramSpans []obs.SpanRecord `json:"program_spans"`
	Dropped      int64            `json:"program_spans_dropped"`
}

// write saves every span to dir/<workload>-seed<seed>.json.
func (t *tracer) write(dir string, cfg Config, o *obs.Observer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	t.mu.Lock()
	doc := traceFile{
		Workload:     cfg.Workload,
		Seed:         cfg.Seed,
		BenchSpans:   t.spans,
		ProgramEpoch: t.programEpoch.Nanoseconds(),
		ProgramSpans: o.Records(),
		Dropped:      o.Dropped(),
	}
	b, err := json.Marshal(doc)
	t.mu.Unlock()
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", cfg.Workload, cfg.Seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	return nil
}

// newObserver returns the observer a traced segment installs, noting when
// it started so the trace file can put both span sets on one timeline.
func (t *tracer) newObserver() *obs.Observer {
	o := obs.New(observerCapacity)
	t.programEpoch = time.Since(t.epoch)
	return o
}

// observerCapacity holds every program span of a traced run, so none is
// dropped: the busiest run (kpd-mixed) closes a few spans per request.
const observerCapacity = 1 << 16
