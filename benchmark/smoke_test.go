package main

import (
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test checks
// against: every metric it names, with its unit.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMain lets the test binary serve as a set-up child, as the benchmark
// binary does.
func TestMain(m *testing.M) {
	if spec, ok := os.LookupEnv(setupChildEnv); ok {
		os.Exit(setupChild(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload for a few ops on a fixed seed, untraced
// and traced, and checks that each run emits every metric BENCHMARK.json
// names with its unit, answers every op correctly and drops no span.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) == 0 || len(spec.EndToEnd) == 0 || len(spec.PerLayer) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads or metrics")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			cfg := Config{
				Workload: w.Name,
				Seed:     3,
				Duration: 100 * time.Millisecond,
				Trace:    traced,
				RepoRoot: "..",
				TraceDir: t.TempDir(),
			}
			res, err := Run(cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t failed=%d attempted=%d", w.Name, traced, res.Correct, res.Failed, res.Attempted)
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s = %+v, want unit %s", w.Name, traced, m.Name, got, m.Unit)
				}
			}
			if traced {
				if v := res.Metrics["error_ratio"].Value; v != 0 {
					t.Errorf("%s: error_ratio = %g, want 0", w.Name, v)
				}
				if v := res.Metrics["obs.dropped_spans"].Value; v != 0 {
					t.Errorf("%s: obs.dropped_spans = %g, want 0", w.Name, v)
				}
			}
		}
	}
}
