package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the smoke test reads.
type benchmarkJSON struct {
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

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkJSON
	if err := json.Unmarshal(data, &bm); err != nil {
		t.Fatal(err)
	}
	return bm
}

// runTiny runs one workload at smoke-test sizes and decodes its last line.
func runTiny(t *testing.T, workload string, trace int, extra ...string) result {
	t.Helper()
	args := append([]string{"--workload", workload, "--seed", "3", "--seconds", "0.2",
		"--trace", strconv.Itoa(trace), "--tiny", "--out", t.TempDir()}, extra...)
	var stdout, stderr bytes.Buffer
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s --trace %d exited %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	return res
}

// TestEveryMetricPrinted runs every workload untraced and traced and checks
// that exactly the metrics BENCHMARK.json names are printed, each with its
// unit, and that every output passed its check.
func TestEveryMetricPrinted(t *testing.T) {
	bm := readBenchmarkJSON(t)
	if len(bm.Workloads) != len(workloadNames()) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bm.Workloads), len(workloadNames()))
	}
	for _, w := range bm.Workloads {
		for trace, want := range [][]struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}{bm.EndToEnd, bm.PerLayer} {
			res := runTiny(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s --trace %d: correct=%v failed=%d attempted=%d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s --trace %d: %d metrics printed, BENCHMARK.json declares %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s --trace %d: metric %s missing", w.Name, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit {
					t.Errorf("%s --trace %d: metric %s has unit %q, want %q", w.Name, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestCorruptedResultCounted corrupts one checked output per workload and
// expects it in the failed count.
func TestCorruptedResultCounted(t *testing.T) {
	for _, w := range workloadNames() {
		res := runTiny(t, w, 0, "--corrupt")
		if res.Failed < 1 || res.Correct {
			t.Errorf("%s: a corrupted output was not counted: failed=%d of %d, correct=%v", w, res.Failed, res.Attempted, res.Correct)
		}
	}
}
