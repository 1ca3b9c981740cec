// Command perfbench is the repository's end-to-end benchmark.  It feeds
// generated spec bytes through the public entry points of the dynmon
// library, the Monte-Carlo ensemble harness and the dynserve HTTP service,
// checks every output, and prints its metrics by name and unit:
//
//	perfbench --workload tori-k5 --seed 1 --seconds 20 --trace 0
//
// Workloads: tori-k5, tori-wide, ensemble-eps and dynmond-mix (see
// README.md for why each was chosen and the layer each stresses).  With
// --trace 0 the run is untraced and reports the end-to-end metrics; with
// --trace 1 it runs a fixed list of operations twice, untraced and then
// with spans around every call into a layer, adds a probe of every layer
// the workload does not reach, writes the spans to a file and reports the
// per-layer metrics and the tracing overhead.  The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	tiny      bool // smoke-test sizes
	setupOnly bool // child mode: time one cold set-up and exit
	corrupt   bool // corrupt the first checked output (smoke test of the checks)
	outDir    string
}

// metricDef names a metric and its unit; the tables below are the
// benchmark's whole vocabulary and must match BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is the state of one benchmark process.
type bench struct {
	opt       options
	wl        *workload
	sc        scale
	ctx       context.Context
	attempted atomic.Int64
	failed    atomic.Int64
	corrupted atomic.Bool
	log       io.Writer
}

// fail counts a failed operation and says why on the log.
func (b *bench) fail(what string, err error) {
	b.failed.Add(1)
	if n := b.failed.Load(); n <= 5 {
		fmt.Fprintf(b.log, "FAIL %s: %v\n", what, err)
	}
}

// maybeCorrupt implements --corrupt: the first output that reaches a check
// gets its last digit changed, which every check must notice.
func (b *bench) maybeCorrupt(out []byte) []byte {
	if !b.opt.corrupt || !b.corrupted.CompareAndSwap(false, true) {
		return out
	}
	out = append([]byte(nil), out...)
	for i := len(out) - 1; i >= 0; i-- {
		if c := out[i]; c >= '0' && c <= '9' {
			if c == '1' {
				out[i] = '2'
			} else {
				out[i] = '1'
			}
			break
		}
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var opt options
	var trace int
	fl.StringVar(&opt.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fl.Uint64Var(&opt.seed, "seed", 1, "input seed: the same seed gives the same spec bytes")
	fl.Float64Var(&opt.seconds, "seconds", 15, "length of the measured window")
	fl.IntVar(&trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	fl.BoolVar(&opt.tiny, "tiny", false, "smoke-test sizes")
	fl.BoolVar(&opt.setupOnly, "setup-only", false, "time one cold set-up and exit (used for setup_s samples)")
	fl.BoolVar(&opt.corrupt, "corrupt", false, "corrupt the first checked output")
	fl.StringVar(&opt.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the span file")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	opt.trace = trace == 1
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	}
	res, err := runBenchmark(opt, stdout, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res == nil {
		return 0
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(stdout, "%-44s %14.6g %s\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runBenchmark runs one workload and returns its result; it returns a nil
// result in --setup-only mode, after printing the set-up time.
func runBenchmark(opt options, stdout, stderr io.Writer) (*result, error) {
	wl, ok := workloads[opt.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", opt.workload, strings.Join(workloadNames(), ", "))
	}
	if opt.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive")
	}
	b := &bench{opt: opt, wl: wl, sc: fullScale, ctx: context.Background(), log: stderr}
	if opt.tiny {
		b.sc = tinyScale
	}
	if opt.setupOnly {
		d, st, err := b.timedSetup()
		if err != nil {
			return nil, err
		}
		st.close()
		fmt.Fprintf(stdout, "{\"setup_s\": %.9f}\n", d.Seconds())
		return nil, nil
	}

	stampLine, _ := json.Marshal(hostStamp())
	fmt.Fprintf(stdout, "stamp %s\n", stampLine)

	metrics := map[string]metric{}
	if opt.trace {
		if err := b.tracedRun(metrics, stdout); err != nil {
			return nil, err
		}
	} else if err := b.untracedRun(metrics, stdout); err != nil {
		return nil, err
	}
	res := &result{
		Attempted: b.attempted.Load(),
		Failed:    b.failed.Load(),
		Metrics:   metrics,
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	return res, nil
}

// timedSetup runs the workload's set-up once and times it.
func (b *bench) timedSetup() (time.Duration, wlState, error) {
	t0 := time.Now()
	st, err := b.wl.setup(b)
	return time.Since(t0), st, err
}

// The cold set-ups setup_s is the median of: at least minSetups, and more
// while they have taken less than setupBudget, up to maxSetups.  A set-up
// of a few milliseconds is swayed by a single slow page fault or context
// switch, so it gets more samples than one that takes a second.
const (
	minSetups   = 5
	maxSetups   = 31
	setupBudget = 2 * time.Second
)

// childSetupSeconds times all cold set-ups for setup_s but the one this
// process performs; at smoke-test sizes it times none, since the process
// may be a test binary that cannot run as a child.  The caches a set-up
// fills are process-wide, so each sample runs in a fresh child process of
// this binary.
func (b *bench) childSetupSeconds() ([]float64, error) {
	if b.opt.tiny {
		return nil, nil
	}
	var secs []float64
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for i := 1; i < minSetups || (i < maxSetups && time.Since(start) < setupBudget); i++ {
		args := []string{"--setup-only", "--workload", b.opt.workload, "--seed", fmt.Sprint(b.opt.seed), "--seconds", "1"}
		if b.opt.tiny {
			args = append(args, "--tiny")
		}
		cmd := exec.Command(exe, args...)
		cmd.Stderr = b.log
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		var v struct {
			Setup float64 `json:"setup_s"`
		}
		lines := strings.Split(strings.TrimSpace(string(out)), "\n")
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
			return nil, fmt.Errorf("set-up sample %d: %w", i, err)
		}
		secs = append(secs, v.Setup)
	}
	return secs, nil
}

// untracedRun measures the end-to-end metrics.
func (b *bench) untracedRun(metrics map[string]metric, stdout io.Writer) error {
	// Children first, so this process's peak memory is its own.
	samples, err := b.childSetupSeconds()
	if err != nil {
		return err
	}
	own, st, err := b.timedSetup()
	if err != nil {
		return err
	}
	defer st.close()
	samples = append(samples, own.Seconds())

	win := st.window(b, time.Duration(b.opt.seconds*float64(time.Second)))
	if len(win.latMs) == 0 {
		return fmt.Errorf("no operation completed")
	}
	tailQ := b.wl.tailQ
	beyond := int(float64(len(win.latMs)) * (1 - tailQ))
	fmt.Fprintf(stdout, "samples ops=%d rates=%d tail=p%g beyond_tail=%d setup_samples=%v\n",
		len(win.latMs), len(win.rates), tailQ*100, beyond, samples)
	vals := map[string]float64{
		"setup_s":     median(samples),
		"ops_per_s":   median(win.rates),
		"op_p50_ms":   median(win.latMs),
		"op_tail_ms":  quantile(win.latMs, tailQ),
		"peak_rss_mb": median(win.peaks),
	}
	return fill(metrics, endToEndMetrics, vals)
}

// fill copies the values of defs into metrics with their units.
func fill(metrics map[string]metric, defs []metricDef, vals map[string]float64) error {
	for _, def := range defs {
		v, ok := vals[def.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", def.name)
		}
		metrics[def.name] = metric{v, def.unit}
	}
	return nil
}

// tracedRun measures the per-layer metrics: the fixed operation list run
// untraced and then traced, the layer probes, the span file.
func (b *bench) tracedRun(metrics map[string]metric, stdout io.Writer) error {
	st, err := b.wl.setup(b)
	if err != nil {
		return err
	}
	defer st.close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	base, check := st.pass(b, nil, nil)
	runtime.ReadMemStats(&m1)
	check()

	tr := newTracer()
	ls := newLayerStats()
	traced, check := st.pass(b, tr, ls)
	check()

	probes := newLayerStats()
	if err := runProbes(b, tr, probes); err != nil {
		return err
	}
	spans := tr.Spans()
	self := selfMsPerOp(spans)
	layer := layerMetrics(probes, ls, self)
	layer["runtime.alloc_mb"] = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	// Collections the operations triggered, not the one forced before each.
	layer["runtime.gc_cycles"] = float64((m1.NumGC - m1.NumForcedGC) - (m0.NumGC - m0.NumForcedGC))
	layer["trace.untraced_ms"] = ms(base)
	layer["trace.traced_ms"] = ms(traced)
	layer["trace.overhead_ratio"] = float64(traced) / float64(base)
	if a := b.attempted.Load(); a > 0 {
		layer["failed_frac"] = float64(b.failed.Load()) / float64(a)
	} else {
		layer["failed_frac"] = 0
	}
	if err := fill(metrics, perLayerMetrics, layer); err != nil {
		return err
	}

	if err := os.MkdirAll(b.opt.outDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(b.opt.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.opt.workload, b.opt.seed))
	err = writeSpanFile(path, &spanFile{
		Stamp:    hostStamp(),
		Workload: b.opt.workload,
		Seed:     b.opt.seed,
		SelfMs:   selfMsTotal(spans),
		Overhead: map[string]float64{"ratio": float64(traced) / float64(base), "untraced_ms": ms(base), "traced_ms": ms(traced)},
		Spans:    spans,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "spans %d written to %s; tracing overhead %.4f (traced %.1f ms / untraced %.1f ms)\n",
		len(spans), path, float64(traced)/float64(base), ms(traced), ms(base))
	return nil
}
