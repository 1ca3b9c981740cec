package main

import (
	"runtime"
	"sort"
	"time"
)

// workload is one named input set and the code that feeds it in.
type workload struct {
	// tailQ is the tail percentile op_tail_ms reports, one with at least
	// ten samples beyond it at the workload's sample count (README.md says
	// why each).
	tailQ float64
	setup func(b *bench) (wlState, error)
}

var workloads = map[string]*workload{
	"tori-k5":      {tailQ: 0.85, setup: setupToriK5},
	"tori-wide":    {tailQ: 0.75, setup: setupToriWide},
	"ensemble-eps": {tailQ: 0.75, setup: setupEnsemble},
	"dynmond-mix":  {tailQ: 0.95, setup: setupDynmond},
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// wlState is a set-up workload.
type wlState interface {
	// window runs the measured window of an untraced run.
	window(b *bench, d time.Duration) windowResult
	// pass runs the traced run's fixed operation list, traced when tr is
	// non-nil.  It returns the summed operation time and a function that
	// checks the outputs, so that the caller can read the memory counters
	// before the checks allocate.
	pass(b *bench, tr *tracer, ls *layerStats) (time.Duration, func())
	close()
}

// windowResult is what the end-to-end metrics are computed from.
type windowResult struct {
	latMs []float64 // per-operation latency
	// rates is the throughput (runs, replicas or requests per second) and
	// peaks the highest resident set (MB) of each cycle or time slice of
	// the window.  The metrics are their medians: a burst of load from
	// outside the benchmark, or one late collection, moves a median less
	// than a mean or a maximum.
	rates, peaks []float64
}

// opSpec is one operation of a sequential workload: spec bytes in, output
// bytes out.
type opSpec struct {
	bytes   []byte
	class   string // "minimum", "random" or "ensemble"
	sampled bool   // gets the deep (oracle) check after the window
}

// seqWorkload drives a workload whose operations run one at a time, as a
// CLI user would: tori-k5, tori-wide and ensemble-eps.
type seqWorkload struct {
	// cycle returns the c-th cycle of operations.  Every cycle runs the same
	// classes of operation in the same order; only seeds differ, so a window
	// of whole cycles has the same composition on every seed.  A cycle has
	// an odd number of classes, so the median (and the tail percentile)
	// falls inside one class of a window of whole cycles instead of between
	// two.
	cycle func(c int) []opSpec
	// exec performs one operation and returns its output bytes and the
	// units it completed.
	exec func(b *bench, tr *tracer, root *active, ls *layerStats, op opSpec) ([]byte, int, error)
	// check is the cheap check every output gets; deep is the expensive one
	// for sampled operations, run after the window.
	check func(b *bench, op opSpec, out []byte) error
	deep  func(b *bench, op opSpec, out []byte) error
	// minOps is the sample count the tail percentile needs.
	minOps int
}

type pendingCheck struct {
	op  opSpec
	out []byte
}

// do runs one operation; it reports the output, latency and units of an
// operation that did not fail.
//
// Each operation starts on a collected heap, as a fresh CLI process would:
// otherwise when the collector runs, and how high the heap peaks, depends
// on the garbage earlier operations left behind.
func (w *seqWorkload) do(b *bench, tr *tracer, ls *layerStats, op opSpec) ([]byte, time.Duration, int, bool) {
	b.attempted.Add(1)
	runtime.GC()
	root := tr.begin(nil, "op")
	t0 := time.Now()
	out, units, err := w.exec(b, tr, root, ls, op)
	lat := time.Since(t0)
	root.end(op.class)
	if err != nil {
		b.fail("run", err)
		return nil, 0, 0, false
	}
	return out, lat, units, true
}

// checkOutput runs the cheap check of one output and queues the deep one
// of a sampled operation; it reports whether the output passed.
func (w *seqWorkload) checkOutput(b *bench, op opSpec, out []byte, pending *[]pendingCheck) bool {
	if op.class == "minimum" || op.sampled {
		out = b.maybeCorrupt(out)
	}
	if err := w.check(b, op, out); err != nil {
		b.fail("check", err)
		return false
	}
	if op.sampled {
		*pending = append(*pending, pendingCheck{op, out})
	}
	return true
}

// flush runs the deferred deep checks.
func (w *seqWorkload) flush(b *bench, pending []pendingCheck) {
	for _, p := range pending {
		if err := w.deep(b, p.op, p.out); err != nil {
			b.fail("oracle check", err)
		}
	}
}

// window runs whole cycles until the window has passed and the tail
// percentile has its samples.
func (w *seqWorkload) window(b *bench, d time.Duration) windowResult {
	var (
		res     windowResult
		pending []pendingCheck
	)
	rss := startRSSSampler()
	defer rss.close()
	start := time.Now()
	for c := 0; c == 0 || time.Since(start) < d || len(res.latMs) < w.minOps; c++ {
		if time.Since(start) > 4*d {
			break
		}
		var (
			units int
			busy  time.Duration
		)
		for _, op := range w.cycle(c) {
			out, lat, n, ok := w.do(b, nil, nil, op)
			if ok && w.checkOutput(b, op, out, &pending) {
				res.latMs = append(res.latMs, ms(lat))
				units += n
				busy += lat
			}
		}
		if busy > 0 {
			res.rates = append(res.rates, float64(units)/busy.Seconds())
		}
		res.peaks = append(res.peaks, rss.take())
	}
	w.flush(b, pending)
	return res
}

// pass runs cycle 0, the traced run's fixed list.
func (w *seqWorkload) pass(b *bench, tr *tracer, ls *layerStats) (time.Duration, func()) {
	var (
		total time.Duration
		done  []pendingCheck // every output, checked after the pass
	)
	for _, op := range w.cycle(0) {
		if out, lat, _, ok := w.do(b, tr, ls, op); ok {
			total += lat
			done = append(done, pendingCheck{op, out})
		}
	}
	return total, func() {
		var pending []pendingCheck
		for _, d := range done {
			w.checkOutput(b, d.op, d.out, &pending)
		}
		w.flush(b, pending)
	}
}

func (w *seqWorkload) close() {}
