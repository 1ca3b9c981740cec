package main

import (
	"runtime"
	"sync"
	"time"
)

// perLayerMetrics is the traced run's vocabulary.  Each entry notes the
// end-to-end metric it should move; README.md has the full map.
var perLayerMetrics = []metricDef{
	// dynmon: spec handling and the Result path.
	{"dynmon.parse_us", "us"},                   // op_p50_ms on dynmond-mix (hits)
	{"dynmon.digest_us", "us"},                  // op_p50_ms on dynmond-mix (hits)
	{"dynmon.system_build_cold_ms", "ms"},       // setup_s
	{"dynmon.system_build_warm_us", "us"},       // setup_s; cold graph misses on dynmond-mix
	{"dynmon.initial_build.minimum_ms", "ms"},   // op_p50_ms on tori-k5
	{"dynmon.initial_build.random_ms", "ms"},    // op_p50_ms on tori-k5, tori-wide
	{"dynmon.result_encode_ms", "ms"},           // op_p50_ms on tori-wide; misses on dynmond-mix
	{"dynmon.result_bytes", "bytes"},            // the same
	{"dynmon.result_encode_alloc_mb", "MB"},     // the same; peak_rss_mb
	{"dynamo.minimum_ms", "ms"},                 // op_p50_ms on tori-k5
	{"sim.frontier.minimum.ns_per_round", "ns"}, // ops_per_s on tori-k5
	{"sim.frontier.random.ns_per_vertex_round", "ns"},
	{"sim.sharded.ns_per_vertex_round", "ns"}, // ops_per_s on tori-wide
	{"sim.bitplane.ns_per_vertex_round", "ns"},
	{"sim.sharded.speedup", "x"}, // workers=nproc against workers=1, same spec
	{"sim.bitplane.speedup", "x"},
	{"sim.stochastic.ns_per_vertex_round", "ns"},    // ops_per_s on ensemble-eps
	{"sim.bitslice.ns_per_lane_vertex_round", "ns"}, // ops_per_s on ensemble-eps
	{"sim.changed_frac", "ratio"},                   // a count ratio: repeats exactly per seed
	{"sim.rounds_total", "count"},                   // repeats exactly per seed
	{"grid.csr_build_ms", "ms"},                     // setup_s
	{"grid.partition_ms", "ms"},                     // setup_s
	{"graphs.generate_ms", "ms"},                    // cold misses on dynmond-mix
	{"color.pack_ms", "ms"},                         // op_p50_ms on tori-wide
	{"color.unpack_ms", "ms"},                       // op_p50_ms on tori-wide
	{"color.pack_lanes_ms", "ms"},                   // ops_per_s on ensemble-eps
	{"ensemble.det_point_ms", "ms"},                 // ops_per_s on ensemble-eps
	{"ensemble.noisy_point_ms", "ms"},               // ops_per_s on ensemble-eps
	{"ensemble.noisy_over_det", "x"},                // the same
	{"dynserve.cache_hit_ratio", "ratio"},           // op_p50_ms on dynmond-mix
	{"dynserve.shed_total", "count"},                // failed requests on dynmond-mix
	{"dynserve.runs_started", "count"},              // ops_per_s on dynmond-mix
	{"dynserve.serve_overhead_ms", "ms"},            // op_p50_ms, op_tail_ms on dynmond-mix
	{"dynserve.hit_p50_ms", "ms"},                   // op_p50_ms on dynmond-mix
	{"dynserve.miss_p50_ms", "ms"},                  // op_tail_ms on dynmond-mix
	{"runtime.alloc_mb", "MB"},                      // peak_rss_mb
	{"runtime.gc_cycles", "count"},                  // peak_rss_mb, op_tail_ms
	{"trace.untraced_ms", "ms"},                     // base of the overhead ratio
	{"trace.traced_ms", "ms"},
	{"trace.overhead_ratio", "x"},
	{"failed_frac", "ratio"},
	// Self time per operation of each span name (span minus child spans).
	{"self.op_ms", "ms"},
	{"self.dynmon.parse_ms", "ms"},
	{"self.dynmon.digest_ms", "ms"},
	{"self.dynmon.system_build_ms", "ms"},
	{"self.dynmon.initial_build_ms", "ms"},
	{"self.sim.steps_ms", "ms"},
	{"self.dynmon.result_encode_ms", "ms"},
	{"self.ensemble.run_ms", "ms"},
	{"self.dynserve.handler_ms", "ms"},
}

// selfSpanNames are the span names inside an operation.
var selfSpanNames = []string{"op", "dynmon.parse", "dynmon.digest", "dynmon.system_build",
	"dynmon.initial_build", "sim.steps", "dynmon.result_encode", "ensemble.run", "dynserve.handler"}

// tierAcc accumulates rounds stepped on one tier.
type tierAcc struct{ ns, rounds, vertexRounds int64 }

// layerStats accumulates what the traced pass (or the probes) measured.
// Its methods are safe on a nil receiver, which records nothing.
type layerStats struct {
	mu           sync.Mutex
	durs         map[string][]time.Duration
	vals         map[string]float64 // measured directly
	tiers        map[string]*tierAcc
	changed      int64
	vertexRounds int64
	rounds       int64
	encBytes     []int
	encAllocMB   []float64
}

func newLayerStats() *layerStats {
	return &layerStats{durs: map[string][]time.Duration{}, vals: map[string]float64{}, tiers: map[string]*tierAcc{}}
}

func (ls *layerStats) addDur(name string, d time.Duration) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	ls.durs[name] = append(ls.durs[name], d)
	ls.mu.Unlock()
}

func (ls *layerStats) set(name string, v float64) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	ls.vals[name] = v
	ls.mu.Unlock()
}

// addEncode records one Result encode: time, size and allocation.
func (ls *layerStats) addEncode(d time.Duration, n int, before *runtime.MemStats) {
	if ls == nil {
		return
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	ls.addDur("dynmon.result_encode", d)
	ls.mu.Lock()
	ls.encBytes = append(ls.encBytes, n)
	ls.encAllocMB = append(ls.encAllocMB, float64(after.TotalAlloc-before.TotalAlloc)/(1<<20))
	ls.mu.Unlock()
}

// addRun attributes a traced run's rounds to the tiers that stepped them:
// an auto run that started on the bitplane tier and downshifted stepped
// rounds [1, Downshift) there and the rest on the frontier.
func (ls *layerStats) addRun(info *runInfo) {
	if ls == nil {
		return
	}
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.changed += info.changed
	ls.rounds += int64(info.rounds)
	ls.vertexRounds += int64(info.rounds) * int64(info.n)
	for _, rt := range info.steady {
		ls.tier(tierOf(info, rt.round)).add(rt.ns, info.n)
	}
}

// tierOf names the tier that stepped round r of a run.
func tierOf(info *runInfo, r int) string {
	kernel := info.kernel
	if kernel == "bitplane" && info.downshift > 0 && r >= info.downshift {
		kernel = "frontier"
	}
	switch {
	case info.noisy:
		return "stochastic"
	case kernel == "frontier" && info.config == "minimum":
		return "frontier.minimum"
	case kernel == "frontier":
		return "frontier.random"
	}
	return kernel
}

func (ls *layerStats) tier(name string) *tierAcc {
	t := ls.tiers[name]
	if t == nil {
		t = &tierAcc{}
		ls.tiers[name] = t
	}
	return t
}

func (t *tierAcc) add(ns int64, n int) {
	t.ns += ns
	t.rounds++
	t.vertexRounds += int64(n)
}

// meanMs is the mean of a recorded duration list in ms.
func (ls *layerStats) meanMs(name string) (float64, bool) {
	ds := ls.durs[name]
	if len(ds) == 0 {
		return 0, false
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return ms(sum) / float64(len(ds)), true
}

// compute returns every per-layer metric this accumulator has data for.
func (ls *layerStats) compute() map[string]float64 {
	out := map[string]float64{}
	for name, v := range ls.vals {
		out[name] = v
	}
	durMetric := func(metric, name string, scale float64) {
		if v, ok := ls.meanMs(name); ok {
			out[metric] = v * scale
		}
	}
	durMetric("dynmon.parse_us", "dynmon.parse", 1e3)
	durMetric("dynmon.digest_us", "dynmon.digest", 1e3)
	durMetric("dynmon.system_build_cold_ms", "dynmon.system_build_cold", 1)
	durMetric("dynmon.system_build_warm_us", "dynmon.system_build_warm", 1e3)
	durMetric("dynmon.initial_build.minimum_ms", "dynmon.initial_build.minimum", 1)
	durMetric("dynmon.initial_build.random_ms", "dynmon.initial_build.random", 1)
	durMetric("dynmon.result_encode_ms", "dynmon.result_encode", 1)
	durMetric("dynamo.minimum_ms", "dynamo.minimum", 1)
	durMetric("grid.csr_build_ms", "grid.csr_build", 1)
	durMetric("grid.partition_ms", "grid.partition", 1)
	durMetric("graphs.generate_ms", "graphs.generate", 1)
	durMetric("color.pack_ms", "color.pack", 1)
	durMetric("color.unpack_ms", "color.unpack", 1)
	durMetric("color.pack_lanes_ms", "color.pack_lanes", 1)
	durMetric("ensemble.det_point_ms", "ensemble.det_point", 1)
	durMetric("ensemble.noisy_point_ms", "ensemble.noisy_point", 1)
	if len(ls.encBytes) > 0 {
		var sb, sa float64
		for i, n := range ls.encBytes {
			sb += float64(n)
			sa += ls.encAllocMB[i]
		}
		out["dynmon.result_bytes"] = sb / float64(len(ls.encBytes))
		out["dynmon.result_encode_alloc_mb"] = sa / float64(len(ls.encBytes))
	}
	for name, t := range ls.tiers {
		if t.rounds == 0 {
			continue
		}
		if name == "frontier.minimum" {
			out["sim.frontier.minimum.ns_per_round"] = float64(t.ns) / float64(t.rounds)
			continue
		}
		out["sim."+name+".ns_per_vertex_round"] = float64(t.ns) / float64(t.vertexRounds)
	}
	if ls.vertexRounds > 0 {
		out["sim.changed_frac"] = float64(ls.changed) / float64(ls.vertexRounds)
		out["sim.rounds_total"] = float64(ls.rounds)
	}
	return out
}

// layerMetrics merges the traced pass's measurements over the probes':
// a layer the workload exercised is reported as the workload used it,
// any other layer from its probe.
func layerMetrics(probes, traced *layerStats, self map[string]float64) map[string]float64 {
	out := probes.compute()
	for name, v := range traced.compute() {
		out[name] = v
	}
	if det, ok := out["ensemble.det_point_ms"]; ok && det > 0 {
		out["ensemble.noisy_over_det"] = out["ensemble.noisy_point_ms"] / det
	}
	for name, v := range self {
		out[name] = v
	}
	return out
}

// selfMsPerOp sums the self time of every span inside an operation by span
// name and divides by the number of operations.
func selfMsPerOp(spans []Span) map[string]float64 {
	roots := map[uint64]bool{}
	for _, s := range spans {
		if s.Parent == 0 && s.Name == "op" {
			roots[s.ID] = true
		}
	}
	self := selfTimes(spans)
	sums := map[string]time.Duration{}
	for _, s := range spans {
		if roots[s.Op] {
			sums[s.Name] += self[s.ID]
		}
	}
	out := map[string]float64{}
	for _, name := range selfSpanNames {
		v := 0.0
		if len(roots) > 0 {
			v = ms(sums[name]) / float64(len(roots))
		}
		out["self."+name+"_ms"] = v
	}
	return out
}

// selfMsTotal is the self time of every span name, in ms, over the whole
// traced run (operations and probes).
func selfMsTotal(spans []Span) map[string]float64 {
	self := selfTimes(spans)
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += ms(self[s.ID])
	}
	return out
}
