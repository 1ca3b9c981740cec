package main

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime"
	"time"

	"repro/dynmon"
)

// runInfo describes one library run for the per-layer accounting.
type runInfo struct {
	config    string // initial config family
	n         int    // vertices
	rounds    int
	changed   int64 // sum of Step.Changed over the run
	kernel    string
	downshift int
	noisy     bool
	steady    []roundTime // traced runs only: see steppedRun
	result    *dynmon.Result
}

// libraryRun is the spec-bytes-to-Result-bytes path of
// `dynamosim -spec <file> -result-json`: ParseFileSpec, Spec.New,
// System.BuildInitial, the run, json.Marshal(Result).  Untraced it runs
// through System.RunSpecced exactly like the CLI; traced it opens a span
// around every call and drives the run through System.Steps so each round
// can be timed and attributed to the tier Result.Kernel reports.
func libraryRun(ctx context.Context, tr *tracer, parent *active, spec []byte, ls *layerStats) ([]byte, *runInfo, error) {
	sp := tr.begin(parent, "dynmon.parse")
	fs, err := dynmon.ParseFileSpec(spec)
	ls.addDur("dynmon.parse", sp.end(""))
	if err != nil {
		return nil, nil, err
	}
	if fs.Initial == nil {
		return nil, nil, fmt.Errorf("spec has no initial section")
	}
	sp = tr.begin(parent, "dynmon.system_build")
	sys, err := fs.System.New()
	ls.addDur("dynmon.system_build_warm", sp.end(""))
	if err != nil {
		return nil, nil, err
	}
	target := fs.Run.Target
	if target == dynmon.None {
		target = 1
	}
	sp = tr.begin(parent, "dynmon.initial_build")
	cons, err := sys.BuildInitial(fs.Initial, target)
	ls.addDur("dynmon.initial_build."+fs.Initial.Config, sp.end(fs.Initial.Config))
	if err != nil {
		return nil, nil, err
	}
	info := &runInfo{config: fs.Initial.Config, n: sys.N(), noisy: fs.Run.Noise != nil}
	sp = tr.begin(parent, "sim.steps")
	if tr == nil {
		info.result, err = sys.RunSpecced(ctx, cons.Coloring, fs.Run)
	} else {
		info.result, err = steppedRun(ctx, sys, cons.Coloring, fs.Run, info)
	}
	if err != nil {
		sp.end("error")
		return nil, nil, err
	}
	res := info.result
	info.rounds, info.kernel, info.downshift = res.Rounds, res.Kernel.String(), res.Downshift
	sp.end(fmt.Sprintf("kernel=%s rounds=%d n=%d", info.kernel, info.rounds, info.n))
	ls.addRun(info)

	var before runtime.MemStats
	if ls != nil {
		runtime.ReadMemStats(&before)
	}
	sp = tr.begin(parent, "dynmon.result_encode")
	out, err := json.Marshal(res)
	ls.addEncode(sp.end(""), len(out), &before)
	if err != nil {
		return nil, nil, err
	}
	return out, info, nil
}

// roundTime is the wall time of one round.
type roundTime struct {
	round int
	ns    int64
}

// steppedRun drains System.Steps and times the steady-state rounds, every
// round but the first and the last: the first step also carries the
// engine's per-run set-up (driver, bit planes, shard buffers) and the last
// the assembly of the Result.
func steppedRun(ctx context.Context, sys *dynmon.System, initial *dynmon.Coloring, rs dynmon.RunSpec, info *runInfo) (*dynmon.Result, error) {
	var last time.Time
	for st, err := range sys.Steps(ctx, initial, dynmon.WithRunSpec(rs)) {
		if err != nil {
			return nil, err
		}
		now := time.Now()
		info.changed += int64(st.Changed())
		if st.Done() {
			return st.Result(), nil
		}
		if !last.IsZero() {
			info.steady = append(info.steady, roundTime{st.Round(), now.Sub(last).Nanoseconds()})
		}
		last = now
	}
	return nil, fmt.Errorf("run ended without a terminal result")
}
