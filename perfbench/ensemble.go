package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/dynmon"
	"repro/internal/rng"
)

// ensembleSpec is a Monte-Carlo eps sweep on a 2-color SMP mesh: bernoulli
// initial colorings, replicas per point, eps = 0 included (the
// deterministic point rides the bit-sliced batch tier, the noisy points run
// one replica at a time on the stochastic scalar path).
func ensembleSpec(side, replicas, rounds int, eps []float64, density float64, seed uint64) []byte {
	vals := make([]string, len(eps))
	for i, e := range eps {
		vals[i] = fmt.Sprint(e)
	}
	return fmt.Appendf(nil, `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":%d,"cols":%d}},"colors":2,"rule":"smp"},"initial":{"config":"bernoulli","density":%g},"run":{"target":1,"max_rounds":%d,"stop_when_monochromatic":true,"detect_cycles":true},"replicas":%d,"seed":%d,"takeover_fraction":0.9,"sweep":{"axis":"eps","values":[%s]}}`,
		side, side, density, rounds, replicas, seed, strings.Join(vals, ","))
}

// setupEnsemble: one ensemble per cycle, all on one mesh.  Each ensemble
// takes about half a second, so a window holds some 40; with a single class
// the median and the tail percentile are order statistics of all of them
// rather than of the few of one class among several.
func setupEnsemble(b *bench) (wlState, error) {
	sc, seed := b.sc, b.opt.seed
	workers := b.nproc()
	w := &seqWorkload{minOps: sc.ensMinOps}
	w.cycle = func(c int) []opSpec {
		h := rng.Hash(seed, uint64(c), 0, 0xe5)
		return []opSpec{{
			bytes:   ensembleSpec(sc.ensSide, sc.ensReplicas, sc.ensRounds, sc.ensEps, 0.6, h>>1),
			class:   "ensemble",
			sampled: h%uint64(sc.ensSampleEvery) == 0,
		}}
	}
	w.exec = func(b *bench, tr *tracer, root *active, ls *layerStats, op opSpec) ([]byte, int, error) {
		out, es, err := ensembleRun(b, tr, root, ls, op.bytes, workers)
		if err != nil {
			return nil, 0, err
		}
		return out, es.Replicas * len(es.Sweep.Values), nil
	}
	w.check = checkReport
	w.deep = func(b *bench, op opSpec, out []byte) error {
		want, _, err := ensembleRun(b, nil, nil, nil, op.bytes, 1)
		if err != nil {
			return err
		}
		if !bytes.Equal(out, want) {
			return fmt.Errorf("ensemble report differs from the workers=1 report of the same spec")
		}
		return nil
	}
	// Set-up: the system, and one tiny ensemble so the batch and stochastic
	// paths have run once.
	if _, _, err := ensembleRun(b, nil, nil, nil, ensembleSpec(sc.ensSide, 2, 1, []float64{0, 0.01}, 0.5, seed), workers); err != nil {
		return nil, err
	}
	return w, nil
}

// ensembleRun is spec bytes in, report bytes out: ParseEnsembleSpec,
// NewEnsemble (validation and digest), Ensemble.Run, EnsembleReport.JSON.
func ensembleRun(b *bench, tr *tracer, root *active, ls *layerStats, spec []byte, workers int) ([]byte, *dynmon.EnsembleSpec, error) {
	sp := tr.begin(root, "dynmon.parse")
	es, err := dynmon.ParseEnsembleSpec(spec)
	ls.addDur("dynmon.parse", sp.end("ensemble"))
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(root, "dynmon.digest")
	e, err := dynmon.NewEnsemble(es, workers)
	ls.addDur("dynmon.digest", sp.end("ensemble"))
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(root, "ensemble.run")
	rep, err := e.Run(b.ctx)
	sp.end("")
	if err != nil {
		return nil, nil, err
	}
	sp = tr.begin(root, "dynmon.result_encode")
	out, err := rep.JSON()
	ls.addDur("dynmon.result_encode", sp.end("report"))
	return out, es, err
}

// checkReport checks the report's shape: one point per sweep value with
// every replica accounted for and a probability inside its interval.
func checkReport(b *bench, op opSpec, out []byte) error {
	es, err := dynmon.ParseEnsembleSpec(op.bytes)
	if err != nil {
		return err
	}
	var rep dynmon.EnsembleReport
	if err := json.Unmarshal(out, &rep); err != nil {
		return err
	}
	if len(rep.Points) != len(es.Sweep.Values) {
		return fmt.Errorf("report has %d points, sweep %d", len(rep.Points), len(es.Sweep.Values))
	}
	for i, pt := range rep.Points {
		if pt.Value != es.Sweep.Values[i] || pt.Replicas != es.Replicas ||
			pt.Takeovers+pt.FixedPoints+pt.Cycles+pt.Exhausted != es.Replicas ||
			pt.TakeoverProb < pt.CILow-1e-9 || pt.TakeoverProb > pt.CIHigh+1e-9 {
			return fmt.Errorf("report point %d is inconsistent: %+v", i, pt)
		}
	}
	return nil
}
