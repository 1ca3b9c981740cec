package main

import (
	"encoding/json"
	"fmt"
	"slices"

	"repro/dynmon"
	"repro/internal/rng"
)

// The three tori of the paper.
var paperTori = []string{"toroidal-mesh", "torus-cordalis", "torus-serpentinus"}

// minimumSpec is the paper's tight construction (Theorems 2, 4 and 6) on a
// k-colored torus, run to monochromatic takeover of color 1.
func minimumSpec(topo string, side, k int) []byte {
	return fmt.Appendf(nil, `{"system":{"substrate":{"topology":{"name":%q,"rows":%d,"cols":%d}},"colors":%d,"rule":"smp"},"initial":{"config":"minimum"},"run":{"target":1,"stop_when_monochromatic":true}}`,
		topo, side, side, k)
}

// randomSpec is a uniform random coloring run for a fixed round budget
// (random colorings need not converge within the default budget).  It does
// not ask for cycle detection: about a third of random colorings fall into
// a period-2 cycle within 25-35 rounds, which would make the cost of a run
// depend on its seed more than on the layers it exercises.  Workers > 0
// asks for a parallel run; a non-empty kernel pins the engine tier.
func randomSpec(topo string, side, k int, seed uint64, rounds int, workers int, kernel string) []byte {
	par := ""
	if workers > 0 {
		par = fmt.Sprintf(`,"parallel":true,"workers":%d`, workers)
	}
	if kernel != "" {
		par += fmt.Sprintf(`,"kernel":%q`, kernel)
	}
	return fmt.Appendf(nil, `{"system":{"substrate":{"topology":{"name":%q,"rows":%d,"cols":%d}},"colors":%d,"rule":"smp"},"initial":{"config":"random","seed":%d},"run":{"max_rounds":%d%s}}`,
		topo, side, side, k, seed, rounds, par)
}

// setupToriK5: k = 5 SMP on all three tori, half minimum dynamos (a sparse
// frontier wave), half random colorings (a dense frontier), one run at a
// time.  Each size runs on all three tori, so runs come in clusters of
// three classes of about the same cost; the sizes put the median of a
// cycle in the middle of the random 224² cluster.
func setupToriK5(b *bench) (wlState, error) {
	sc, seed := b.sc, b.opt.seed
	type class struct {
		topo string
		side int
		min  bool
	}
	var classes []class
	for _, topo := range paperTori {
		for _, side := range sc.k5MinSides {
			classes = append(classes, class{topo, side, true})
		}
		for _, side := range sc.k5RandSides {
			classes = append(classes, class{topo, side, false})
		}
	}
	w := &seqWorkload{minOps: sc.k5MinOps}
	w.cycle = func(c int) []opSpec {
		ops := make([]opSpec, len(classes))
		for i, cl := range classes {
			if cl.min {
				ops[i] = opSpec{bytes: minimumSpec(cl.topo, cl.side, 5), class: "minimum"}
				continue
			}
			h := rng.Hash(seed, uint64(c), uint64(i))
			ops[i] = opSpec{
				bytes:   randomSpec(cl.topo, cl.side, 5, h>>1, sc.k5Rounds, 0, ""),
				class:   "random",
				sampled: h%uint64(sc.k5SampleEvery) == 0,
			}
		}
		return ops
	}
	return finishToriSetup(b, w)
}

// setupToriWide: large tori stepped with all cores for a fixed round
// budget, k = 3 (bitplane tier) and k = 5 (sharded tier).  The budgets make
// stepping the larger part of every run: a bitplane round costs about 1/80
// of the random init and Result encode of the same mesh, a sharded k = 5
// round about 1/3.  The full-sweep oracle steps some 40 times slower than
// the bitplane tier, so the k = 3 runs are sampled for it more rarely.
func setupToriWide(b *bench) (wlState, error) {
	sc, seed := b.sc, b.opt.seed
	w := &seqWorkload{minOps: sc.wideMinOps}
	workers := b.nproc()
	w.cycle = func(c int) []opSpec {
		var ops []opSpec
		add := func(k int, sides []int, rounds, sampleEvery int) {
			for _, side := range sides {
				h := rng.Hash(seed, uint64(c), uint64(len(ops)))
				ops = append(ops, opSpec{
					bytes:   randomSpec("toroidal-mesh", side, k, h>>1, rounds, workers, ""),
					class:   "random",
					sampled: h%uint64(sampleEvery) == 0,
				})
			}
		}
		add(3, sc.wide3Sides, sc.wide3Rounds, sc.wide3SampleEvery)
		add(5, sc.wide5Sides, sc.wide5Rounds, sc.wide5SampleEvery)
		return ops
	}
	return finishToriSetup(b, w)
}

// finishToriSetup wires the library path into w and performs the set-up:
// the first Spec.New of every distinct system, then a one-round run of each
// so lazily built engine state (shift plans, buffers) exists before the
// window opens.
func finishToriSetup(b *bench, w *seqWorkload) (wlState, error) {
	w.exec = func(b *bench, tr *tracer, root *active, ls *layerStats, op opSpec) ([]byte, int, error) {
		out, _, err := libraryRun(b.ctx, tr, root, op.bytes, ls)
		return out, 1, err
	}
	w.check = checkToriResult
	w.deep = oracleCheck
	seen := map[string]bool{}
	for _, op := range w.cycle(0) {
		fs, err := dynmon.ParseFileSpec(op.bytes)
		if err != nil {
			return nil, err
		}
		key, err := json.Marshal(fs.System)
		if err != nil {
			return nil, err
		}
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		sys, err := fs.System.New()
		if err != nil {
			return nil, err
		}
		warm := fs.Run
		warm.MaxRounds = 1
		if _, err := sys.RunSpecced(b.ctx, sys.RandomColoring(1), warm); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// resultView is the part of a Result's bytes the checks read.
type resultView struct {
	Rounds          int   `json:"rounds"`
	Monochromatic   bool  `json:"monochromatic"`
	FinalColor      int   `json:"final_color"`
	MonotoneTarget  bool  `json:"monotone_target"`
	ChangesPerRound []int `json:"changes_per_round"`
	Final           struct {
		Rows  int   `json:"rows"`
		Cols  int   `json:"cols"`
		Cells []int `json:"cells"`
	} `json:"final"`
}

// checkToriResult: a minimum dynamo must end monochromatic in its target
// color with a monotone target set (Theorems 2, 4 and 6), and the final
// cells must agree.  Other runs get the oracle check when sampled.
func checkToriResult(b *bench, op opSpec, out []byte) error {
	if op.class != "minimum" {
		return nil
	}
	var r resultView
	if err := json.Unmarshal(out, &r); err != nil {
		return err
	}
	if !r.Monochromatic || r.FinalColor != 1 || !r.MonotoneTarget {
		return fmt.Errorf("minimum dynamo did not take over monotonically: monochromatic=%v final_color=%d monotone=%v",
			r.Monochromatic, r.FinalColor, r.MonotoneTarget)
	}
	for v, c := range r.Final.Cells {
		if c != 1 {
			return fmt.Errorf("minimum dynamo: final cell %d has color %d", v, c)
		}
	}
	return nil
}

// oracleCheck reruns the spec on the full-sweep oracle stepper and compares
// the final configuration and the per-round change counts.
func oracleCheck(b *bench, op opSpec, out []byte) error {
	fs, err := dynmon.ParseFileSpec(op.bytes)
	if err != nil {
		return err
	}
	sys, cons, _, err := fs.Build()
	if err != nil {
		return err
	}
	rs := fs.Run
	rs.FullSweep, rs.Parallel, rs.Workers, rs.Kernel = true, false, 0, ""
	want, err := sys.RunSpecced(b.ctx, cons.Coloring, rs)
	if err != nil {
		return err
	}
	var got resultView
	if err := json.Unmarshal(out, &got); err != nil {
		return err
	}
	if !slices.Equal(got.ChangesPerRound, want.ChangesPerRound) {
		return fmt.Errorf("per-round change counts differ from the full-sweep oracle")
	}
	cells := want.Final.Cells()
	if len(got.Final.Cells) != len(cells) {
		return fmt.Errorf("final configuration has %d cells, oracle %d", len(got.Final.Cells), len(cells))
	}
	for v, c := range cells {
		if got.Final.Cells[v] != int(c) {
			return fmt.Errorf("final cell %d is %d, oracle %d", v, got.Final.Cells[v], c)
		}
	}
	return nil
}
