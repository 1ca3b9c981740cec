package sim

import (
	"testing"
	"testing/quick"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

func randomColoring(seed uint64, m, n, k int) *color.Coloring {
	src := rng.New(seed)
	p := color.MustPalette(k)
	return color.RandomColoring(grid.MustDims(m, n), p, func() int { return src.Intn(p.K) })
}

// Full runs must agree between the sequential and parallel engines.
func TestParallelRunMatchesSequential(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 20, 20)
	eng := NewEngine(topo, rules.SMP{})
	init := randomColoring(7, 20, 20, 4)
	seq := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 300})
	par := eng.Run(init, Options{Target: 1, StopWhenMonochromatic: true, MaxRounds: 300, Parallel: true, Workers: 4})
	if !seq.Final.Equal(par.Final) {
		t.Fatal("parallel run reached a different final configuration")
	}
	if seq.Rounds != par.Rounds {
		t.Fatalf("rounds %d vs %d", seq.Rounds, par.Rounds)
	}
	for v := range seq.FirstReached {
		if seq.FirstReached[v] != par.FirstReached[v] {
			t.Fatalf("FirstReached[%d] differs: %d vs %d", v, seq.FirstReached[v], par.FirstReached[v])
		}
	}
}

func TestParallelRunCrossDynamo(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 9, 9)
	eng := NewEngine(topo, rules.SMP{})
	res := eng.Run(crossColoring(9, 9, 1), Options{
		Target: 1, StopWhenMonochromatic: true, Parallel: true, Workers: 3,
	})
	if !res.Monochromatic || res.FinalColor != 1 {
		t.Fatal("parallel cross dynamo failed")
	}
	// Theorem 7 for m=n=9: 2*max(ceil(8/2)-1, ceil(8/2)-1)+1 = 7.
	if res.Rounds != 7 {
		t.Errorf("rounds = %d, want 7", res.Rounds)
	}
}

// TestParallelWithMoreWorkersThanVertices requests far more workers than
// the 3×3 torus has rows: the run must neither panic nor deadlock, cut one
// shard per row, and match the sequential sweep.
func TestParallelWithMoreWorkersThanVertices(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 3, 3)
	eng := NewEngine(topo, rules.SMP{})
	init := randomColoring(1, 3, 3, 3)
	par := eng.Run(init, Options{MaxRounds: 10, Kernel: KernelSharded, Workers: 64})
	seq := eng.Run(init, Options{MaxRounds: 10, Kernel: KernelSweep})
	if par.Kernel != KernelSharded || par.Workers != 3 {
		t.Fatalf("kernel=%v workers=%d for 64 workers over 3 rows, want sharded/3", par.Kernel, par.Workers)
	}
	resultJSONEqual(t, "oversubscribed", par, seq)
}

func TestParallelPropertyEquivalence(t *testing.T) {
	f := func(seed uint64, kindSeed, sizeSeed, workerSeed uint8) bool {
		kind := grid.Kinds()[int(kindSeed)%3]
		m := 4 + int(sizeSeed)%12
		n := 4 + int(sizeSeed/2)%12
		workers := 2 + int(workerSeed)%6
		topo := grid.MustNew(kind, m, n)
		eng := NewEngine(topo, rules.SMP{})
		init := randomColoring(seed, m, n, 4)
		seq := eng.Run(init, Options{StopWhenMonochromatic: true, MaxRounds: 100})
		par := eng.Run(init, Options{StopWhenMonochromatic: true, MaxRounds: 100, Parallel: true, Workers: workers})
		return seq.Final.Equal(par.Final) && seq.Rounds == par.Rounds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
