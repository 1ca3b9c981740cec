package graphs

import (
	"context"
	"errors"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/sim"
)

// blinkerGraph builds a Barabási–Albert graph with an embedded 4-cycle
// gadget whose PB dynamics oscillate forever: two opposite vertices of the
// cycle are black, the other two white, and each round they trade places
// while the rest of the graph stays quiet.  It returns the graph, the
// oscillating coloring and the gadget vertices.  The gadget gives the
// near-convergence benchmarks and allocation pins a deterministic workload
// with a permanently small dirty frontier.
func blinkerGraph(tb testing.TB, n int) (*Graph, *Coloring, [4]int) {
	tb.Helper()
	g, err := NewBarabasiAlbert(n, 2, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	// Four degree-2 vertices, mutually non-adjacent with disjoint
	// neighborhoods, wired into a fresh 4-cycle u-a-v-b.
	var gadget [4]int
	count := 0
	used := map[int]bool{}
	for v := g.N() - 1; v >= 0 && count < 4; v-- {
		if g.Degree(v) != 2 || used[v] {
			continue
		}
		clash := false
		for _, u := range g.Neighbors(v) {
			if used[u] {
				clash = true
				break
			}
		}
		if clash {
			continue
		}
		gadget[count] = v
		used[v] = true
		for _, u := range g.Neighbors(v) {
			used[u] = true
		}
		count++
	}
	if count < 4 {
		tb.Fatal("could not find a gadget quadruple; change the generator seed")
	}
	u, a, v, b := gadget[0], gadget[1], gadget[2], gadget[3]
	g.AddEdge(u, a)
	g.AddEdge(a, v)
	g.AddEdge(v, b)
	g.AddEdge(b, u)

	c := NewColoring(g.N(), 1)
	c.Set(a, 2)
	c.Set(b, 2)
	return g, c, gadget
}

// TestBlinkerOscillatesForever pins the gadget the benchmarks rely on:
// under Prefer-Black the embedded 4-cycle flips its two black vertices
// every round, with exactly four changes per round and no spread.
func TestBlinkerOscillatesForever(t *testing.T) {
	g, c, _ := blinkerGraph(t, 500)
	eng := g.EngineFor(rules.SimpleMajorityPB{Black: 2})
	f := eng.NewFrontier(c)
	for round := 1; round <= 200; round++ {
		if changed := f.Step(); changed != 4 {
			t.Fatalf("round %d: %d changes, want the 4-vertex blinker", round, changed)
		}
		if got := f.Config().Count(2); got != 2 {
			t.Fatalf("round %d: %d black vertices, want 2 (no spread)", round, got)
		}
	}
}

// TestGraphFrontierStepDoesNotAllocate extends the zero-allocation pin to
// irregular substrates: steady-state frontier stepping over a
// Barabási–Albert graph performs no heap allocations, under both the
// counts fast path (generalized-smp) and the slice fallback shape.
func TestGraphFrontierStepDoesNotAllocate(t *testing.T) {
	g, c, _ := blinkerGraph(t, 1000)
	for _, rule := range []rules.Rule{rules.SimpleMajorityPB{Black: 2}, GeneralizedSMP{}} {
		eng := g.EngineFor(rule)
		f := eng.NewFrontier(c)
		f.Step()
		f.Step()
		avg := testing.AllocsPerRun(200, func() {
			f.Step()
			if f.Size() == 0 {
				f.Reset(c)
			}
		})
		if avg != 0 {
			t.Fatalf("%s: frontier step allocates %.1f allocs/op, want 0", rule.Name(), avg)
		}
	}
}

// TestGraphRunUsesFrontierByDefault pins the automatic tier selection on
// graph substrates: no bitplane (not a torus), frontier for sequential
// runs, sharded for parallel ones.
func TestGraphRunUsesFrontierByDefault(t *testing.T) {
	g, err := NewBarabasiAlbert(200, 2, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	initial := SeedTopByDegree(g, 10, 1, 2)
	res := Run(g, GeneralizedSMP{}, initial, 1, 0)
	if res.Engine.Kernel != sim.KernelFrontier {
		t.Fatalf("default graph run used %v, want frontier", res.Engine.Kernel)
	}
	eng := g.EngineFor(GeneralizedSMP{})
	par := eng.Run(initial, sim.Options{Parallel: true, Workers: 4})
	if par.Kernel != sim.KernelSharded || par.Workers != 4 {
		t.Fatalf("parallel graph run reported %v/%d workers", par.Kernel, par.Workers)
	}
}

// TestGraphBitplaneIneligible pins the probing contract: forcing the
// torus-only bitplane tier on a graph substrate fails with
// ErrBitplaneIneligible.
func TestGraphBitplaneIneligible(t *testing.T) {
	g, err := NewRing(16)
	if err != nil {
		t.Fatal(err)
	}
	eng := g.EngineFor(GeneralizedSMP{})
	initial := NewColoring(g.N(), 1)
	_, err = eng.RunContext(context.Background(), initial, sim.Options{Kernel: sim.KernelBitplane})
	if !errors.Is(err, sim.ErrBitplaneIneligible) {
		t.Fatalf("want ErrBitplaneIneligible, got %v", err)
	}
	if eng.Topology() != nil {
		t.Fatal("graph engines must report a nil torus topology")
	}
}

// TestGraphAsyncRun exercises the asynchronous (sequential-schedule)
// variant on an irregular substrate, through the generic neighbor loop.
func TestGraphAsyncRun(t *testing.T) {
	g, err := NewRing(12)
	if err != nil {
		t.Fatal(err)
	}
	initial := NewColoring(g.N(), 2)
	initial.Set(0, 1)
	res := g.EngineFor(GeneralizedSMP{}).Run(initial, sim.Options{Schedule: &sim.Schedule{Kind: sim.ScheduleSequential}})
	if !res.FixedPoint || !res.Monochromatic || res.FinalColor != 2 {
		t.Fatalf("async ring run should erase the dissenter, got %+v", res)
	}
}

// TestFromTorusStepMatchesTorusEngine pins Engine.Step on a graph substrate
// against the torus engine's step on the same structure.
func TestFromTorusStepMatchesTorusEngine(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	g := FromTorus(topo)
	src := rng.New(5)
	torusCur := color.NewColoring(topo.Dims(), color.None)
	for v := 0; v < topo.Dims().N(); v++ {
		torusCur.Set(v, color.Color(1+src.Intn(3)))
	}
	graphCur := NewColoring(g.N(), color.None)
	for v := 0; v < g.N(); v++ {
		graphCur.Set(v, torusCur.At(v))
	}
	torusEng := sim.NewEngine(topo, rules.SMP{})
	graphEng := g.EngineFor(GeneralizedSMP{})
	torusNext := torusCur.Clone()
	graphNext := graphCur.Clone()
	for round := 0; round < 10; round++ {
		a := torusEng.Step(torusCur, torusNext)
		b := graphEng.Step(graphCur, graphNext)
		if a != b {
			t.Fatalf("round %d: %d vs %d changes", round, a, b)
		}
		for v := 0; v < g.N(); v++ {
			if torusNext.At(v) != graphNext.At(v) {
				t.Fatalf("round %d: vertex %d differs", round, v)
			}
		}
		torusCur, torusNext = torusNext, torusCur
		graphCur, graphNext = graphNext, graphCur
	}
}
