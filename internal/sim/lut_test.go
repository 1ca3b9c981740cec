package sim

import (
	"context"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

// withoutLUTs marks every palette of the engine as not compiled, so its
// runs take the generic loops: the reference the table paths are compared
// against where no counts-based oracle tier exists (the stochastic steppers).
func withoutLUTs(e *Engine) *Engine {
	for k := range e.luts {
		e.luts[k].Store(&lut{k: k})
	}
	return e
}

// TestLUTMatchesRuleExhaustively checks the compiled table of every
// registered rule against Rule.Next, and Rule.Next against the rule's
// counts path, over all k⁵ inputs of every palette [0, k) with k in 2..9.
// A palette the rule maps outside itself must compile to no table, and a
// palette without a table must have such an input.
func TestLUTMatchesRuleExhaustively(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		cr, _ := rule.(rules.CountRule)
		eng := NewEngine(topo, rule)
		for k := 2; k <= maxLUTRadix; k++ {
			tab := eng.lutForTop(k - 1)
			closed := true
			var ns [4]color.Color
			for i := 0; i < k*k*k*k*k; i++ {
				r := i
				for j := 3; j >= 0; j-- {
					ns[j] = color.Color(r % k)
					r /= k
				}
				cv := color.Color(r)
				want := rule.Next(cv, ns[:])
				if cr != nil {
					if got := cr.NextFromCounts(cv, rules.CountsOf(ns[:])); got != want {
						t.Fatalf("%s: NextFromCounts(%v, %v) = %v, Next = %v", name, cv, ns, got, want)
					}
				}
				if want < 0 || int(want) >= k {
					closed = false
					continue
				}
				if tab != nil {
					if got := tab.at(cv, ns[0], ns[1], ns[2], ns[3]); got != want {
						t.Fatalf("%s k=%d: table(%v, %v) = %v, Next = %v", name, k, cv, ns, got, want)
					}
				}
			}
			if closed != (tab != nil) {
				t.Fatalf("%s k=%d: palette closed %v but table compiled %v", name, k, closed, tab != nil)
			}
		}
	}
}

// countUp mints colors: a vertex whose neighbors agree on at least three
// ports moves one color up, without bound — no palette is closed under it.
type countUp struct{}

func (countUp) Name() string { return "count-up" }

func (countUp) Next(current color.Color, neighbors []color.Color) color.Color {
	cs := rules.CountsOf(neighbors)
	if _, n, _ := cs.Max(); n >= 3 {
		return current + 1
	}
	return current
}

// TestLUTFallbackOnOpenPalette runs rules whose outputs leave the initial
// palette on the table-routed tiers: they must compile no table, take the
// generic loops and stay bit-identical to the sweep oracle.  The threshold
// rule with θ = 0 activates every vertex to a target color the palette
// lacks; countUp climbs past any palette.  Increment rides along: its
// outputs never exceed the persuading neighbor's color, so its palettes are
// closed and it runs on the table, against the same oracle.
func TestLUTFallbackOnOpenPalette(t *testing.T) {
	cases := []struct {
		rule     rules.Rule
		compiles bool
	}{
		{rules.Threshold{Target: 7, Theta: 0}, false},
		{countUp{}, false},
		{rules.Increment{K: 4}, true},
	}
	for _, c := range cases {
		for _, kind := range grid.Kinds() {
			topo := grid.MustNew(kind, 12, 10)
			eng := NewEngine(topo, c.rule)
			initial := randomTestColoring(5, topo.Dims(), 3)
			if got := eng.lutForTop(3) != nil; got != c.compiles {
				t.Fatalf("%s: table for palette [0, 4) compiled %v, want %v", c.rule.Name(), got, c.compiles)
			}
			base := Options{MaxRounds: 30, Target: 1, DetectCycles: true}
			oracle := base
			oracle.Kernel = KernelSweep
			want := eng.Run(initial, oracle)
			for _, opt := range []Options{
				{MaxRounds: 30, Target: 1, DetectCycles: true, Kernel: KernelFrontier},
				shardedOpts(base, 2),
				shardedOpts(base, 3),
			} {
				label := c.rule.Name() + "/" + topo.Name() + "/" + opt.Kernel.String()
				resultJSONEqual(t, label, eng.Run(initial, opt), want)
			}
		}
	}
}

// TestLUTChosenPerRunOnReusedEngine reuses one engine, frontier and sharded
// stepper for a 12-color run (no table: the palette radix exceeds
// maxLUTRadix) and then a 3-color run, which must compile and use the table
// for [0, 4): the frontier sizes it from the top nonzero histogram bin, not
// from the histogram's length, which never shrinks.
func TestLUTChosenPerRunOnReusedEngine(t *testing.T) {
	topo := grid.MustNew(grid.KindTorusSerpentinus, 16, 18)
	eng := NewEngine(topo, rules.SMP{})
	wide := randomTestColoring(1, topo.Dims(), 12)
	narrow := randomTestColoring(2, topo.Dims(), 3)

	f := eng.NewFrontier(wide)
	if f.lut != nil {
		t.Fatalf("12-color frontier run got a table for k=%d", f.lut.k)
	}
	f.Reset(narrow)
	if f.lut == nil || f.lut.k != 4 {
		t.Fatalf("3-color frontier run after a 12-color one: table %+v, want k=4", f.lut)
	}

	sh := eng.NewSharded(2)
	sh.Reset(wide)
	if sh.lut != nil {
		t.Fatalf("12-color sharded run got a table for k=%d", sh.lut.k)
	}
	sh.Reset(narrow)
	if sh.lut == nil || sh.lut.k != 4 {
		t.Fatalf("3-color sharded run after a 12-color one: table %+v, want k=4", sh.lut)
	}

	// The same sequence through Run, on the engine's pooled state, against
	// the oracle.
	for _, initial := range []*color.Coloring{wide, narrow, wide, narrow} {
		want := eng.Run(initial, Options{MaxRounds: 50, DetectCycles: true, Kernel: KernelSweep})
		for _, opt := range []Options{
			{MaxRounds: 50, DetectCycles: true, Kernel: KernelFrontier},
			shardedOpts(Options{MaxRounds: 50, DetectCycles: true}, 2),
		} {
			resultJSONEqual(t, "reuse/"+opt.Kernel.String(), eng.Run(initial, opt), want)
		}
	}
}

// TestLUTCheckpointResume interrupts table-routed frontier and sharded runs
// mid-run and resumes them from the checkpoint: the resumed Result must be
// byte-identical to the uninterrupted one and to the sweep oracle.
func TestLUTCheckpointResume(t *testing.T) {
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 20, 22)
		eng := NewEngine(topo, rules.SMP{})
		initial := randomTestColoring(9, topo.Dims(), 5)
		if eng.lutForTop(5) == nil {
			t.Fatal("SMP compiled no table for the 5-color palette")
		}
		base := Options{MaxRounds: 60, Target: 2, DetectCycles: true}
		oracle := base
		oracle.Kernel = KernelSweep
		want := eng.Run(initial, oracle)
		if want.Rounds < 2 {
			t.Fatalf("%s: run too short to checkpoint (%d rounds)", topo.Name(), want.Rounds)
		}
		frontier := base
		frontier.Kernel = KernelFrontier
		for _, opt := range []Options{frontier, shardedOpts(base, 2), shardedOpts(base, 4)} {
			label := topo.Name() + "/" + opt.Kernel.String()
			full := eng.Run(initial, opt)
			resultJSONEqual(t, label+"/full", full, want)
			for _, at := range []int{1, want.Rounds / 2, want.Rounds - 1} {
				cp := checkpointAt(t, eng, initial, opt, at)
				resumed, err := eng.ResumeContext(context.Background(), cp, opt)
				if err != nil {
					t.Fatalf("%s: resume at %d: %v", label, at, err)
				}
				resultJSONEqual(t, label+"/resume", resumed, full)
			}
		}
	}
}

// TestLUTNoisePaletteBeyondInitialColors runs noisy 2-color colorings whose
// fault palette has five colors: the table must be compiled for [0, 6), not
// for the initial coloring's [0, 3) (a fault would then index past it), and
// every schedule must stay bit-identical to the generic loops.
func TestLUTNoisePaletteBeyondInitialColors(t *testing.T) {
	topo := grid.MustNew(grid.KindTorusCordalis, 24, 20)
	initial := randomTestColoring(4, topo.Dims(), 2)
	noise := &Noise{Eps: 0.05, Colors: 5, Seed: 11}
	schedules := []*Schedule{
		nil,
		{Kind: ScheduleUniformAsync, P: 0.6, Seed: 3},
		{Kind: ScheduleVertexClock, Period: 3, Seed: 3},
		{Kind: ScheduleSequential},
		{Kind: ScheduleRandomSequential, Seed: 3},
	}
	for _, sched := range schedules {
		kernels := []Kernel{KernelAuto, KernelSweep}
		if sched == nil || !sched.inPlace() {
			kernels = append(kernels, KernelSharded)
		}
		for _, kernel := range kernels {
			opt := Options{MaxRounds: 25, Target: 1, Schedule: sched, Noise: noise, Kernel: kernel, Workers: 2}
			eng := NewEngine(topo, rules.SMP{})
			got := eng.Run(initial, opt)
			if eng.luts[6].Load() == nil || eng.luts[3].Load() != nil {
				t.Fatalf("noisy run compiled the wrong palette (k=6: %v, k=3: %v)", eng.luts[6].Load() != nil, eng.luts[3].Load() != nil)
			}
			if got.Final.MaxColor() <= 2 {
				t.Fatalf("no fault reached a color above the initial palette")
			}
			want := withoutLUTs(NewEngine(topo, rules.SMP{})).Run(initial, opt)
			label := "noise"
			if sched != nil {
				label = sched.Kind.String()
			}
			resultJSONEqual(t, label+"/"+kernel.String(), got, want)
		}
	}
}

// TestLUTPaletteChoice pins the one palette rule both table choosers share:
// the palette is [0, top], a negative color or a top of maxLUTRadix or more
// disqualifies the run, and a noisy run's fault palette widens the table.
func TestLUTPaletteChoice(t *testing.T) {
	eng := NewEngine(grid.MustNew(grid.KindToroidalMesh, 6, 6), rules.SMP{})
	for _, top := range []int{-1, maxLUTRadix, maxLUTRadix + 3} {
		if eng.lutForTop(top) != nil {
			t.Fatalf("lutForTop(%d) compiled a table", top)
		}
	}
	cells := []color.Color{0, 2, 1, 2}
	if tab := eng.lutForCells(cells, 0); tab == nil || tab.k != 3 {
		t.Fatalf("lutForCells(top 2) = %+v, want radix 3", tab)
	}
	if tab := eng.lutForCells(cells, 4); tab == nil || tab.k != 5 {
		t.Fatalf("lutForCells(top 2, fault palette 4) = %+v, want radix 5", tab)
	}
	if eng.lutForCells([]color.Color{3, -1, 1}, 0) != nil {
		t.Fatal("lutForCells compiled a table for a negative color")
	}
	if eng.lutForCells([]color.Color{1, maxLUTRadix}, 0) != nil {
		t.Fatalf("lutForCells compiled a table for color %d", maxLUTRadix)
	}
}
