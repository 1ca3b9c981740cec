// Integration tests that exercise the public dynmon façade end to end,
// crossing every package boundary the way the examples and command-line
// tools do.
package repro_test

import (
	"context"
	"strings"
	"testing"

	"repro/dynmon"
	"repro/internal/analysis"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/search"
	"repro/internal/tvg"
)

// TestEndToEndAllTopologies runs the complete pipeline — construction,
// condition check, simulation, timing matrix, report — for all three
// topologies and several sizes, checking the paper's headline claims.
func TestEndToEndAllTopologies(t *testing.T) {
	for _, topology := range []string{"mesh", "cordalis", "serpentinus"} {
		for _, size := range [][2]int{{6, 6}, {9, 7}, {12, 12}} {
			sys, err := dynmon.New(dynmon.WithTopology(topology, size[0], size[1]), dynmon.Colors(5))
			if err != nil {
				t.Fatal(err)
			}
			cons, err := sys.MinimumDynamo(1)
			if err != nil {
				t.Fatalf("%s %v: %v", topology, size, err)
			}
			rep := sys.Verify(cons)
			if !rep.IsDynamo || !rep.Monotone || !rep.ConditionsOK {
				t.Errorf("%s %v: %s", topology, size, rep.Summary())
			}
			if rep.SeedSize != sys.LowerBound() {
				t.Errorf("%s %v: seed %d != bound %d", topology, size, rep.SeedSize, sys.LowerBound())
			}
			matrix, rendered := sys.TimingMatrix(cons.Coloring, 1)
			if len(matrix) != size[0] || rendered == "" {
				t.Errorf("%s %v: timing matrix malformed", topology, size)
			}
			// The maximum recoloring time equals the reported round count.
			if analysis.MatrixMax(matrix) != rep.Rounds {
				t.Errorf("%s %v: matrix max %d != rounds %d", topology, size, analysis.MatrixMax(matrix), rep.Rounds)
			}
		}
	}
}

// TestHeadlineFigures asserts the two figure matrices that the paper prints
// in full are reproduced exactly.
func TestHeadlineFigures(t *testing.T) {
	cross, err := dynamo.FullCross(5, 5, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	m5, _ := analysis.TimingMatrix(cross.Topology, cross.Coloring, 1)
	if !analysis.MatricesEqual(m5, analysis.Figure5Reference()) {
		t.Error("Figure 5 not reproduced")
	}
	cord, err := dynamo.CordalisMinimum(5, 5, 1, color.MustPalette(6))
	if err != nil {
		t.Fatal(err)
	}
	m6, _ := analysis.TimingMatrix(cord.Topology, cord.Coloring, 1)
	if !analysis.MatricesEqual(m6, analysis.Figure6Reference()) {
		t.Error("Figure 6 not reproduced")
	}
	for fig := 1; fig <= 6; fig++ {
		out, err := dynmon.Figure(fig)
		if err != nil || !strings.Contains(out, "Figure") {
			t.Errorf("figure %d rendering failed: %v", fig, err)
		}
	}
}

// TestCrossPackageConsistency checks that independent code paths agree: the
// torus engine and the general-graph engine on the converted torus, and the
// static engine and the time-varying engine with full availability.
func TestCrossPackageConsistency(t *testing.T) {
	cons, err := dynamo.MeshMinimum(8, 8, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	static := dynamo.Verify(cons)

	// The time-varying run mode with AlwaysOn must agree exactly, through
	// the public TimeVarying run option.
	tvSys, err := dynmon.New(dynmon.Mesh(8, 8), dynmon.Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	tv, err := tvSys.Run(context.Background(), cons.Coloring,
		dynmon.TimeVarying(tvg.AlwaysOn{}), dynmon.StopWhenMonochromatic())
	if err != nil {
		t.Fatal(err)
	}
	if !tv.Monochromatic || tv.Rounds != static.Rounds {
		t.Errorf("TimeVarying AlwaysOn disagrees with the static engine: %d vs %d rounds", tv.Rounds, static.Rounds)
	}

	// General-graph engine on the converted torus must reach the same
	// monochromatic configuration (round counts agree because the
	// generalized rule coincides with SMP on degree-4 neighborhoods).
	g := graphs.FromTorus(cons.Topology)
	init := graphs.NewColoring(g.N(), 0)
	for v := 0; v < g.N(); v++ {
		init.Set(v, cons.Coloring.At(v))
	}
	res := graphs.Run(g, graphs.GeneralizedSMP{}, init, 1, 500)
	if res.TargetCount != g.N() {
		t.Errorf("graph engine reached %d/%d vertices", res.TargetCount, g.N())
	}
}

// TestLowerBoundStoryEndToEnd ties the Theorem 1 narrative together: the
// construction meets the bound, undersized structured seeds fail, and the
// documented small-torus counterexample is reproducible through the search
// package.
func TestLowerBoundStoryEndToEnd(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 8, 8)
	bound := dynamo.LowerBound(grid.KindToroidalMesh, topo.Dims())

	cons, err := dynamo.MeshMinimum(8, 8, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	if cons.SeedSize() != bound {
		t.Fatalf("construction size %d != bound %d", cons.SeedSize(), bound)
	}
	under, err := dynamo.UndersizedSeed(8, 8, 1, color.MustPalette(5))
	if err != nil {
		t.Fatal(err)
	}
	if dynamo.Verify(under).IsDynamo {
		t.Error("undersized structured seed must not be a dynamo")
	}
	small := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	found := search.RandomDynamo(small, 5, 1, color.MustPalette(5),
		search.Options{Trials: 2000, RequireMonotone: true, Seed: 3})
	if found == nil {
		t.Error("the 4x4 sub-bound counterexample should be reproducible")
	}
}

// TestDeterministicReproduction re-runs a slice of the pipeline twice and
// demands identical outputs, the property the experiment tables of
// internal/analysis rely on.
func TestDeterministicReproduction(t *testing.T) {
	run := func() string {
		sys, err := dynmon.New(dynmon.Mesh(10, 10), dynmon.Colors(5))
		if err != nil {
			t.Fatal(err)
		}
		cons, err := sys.MinimumDynamo(2)
		if err != nil {
			t.Fatal(err)
		}
		_, rendered := sys.TimingMatrix(cons.Coloring, 2)
		return cons.Coloring.String() + "\n" + rendered
	}
	if run() != run() {
		t.Error("the pipeline is not deterministic")
	}
	src1 := rng.New(5)
	src2 := rng.New(5)
	g1, _ := graphs.NewBarabasiAlbert(100, 2, src1)
	g2, _ := graphs.NewBarabasiAlbert(100, 2, src2)
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Error("graph generation is not deterministic")
	}
}

// TestSteppersAgreeEndToEnd pins the engine rebuild at the façade level:
// batched frontier runs, one-at-a-time frontier runs and full-sweep oracle
// runs must reach identical verdicts on the paper's constructions.
func TestSteppersAgreeEndToEnd(t *testing.T) {
	sys, err := dynmon.New(dynmon.Mesh(9, 9), dynmon.Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := sys.MinimumDynamo(1)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	front, err := sys.Run(ctx, cons.Coloring, dynmon.Target(1), dynmon.StopWhenMonochromatic())
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := sys.Run(ctx, cons.Coloring, dynmon.Target(1), dynmon.StopWhenMonochromatic(), dynmon.FullSweep())
	if err != nil {
		t.Fatal(err)
	}
	if front.Rounds != sweep.Rounds || !front.Final.Equal(sweep.Final) || front.MonotoneTarget != sweep.MonotoneTarget {
		t.Fatal("frontier and full-sweep verdicts diverged on the Theorem 2 construction")
	}
	batch, err := sys.NewSession(4).RunBatch(ctx, []*dynmon.Coloring{cons.Coloring, cons.Coloring},
		dynmon.Target(1), dynmon.StopWhenMonochromatic())
	if err != nil {
		t.Fatal(err)
	}
	for i, res := range batch {
		if res.Rounds != sweep.Rounds || !res.Final.Equal(sweep.Final) {
			t.Fatalf("batch item %d diverged from the oracle", i)
		}
	}
}
