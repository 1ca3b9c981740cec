package dynamo

import (
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rules"
)

func pal(k int) color.Palette { return color.MustPalette(k) }

func TestFullCrossIsAMonotoneDynamo(t *testing.T) {
	for _, size := range [][2]int{{5, 5}, {6, 8}, {9, 9}, {12, 7}} {
		c, err := FullCross(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if got, want := c.SeedSize(), size[0]+size[1]-1; got != want {
			t.Errorf("%v: seed size %d, want %d", size, got, want)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: full cross should be a monotone dynamo: %+v", size, v)
		}
		if v.Rounds != ExactRoundsFullCross(c.Topology.Dims()) {
			t.Errorf("%v: rounds = %d, want %d", size, v.Rounds, ExactRoundsFullCross(c.Topology.Dims()))
		}
		if size[0] == size[1] && v.Rounds != PredictedRoundsMesh(c.Topology.Dims()) {
			t.Errorf("%v: square full cross should match Theorem 7 exactly (got %d, want %d)",
				size, v.Rounds, PredictedRoundsMesh(c.Topology.Dims()))
		}
	}
}

func TestMeshMinimumMatchesLowerBoundAndIsMonotoneDynamo(t *testing.T) {
	for _, size := range [][2]int{{4, 4}, {5, 5}, {6, 9}, {9, 9}, {11, 6}, {13, 13}} {
		c, err := MeshMinimum(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		want := LowerBound(grid.KindToroidalMesh, c.Topology.Dims())
		if c.SeedSize() != want {
			t.Errorf("%v: seed size %d, want lower bound %d", size, c.SeedSize(), want)
		}
		if err := CheckTheoremConditions(c); err != nil {
			t.Errorf("%v: theorem conditions violated: %v", size, err)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: Theorem 2 configuration should be a monotone dynamo: dynamo=%v monotone=%v\n%s",
				size, v.IsDynamo, v.Monotone, c.Coloring.String())
		}
	}
}

func TestMeshMinimumWithExactlyFourColors(t *testing.T) {
	// Theorem 2 promises a construction with |C| >= 4.  With exactly four
	// colors our padding exists whenever m or n is a multiple of three (the
	// analytic row/column pattern); experiment E03 tabulates the minimum
	// palette per size.
	for _, size := range [][2]int{{6, 6}, {7, 9}, {8, 6}, {9, 5}, {12, 11}} {
		c, err := MeshMinimum(size[0], size[1], 1, pal(4))
		if err != nil {
			t.Fatalf("%v: construction with 4 colors failed: %v", size, err)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: 4-color Theorem 2 configuration failed: dynamo=%v monotone=%v", size, v.IsDynamo, v.Monotone)
		}
	}
}

func TestMeshMinimumFourColorInfeasibleSizes(t *testing.T) {
	// On a 4x4 torus no padding with exactly four colors satisfies the
	// theorem hypotheses together with seed safety (established by the
	// exhaustive backtracking fallback); five colors work.  This deviation
	// from the paper's "|C| >= 4 suffices" claim is the 4x4 "built=no" row
	// of experiment E03.
	if _, err := MeshMinimum(4, 4, 1, pal(4)); err == nil {
		t.Log("note: a 4-color padding was found for 4x4; update the E03 note")
	}
	c, err := MeshMinimum(4, 4, 1, pal(5))
	if err != nil {
		t.Fatalf("4x4 with five colors should work: %v", err)
	}
	if v := Verify(c); !v.IsDynamo || !v.Monotone {
		t.Error("4x4 five-color configuration should be a monotone dynamo")
	}
}

func TestMeshMinimumRejectsBadArguments(t *testing.T) {
	if _, err := MeshMinimum(2, 9, 1, pal(5)); err == nil {
		t.Error("m < 3 should be rejected")
	}
	if _, err := MeshMinimum(9, 9, 1, pal(3)); err == nil {
		t.Error("fewer than 4 colors should be rejected")
	}
	if _, err := MeshMinimum(9, 9, 7, pal(5)); err == nil {
		t.Error("target outside the palette should be rejected")
	}
	if _, err := MeshMinimum(1, 9, 1, pal(5)); err == nil {
		t.Error("degenerate dimensions should be rejected")
	}
}

func TestCordalisMinimum(t *testing.T) {
	for _, size := range [][2]int{{4, 4}, {5, 5}, {6, 8}, {9, 5}, {8, 11}} {
		c, err := CordalisMinimum(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		want := LowerBound(grid.KindTorusCordalis, c.Topology.Dims())
		if c.SeedSize() != want {
			t.Errorf("%v: seed size %d, want %d", size, c.SeedSize(), want)
		}
		if err := CheckTheoremConditions(c); err != nil {
			t.Errorf("%v: theorem conditions violated: %v", size, err)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: Theorem 4 configuration should be a monotone dynamo (dynamo=%v monotone=%v)",
				size, v.IsDynamo, v.Monotone)
		}
	}
}

func TestSerpentinusMinimumRowAndColumnVariants(t *testing.T) {
	// n <= m: row-seeded variant of size n+1.
	for _, size := range [][2]int{{5, 5}, {7, 4}, {9, 6}} {
		c, err := SerpentinusMinimum(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if c.SeedSize() != size[1]+1 {
			t.Errorf("%v: seed size %d, want %d", size, c.SeedSize(), size[1]+1)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: Theorem 6 (row) configuration failed (dynamo=%v monotone=%v)", size, v.IsDynamo, v.Monotone)
		}
	}
	// m < n: column-seeded variant of size m+1.
	for _, size := range [][2]int{{4, 7}, {6, 9}} {
		c, err := SerpentinusMinimum(size[0], size[1], 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if c.SeedSize() != size[0]+1 {
			t.Errorf("%v: seed size %d, want %d", size, c.SeedSize(), size[0]+1)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: Theorem 6 (column) configuration failed (dynamo=%v monotone=%v)", size, v.IsDynamo, v.Monotone)
		}
	}
}

func TestMinimumDispatch(t *testing.T) {
	for _, kind := range grid.Kinds() {
		c, err := Minimum(kind, 7, 7, 1, pal(5))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if c.Topology.Kind() != kind {
			t.Errorf("Minimum(%v) built a %v", kind, c.Topology.Kind())
		}
		if c.SeedSize() != LowerBound(kind, grid.MustDims(7, 7)) {
			t.Errorf("%v: size %d does not match the lower bound", kind, c.SeedSize())
		}
	}
	if _, err := Minimum(grid.Kind(77), 7, 7, 1, pal(5)); err == nil {
		t.Error("unknown kind should be rejected")
	}
}

func TestFigure1(t *testing.T) {
	c, err := Figure1(1, pal(5))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeedSize() != 16 {
		t.Errorf("Figure 1 dynamo has size %d, the paper says 16", c.SeedSize())
	}
	v := Verify(c)
	if !v.IsDynamo || !v.Monotone {
		t.Error("Figure 1 configuration should be a monotone dynamo")
	}
}

func TestCombUpperBound(t *testing.T) {
	for _, kind := range grid.Kinds() {
		c, err := CombUpperBound(kind, 8, 9, 1, pal(4))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		// Every even row (4 rows of 9) plus one vertex in each odd row.
		if got, want := c.SeedSize(), 4*9+4; got != want {
			t.Errorf("%v: comb size %d, want %d", kind, got, want)
		}
		v := Verify(c)
		if !v.IsDynamo || !v.Monotone {
			t.Errorf("%v: comb should be a monotone dynamo under SMP", kind)
		}
		// Proposition 2: it is also a dynamo under the reverse strong
		// majority rule.
		strong := VerifyUnderRule(c.Topology, c.Coloring, c.Target, rules.StrongMajority{})
		if !strong.IsDynamo {
			t.Errorf("%v: comb should also be a dynamo under strong majority", kind)
		}
	}
	if _, err := CombUpperBound(grid.KindToroidalMesh, 7, 9, 1, pal(4)); err == nil {
		t.Error("odd row count should be rejected")
	}
}

func TestSmallTorus(t *testing.T) {
	// N = 2: a full column of k on an m x 2 torus is a dynamo with 3 colors
	// (Proposition 3).
	c, err := SmallTorus(6, 2, 1, pal(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeedSize() != 6 {
		t.Errorf("seed size %d, want 6", c.SeedSize())
	}
	v := Verify(c)
	if !v.IsDynamo {
		t.Error("column seed on an m x 2 torus should be a dynamo (Proposition 3)")
	}
	// The row orientation (2 x n) works symmetrically.
	c, err = SmallTorus(2, 7, 1, pal(3))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeedSize() != 7 {
		t.Errorf("seed size %d, want 7", c.SeedSize())
	}
	if v := Verify(c); !v.IsDynamo {
		t.Error("row seed on a 2 x n torus should be a dynamo")
	}
	if _, err := SmallTorus(6, 6, 1, pal(4)); err == nil {
		t.Error("SmallTorus should reject min(m,n) > 2")
	}
}

func TestMeshMinimumOnThreeRowTorus(t *testing.T) {
	// Proposition 3, N = 3: the minimum dynamo is the L-shaped seed of
	// Theorem 2 (size m+n-2), and it needs at least three non-target colors.
	c, err := MeshMinimum(3, 8, 1, pal(4))
	if err != nil {
		t.Fatal(err)
	}
	if c.SeedSize() != 9 {
		t.Errorf("seed size %d, want 9", c.SeedSize())
	}
	v := Verify(c)
	if !v.IsDynamo || !v.Monotone {
		t.Error("3 x 8 L-shaped seed should be a monotone dynamo")
	}
}

func TestConstructionSeedListConsistency(t *testing.T) {
	c, err := MeshMinimum(6, 7, 2, pal(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range c.Seed {
		if c.Coloring.At(v) != 2 {
			t.Fatalf("seed vertex %d does not carry the target color", v)
		}
	}
	if c.Coloring.Count(2) != len(c.Seed) {
		t.Error("coloring has target-colored vertices outside the seed list")
	}
}

func TestTargetColorOtherThanOne(t *testing.T) {
	c, err := MeshMinimum(6, 6, 3, pal(5))
	if err != nil {
		t.Fatal(err)
	}
	v := Verify(c)
	if !v.IsDynamo || v.Result.FinalColor != 3 {
		t.Error("construction should work for any target color in the palette")
	}
}

// TestMinimumAllocsBounded pins the tight constructions at a constant
// number of allocations: the seed, the colorings, the padding sequence and
// the one union-find of the padding check, none of them per vertex.
func TestMinimumAllocsBounded(t *testing.T) {
	for _, kind := range []grid.Kind{grid.KindToroidalMesh, grid.KindTorusCordalis, grid.KindTorusSerpentinus} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := Minimum(kind, 256, 256, 1, pal(5)); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 64 {
			t.Errorf("%v 256x256: Minimum made %.0f allocations, want at most 64", kind, allocs)
		}
		t.Logf("%v 256x256: %.0f allocations", kind, allocs)
	}
}
