package dynamo

import (
	"testing"
	"testing/quick"

	"repro/internal/blocks"
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
)

func TestFillCyclicRows(t *testing.T) {
	c := color.NewColoring(grid.MustDims(5, 4), color.None)
	c.FillRow(0, 1)
	FillCyclicRows(c, []color.Color{2, 3, 4}, 3)
	if c.AtRC(0, 0) != 1 {
		t.Error("FillCyclicRows must not overwrite assigned cells")
	}
	if c.AtRC(1, 2) != 2 || c.AtRC(2, 0) != 3 || c.AtRC(3, 1) != 4 || c.AtRC(4, 3) != 2 {
		t.Errorf("row cycle wrong:\n%s", c.String())
	}
}

func TestFillCyclicCols(t *testing.T) {
	c := color.NewColoring(grid.MustDims(4, 5), color.None)
	c.FillCol(0, 1)
	FillCyclicCols(c, []color.Color{2, 3, 4}, 3)
	if c.AtRC(2, 0) != 1 {
		t.Error("FillCyclicCols must not overwrite assigned cells")
	}
	if c.AtRC(0, 1) != 2 || c.AtRC(1, 2) != 3 || c.AtRC(2, 3) != 4 || c.AtRC(3, 4) != 2 {
		t.Errorf("column cycle wrong:\n%s", c.String())
	}
}

func TestFillCyclicPanicsOnBadPeriod(t *testing.T) {
	c := color.NewColoring(grid.MustDims(4, 4), color.None)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for period larger than the palette")
		}
	}()
	FillCyclicRows(c, []color.Color{2, 3}, 3)
}

func TestChooseCyclePeriod(t *testing.T) {
	// span-2 divisible by 3 -> q=3 rejected, q=4 accepted.
	if q := chooseCyclePeriod(5, 4); q != 4 {
		t.Errorf("chooseCyclePeriod(5,4) = %d, want 4", q)
	}
	if q := chooseCyclePeriod(6, 4); q != 3 {
		t.Errorf("chooseCyclePeriod(6,4) = %d, want 3", q)
	}
	// No valid period available.
	if q := chooseCyclePeriod(5, 3); q != 0 {
		t.Errorf("chooseCyclePeriod(5,3) = %d, want 0", q)
	}
}

func TestSolvePaddingProducesValidPadding(t *testing.T) {
	for _, kind := range grid.Kinds() {
		for _, size := range [][2]int{{5, 5}, {6, 7}, {8, 8}} {
			topo := grid.MustNew(kind, size[0], size[1])
			d := topo.Dims()
			seed := color.NewColoring(d, color.None)
			seed.FillRow(0, 1)
			seed.FillCol(0, 1)
			full, err := SolvePadding(topo, seed, 1, pal(5), rng.New(1), 0)
			if err != nil {
				t.Fatalf("%v %v: %v", kind, size, err)
			}
			if err := blocks.CheckTightPadding(topo, full, 1); err != nil {
				t.Fatalf("%v %v: solver output violates the padding conditions: %v", kind, size, err)
			}
			// The seed must be preserved.
			for j := 0; j < d.Cols; j++ {
				if full.AtRC(0, j) != 1 {
					t.Fatalf("%v %v: solver modified the seed", kind, size)
				}
			}
			if err := full.Validate(pal(5)); err != nil {
				t.Fatalf("%v %v: %v", kind, size, err)
			}
		}
	}
}

func TestSolvePaddingRejectsBadInput(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 5)
	seed := color.NewColoring(topo.Dims(), color.None)
	seed.SetRC(0, 0, 3) // a non-target color in the seed
	if _, err := SolvePadding(topo, seed, 1, pal(5), nil, 0); err == nil {
		t.Error("seed containing non-target colors should be rejected")
	}
	if _, err := SolvePadding(topo, color.NewColoring(topo.Dims(), color.None), 9, pal(5), nil, 0); err == nil {
		t.Error("target outside the palette should be rejected")
	}
	if _, err := SolvePadding(topo, color.NewColoring(topo.Dims(), color.None), 1, pal(1), nil, 0); err == nil {
		t.Error("palette without other colors should be rejected")
	}
}

func TestSolvePaddingIsDeterministicForSameSeed(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	seed := color.NewColoring(topo.Dims(), color.None)
	seed.FillCol(0, 1)
	for j := 1; j < 5; j++ {
		seed.SetRC(0, j, 1)
	}
	a, err := SolvePadding(topo, seed, 1, pal(5), rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SolvePadding(topo, seed, 1, pal(5), rng.New(7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Error("same RNG seed must give the same padding")
	}
}

func TestSolvePaddingWithMinimumPalette(t *testing.T) {
	// Four colors (the Theorem 2 requirement) are enough for the Theorem 2
	// row-oriented seed on these sizes (m a multiple of three, so the
	// row-cycling preference succeeds).
	for _, size := range [][2]int{{6, 5}, {6, 7}, {9, 8}, {12, 7}} {
		topo := grid.MustNew(grid.KindToroidalMesh, size[0], size[1])
		d := topo.Dims()
		seed := color.NewColoring(d, color.None)
		seed.FillCol(0, 1)
		for j := 1; j < d.Cols-1; j++ {
			seed.SetRC(0, j, 1)
		}
		full, err := SolvePadding(topo, seed, 1, pal(4), rng.New(3), 0)
		if err != nil {
			t.Fatalf("%v: %v", size, err)
		}
		if err := blocks.CheckTightPadding(topo, full, 1); err != nil {
			t.Fatalf("%v: %v", size, err)
		}
	}
}

func TestBacktrackPaddingFallbackOnTinyTorus(t *testing.T) {
	// The 4x4 Theorem-2 seed with five colors exercises the exhaustive
	// backtracking fallback path end to end (the greedy heuristics usually
	// solve it, so call the DFS directly).
	topo := grid.MustNew(grid.KindToroidalMesh, 4, 4)
	d := topo.Dims()
	seed := color.NewColoring(d, color.None)
	seed.FillCol(0, 1)
	seed.SetRC(0, 1, 1)
	seed.SetRC(0, 2, 1)
	c := seed.Clone()
	var unset []int
	for v := 0; v < c.N(); v++ {
		if c.At(v) == color.None {
			unset = append(unset, v)
		}
	}
	if !backtrackPadding(topo, c, 1, pal(5).Others(1), unset) {
		t.Fatal("backtracking should find a 5-color padding for the 4x4 seed")
	}
	if err := blocks.CheckTightPadding(topo, c, 1); err != nil {
		t.Fatalf("backtracking result violates the conditions: %v", err)
	}
	// With only three non-target colors the same seed has no valid padding;
	// the DFS must prove it rather than loop forever.
	c2 := seed.Clone()
	if backtrackPadding(topo, c2, 1, pal(4).Others(1), unset) {
		t.Log("note: a 4-color padding was found for 4x4; update the E03 note")
	}
}

func TestSolvePaddingPropertyRandomSeeds(t *testing.T) {
	// For random sparse seeds the solver either fails cleanly or returns a
	// configuration that satisfies the padding conditions.
	f := func(seedVal uint64, kindSeed, sizeSeed uint8) bool {
		kind := grid.Kinds()[int(kindSeed)%3]
		m := 4 + int(sizeSeed)%5
		n := 4 + int(sizeSeed/3)%5
		topo := grid.MustNew(kind, m, n)
		src := rng.New(seedVal)
		seed := color.NewColoring(topo.Dims(), color.None)
		for v := 0; v < seed.N(); v++ {
			if src.Float64() < 0.2 {
				seed.Set(v, 1)
			}
		}
		full, err := SolvePadding(topo, seed, 1, pal(5), src, 8)
		if err != nil {
			return true // a clean failure is acceptable for arbitrary seeds
		}
		return blocks.CheckTightPadding(topo, full, 1) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
