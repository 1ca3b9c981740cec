package dynamo

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/grid"
)

// The paper's Figures 3 and 4 show configurations whose black vertices do
// not constitute dynamos: Figure 3 violates the padding requirement of
// Theorem 2 (two neighbors of a vertex share an "other" color, which lets a
// foreign block form), and Figure 4 shows a configuration in which no
// recoloring can arise at all.  The figures are hand-drawn without explicit
// labels, so this package regenerates configurations with the same defining
// properties and verifies them by simulation.

// BlockedCross builds a Figure-3 style counterexample on a toroidal mesh:
// the seed is the full cross of FullCross (which with a valid padding would
// be a dynamo), but the padding plants a 2x2 single-colored square in the
// interior.  The square is a block of its color (Definition 4), so its
// vertices never recolor and the configuration cannot reach the
// k-monochromatic fixed point.
func BlockedCross(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	if m < 6 || n < 6 {
		return nil, fmt.Errorf("dynamo: BlockedCross requires m, n >= 6, got %dx%d", m, n)
	}
	base, err := FullCross(m, n, k, p)
	if err != nil {
		return nil, err
	}
	blocker := p.Others(k)[0]
	c := base.Coloring.Clone()
	midR, midC := m/2, n/2
	for _, rc := range [][2]int{{midR, midC}, {midR, midC + 1}, {midR + 1, midC}, {midR + 1, midC + 1}} {
		c.SetRC(rc[0], rc[1], blocker)
	}
	return &Construction{
		Name:     "blocked-cross",
		Topology: base.Topology,
		Target:   k,
		Palette:  p,
		Seed:     base.Seed,
		Coloring: c,
	}, nil
}

// FrozenTiling builds a Figure-4 style counterexample: the torus is tiled
// with 2x2 single-colored squares (one of which carries color k).  Every
// vertex sees two neighbors of its own color and two neighbors of other
// blocks, so the SMP-Protocol changes nothing: no recoloring can arise, and
// the k-colored square is not a dynamo even though it is a k-block.
// Requires even m and n.
func FrozenTiling(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if m%2 != 0 || n%2 != 0 {
		return nil, fmt.Errorf("dynamo: FrozenTiling requires even dimensions, got %dx%d", m, n)
	}
	if err := validateArgs(dims, k, p, 3); err != nil {
		return nil, err
	}
	topo := grid.MustNew(grid.KindToroidalMesh, m, n)
	others := p.Others(k)
	c := color.NewColoring(dims, color.None)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			bi, bj := i/2, j/2
			if bi == 0 && bj == 0 {
				c.SetRC(i, j, k)
				continue
			}
			c.SetRC(i, j, others[(bi+bj)%len(others)])
		}
	}
	var seedList []int
	for v := 0; v < dims.N(); v++ {
		if c.At(v) == k {
			seedList = append(seedList, v)
		}
	}
	return &Construction{
		Name:     "frozen-tiling",
		Topology: topo,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: c,
	}, nil
}

// StatedConditionsGap builds a configuration that satisfies the hypotheses
// of Theorem 2 exactly as stated (every non-k color class is a forest, no
// non-k vertex sees a repeated "other" color) and yet is NOT a monotone
// dynamo — in fact not a dynamo at all: the rows are cycled with period
// three so that the first and last padding rows share a color, and the
// seed's missing corner takes that same color.  The k-colored vertex next to
// the missing corner then sees that color on three of its neighbors, defects
// in round one, and together with the corner and the ends of the first and
// last padding rows forms a block of that color which never recolors.  This
// documents a gap in the sufficient condition of Theorem 2 (the condition
// constrains only non-k vertices), which experiment E16 reports.  Requires
// m ≡ 2 (mod 3), m, n >= 5 and at least 4 colors.
func StatedConditionsGap(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	dims, err := grid.NewDims(m, n)
	if err != nil {
		return nil, err
	}
	if err := validateArgs(dims, k, p, 4); err != nil {
		return nil, err
	}
	if m%3 != 2 || m < 5 || n < 5 {
		return nil, fmt.Errorf("dynamo: StatedConditionsGap requires m ≡ 2 (mod 3) and m, n >= 5, got %dx%d", m, n)
	}
	topo := grid.MustNew(grid.KindToroidalMesh, m, n)
	others := p.Others(k)
	cycle := []color.Color{others[0], others[1], others[2]}

	c := color.NewColoring(dims, color.None)
	c.FillCol(0, k)
	for j := 1; j < n-1; j++ {
		c.SetRC(0, j, k)
	}
	for i := 1; i < m; i++ {
		for j := 1; j < n; j++ {
			c.SetRC(i, j, cycle[(i-1)%3])
		}
	}
	// The missing corner takes the color shared by rows 1 and m-1, so the
	// neighboring seed vertex (0, n-2) sees it three times.
	c.SetRC(0, n-1, cycle[0])

	var seedList []int
	for v := 0; v < dims.N(); v++ {
		if c.At(v) == k {
			seedList = append(seedList, v)
		}
	}
	return &Construction{
		Name:     "stated-conditions-gap",
		Topology: topo,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: c,
	}, nil
}

// UndersizedSeed builds a configuration whose k-colored set has one vertex
// fewer than the Theorem 1 lower bound (a column plus a row missing two
// vertices).  By Lemma 1/Theorem 1 it cannot be a monotone dynamo; the
// simulation experiments confirm it never reaches the monochromatic fixed
// point with the structured paddings.
func UndersizedSeed(m, n int, k color.Color, p color.Palette) (*Construction, error) {
	base, err := MeshMinimum(m, n, k, p)
	if err != nil {
		return nil, err
	}
	d := base.Topology.Dims()
	c := base.Coloring.Clone()
	// Remove the last vertex of the seed row, shrinking the seed to m+n-3.
	removed := d.IndexRC(0, n-2)
	c.Set(removed, p.Others(k)[0])
	var seedList []int
	for _, v := range base.Seed {
		if v != removed {
			seedList = append(seedList, v)
		}
	}
	return &Construction{
		Name:     "undersized-seed",
		Topology: base.Topology,
		Target:   k,
		Palette:  p,
		Seed:     seedList,
		Coloring: c,
	}, nil
}
