package blocks

import (
	"fmt"
	"slices"

	"repro/internal/color"
	"repro/internal/grid"
)

// CheckTightPadding verifies the hypotheses that Theorems 2, 4 and 6 impose
// on the colors outside the dynamo seed Sk:
//
//  1. for every color k' != k, the k'-colored vertices induce a forest;
//  2. for every k'-colored vertex x, the neighbors of x whose color is
//     neither k' nor k carry pairwise different colors.
//
// It returns nil when both conditions hold and a descriptive error
// otherwise.  An unset vertex is reported before anything else, and a
// cyclic class (named by the color of the first cycle-closing edge in
// vertex order) before a repeated neighbor color.
//
// Both conditions are checked in one pass over the vertices: a single
// union-find serves every non-k class, since its edges never leave a class.
func CheckTightPadding(topo grid.Topology, c *color.Coloring, k color.Color) error {
	cells := c.Cells()
	if slices.Contains(cells, color.None) {
		return fmt.Errorf("blocks: vertex with unset color present")
	}
	f := NewForest(len(cells))
	var buf [grid.Degree]int
	var repeated error
	for v, own := range cells {
		if own == k {
			continue
		}
		ns := topo.Neighbors(v, buf[:0])
		if f.closesCycle(ns, cells, v) {
			return fmt.Errorf("blocks: color class %v is not a forest", own)
		}
		if repeated != nil {
			continue
		}
		if cu, ok := repeatedOtherColor(ns, cells, own, k); ok {
			repeated = fmt.Errorf("blocks: vertex %v (color %v) has two neighbors of color %v",
				c.Dims().Coord(v), own, cu)
		}
	}
	return repeated
}

// repeatedOtherColor returns the first color, in port order, that repeats
// an earlier port's color and is neither own nor k.  Ports are not
// collapsed: on a 2-wide torus a neighbor seen through two ports counts
// twice.
func repeatedOtherColor(ns []int, cells []color.Color, own, k color.Color) (color.Color, bool) {
	for j := 1; j < len(ns); j++ {
		cu := cells[ns[j]]
		if cu == k || cu == own {
			continue
		}
		for _, u := range ns[:j] {
			if cells[u] == cu {
				return cu, true
			}
		}
	}
	return color.None, false
}

// CheckMonotoneDynamoNecessaryConditions verifies the necessary conditions
// of Lemma 2 and Theorem 1 for a set Sk (the k-colored vertices of the
// coloring) to be a monotone dynamo:
//
//   - Sk is a union of k-blocks (every k-colored vertex belongs to a
//     k-block);
//   - the complement contains no non-k-block;
//   - the bounding rectangle of Sk spans at least (m-1) rows and (n-1)
//     columns.
//
// It returns nil when all conditions hold.
func CheckMonotoneDynamoNecessaryConditions(topo grid.Topology, c *color.Coloring, k color.Color) error {
	d := topo.Dims()
	inBlock := make([]bool, c.N())
	for _, block := range KBlocks(topo, c, k) {
		for _, v := range block {
			inBlock[v] = true
		}
	}
	for v := 0; v < c.N(); v++ {
		if c.At(v) == k && !inBlock[v] {
			return fmt.Errorf("blocks: k-colored vertex %v belongs to no k-block (violates Lemma 2)", d.Coord(v))
		}
	}
	if HasNonKBlock(topo, c, k) {
		return fmt.Errorf("blocks: the complement of Sk contains a non-k-block (violates Lemma 2)")
	}
	rows, cols := c.BoundingRectangle(k)
	if rows < d.Rows-1 || cols < d.Cols-1 {
		return fmt.Errorf("blocks: bounding rectangle of Sk is %dx%d, need at least %dx%d (violates Lemma 1)",
			rows, cols, d.Rows-1, d.Cols-1)
	}
	return nil
}
