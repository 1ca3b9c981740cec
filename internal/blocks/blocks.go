// Package blocks implements the structural notions the paper's proofs are
// built on: k-blocks, non-k-blocks, forests of color classes and the
// padding conditions of the tight constructions (Theorem 2 and its
// cordalis/serpentinus analogues).
//
// Definitions (Section II.B of the paper):
//
//   - a k-block is a connected set of k-colored vertices each of which has
//     at least two neighbors inside the set; its vertices can never change
//     color under the SMP-Protocol;
//   - a non-k-block is a connected set of vertices with colors other than k
//     each of which has at least three neighbors inside the set; its
//     vertices can never acquire color k.
//
// Both are computed as cores of induced subgraphs: the maximal vertex sets
// in which every vertex keeps a minimum internal degree (2 for k-blocks, 3
// for non-k-blocks).  Connected components of the core are the blocks.
package blocks

import (
	"repro/internal/color"
	"repro/internal/grid"
)

// core computes the maximal subset of members in which every vertex has at
// least minDeg neighbors that are also in the subset, where membership of
// vertex v is members[v].  Neighbors are counted on the simple graph
// (duplicate ports collapsed).  It returns the indicator slice of the core.
func core(topo grid.Topology, members []bool, minDeg int) []bool {
	n := topo.Dims().N()
	in := make([]bool, n)
	deg := make([]int, n)
	copy(in, members)

	var buf [grid.Degree]int
	degreeOf := func(v int) int {
		d := 0
		for _, u := range grid.UniqueNeighbors(topo, v, buf[:0]) {
			if in[u] {
				d++
			}
		}
		return d
	}
	queue := make([]int, 0, n)
	for v := 0; v < n; v++ {
		if !in[v] {
			continue
		}
		deg[v] = degreeOf(v)
		if deg[v] < minDeg {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !in[v] {
			continue
		}
		in[v] = false
		for _, u := range grid.UniqueNeighbors(topo, v, buf[:0]) {
			if !in[u] {
				continue
			}
			deg[u]--
			if deg[u] < minDeg {
				queue = append(queue, u)
			}
		}
	}
	return in
}

// components splits the vertices marked in `in` into connected components
// (using the simple graph induced on them) and returns them as sorted index
// slices.
func components(topo grid.Topology, in []bool) [][]int {
	n := topo.Dims().N()
	seen := make([]bool, n)
	var buf [grid.Degree]int
	var out [][]int
	for v := 0; v < n; v++ {
		if !in[v] || seen[v] {
			continue
		}
		var comp []int
		stack := []int{v}
		seen[v] = true
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for _, u := range grid.UniqueNeighbors(topo, x, buf[:0]) {
				if in[u] && !seen[u] {
					seen[u] = true
					stack = append(stack, u)
				}
			}
		}
		sortInts(comp)
		out = append(out, comp)
	}
	return out
}

func sortInts(xs []int) {
	// Insertion sort: component sizes are small relative to the cost of a
	// dependency, and this keeps the package free of imports beyond the
	// repository's own.
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

// KBlocks returns the k-blocks of the coloring: the connected components of
// the 2-core of the k-colored induced subgraph (Definition 4).
func KBlocks(topo grid.Topology, c *color.Coloring, k color.Color) [][]int {
	members := make([]bool, c.N())
	for v := 0; v < c.N(); v++ {
		members[v] = c.At(v) == k
	}
	return components(topo, core(topo, members, 2))
}

// HasKBlock reports whether the coloring contains at least one k-block.
func HasKBlock(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	return len(KBlocks(topo, c, k)) > 0
}

// NonKBlocks returns the non-k-blocks of the coloring: the connected
// components of the 3-core of the subgraph induced by the vertices whose
// color differs from k (Definition 5).
func NonKBlocks(topo grid.Topology, c *color.Coloring, k color.Color) [][]int {
	members := make([]bool, c.N())
	for v := 0; v < c.N(); v++ {
		members[v] = c.At(v) != k
	}
	return components(topo, core(topo, members, 3))
}

// HasNonKBlock reports whether the coloring contains a non-k-block, i.e. a
// set of vertices that can never acquire color k.  By Lemma 2 a monotone
// dynamo must leave no such set.
func HasNonKBlock(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	return len(NonKBlocks(topo, c, k)) > 0
}

// OtherColorBlocks returns, for every color k' != k present in the coloring,
// the k'-blocks.  The tight constructions require there to be none
// (otherwise the k' vertices would never recolor).
func OtherColorBlocks(topo grid.Topology, c *color.Coloring, k color.Color) map[color.Color][][]int {
	out := make(map[color.Color][][]int)
	for col := range c.Counts() {
		if col == k || col == color.None {
			continue
		}
		if bs := KBlocks(topo, c, col); len(bs) > 0 {
			out[col] = bs
		}
	}
	return out
}
