package blocks

import (
	"slices"

	"repro/internal/color"
	"repro/internal/grid"
)

// IsForest reports whether the subgraph induced by the vertices of color k
// is acyclic (a forest) on the simple graph.  The tight constructions
// (Theorem 2, 4, 6) require every non-k color class to be a forest.
func IsForest(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	cells := c.Cells()
	f := NewForest(len(cells))
	var buf [grid.Degree]int
	for v, col := range cells {
		if col == k && f.closesCycle(topo.Neighbors(v, buf[:0]), cells, v) {
			return false
		}
	}
	return true
}

// Forest is a union-find over the vertices of a coloring whose edges only
// ever join equally colored endpoints.  Every component therefore stays
// inside one color class, and a single Forest tracks any number of classes
// at once: the padding check tests them all in one pass, and the padding
// solver keeps every class acyclic while it assigns colors.
type Forest []int32

// NewForest returns a forest of n singleton vertices.
func NewForest(n int) Forest {
	f := make(Forest, n)
	f.Reset()
	return f
}

// Reset makes every vertex a singleton again.
func (f Forest) Reset() {
	for i := range f {
		f[i] = int32(i)
	}
}

// Find returns the root of x's component.
func (f Forest) Find(x int) int {
	r := int32(x)
	for f[r] != r {
		f[r] = f[f[r]]
		r = f[r]
	}
	return int(r)
}

// Union joins the components of a and b and reports whether they were
// distinct; false means the edge (a, b) closes a cycle.
func (f Forest) Union(a, b int) bool {
	ra, rb := f.Find(a), f.Find(b)
	if ra == rb {
		return false
	}
	f[ra] = int32(rb)
	return true
}

// closesCycle adds the edges from v to its neighbors ns (the ports of v;
// repeated ports collapse to one edge) that share v's color and have an
// index of at least v, so that every edge of the simple graph is added
// once over a pass in increasing v.  It reports whether one of them joined
// two vertices that were already connected, i.e. closed a cycle.
func (f Forest) closesCycle(ns []int, cells []color.Color, v int) bool {
	own := cells[v]
	for i, u := range ns {
		if u < v || cells[u] != own || slices.Contains(ns[:i], u) {
			continue
		}
		if !f.Union(u, v) {
			return true
		}
	}
	return false
}
