package blocks_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"repro/internal/blocks"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/grid"
)

// oracleCheckTightPadding is the map-based form of blocks.CheckTightPadding
// the one-pass version replaced: a Counts map, one forest pass per color
// class, a map of seen colors per vertex.  It names the cyclic class in map
// order, so only the kind of its verdict is compared.
func oracleCheckTightPadding(topo grid.Topology, c *color.Coloring, k color.Color) error {
	counts := c.Counts()
	for col := range counts {
		if col == color.None {
			return fmt.Errorf("blocks: vertex with unset color present")
		}
		if col == k {
			continue
		}
		if !oracleIsForest(topo, c, col) {
			return fmt.Errorf("blocks: color class %v is not a forest", col)
		}
	}
	d := c.Dims()
	var buf [grid.Degree]int
	for v := 0; v < c.N(); v++ {
		own := c.At(v)
		if own == k {
			continue
		}
		seen := make(map[color.Color]bool, grid.Degree)
		for _, u := range topo.Neighbors(v, buf[:0]) {
			cu := c.At(u)
			if cu == k || cu == own {
				continue
			}
			if seen[cu] {
				return fmt.Errorf("blocks: vertex %v (color %v) has two neighbors of color %v",
					d.Coord(v), own, cu)
			}
			seen[cu] = true
		}
	}
	return nil
}

// oracleIsForest is the per-class union-find over an n-entry membership
// slice that blocks.IsForest replaced.
func oracleIsForest(topo grid.Topology, c *color.Coloring, k color.Color) bool {
	n := c.N()
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	find := func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	var buf [grid.Degree]int
	for v := 0; v < n; v++ {
		if c.At(v) != k {
			continue
		}
		for _, u := range grid.UniqueNeighbors(topo, v, buf[:0]) {
			if c.At(u) != k || u < v {
				continue
			}
			ru, rv := find(u), find(v)
			if ru == rv {
				return false
			}
			parent[ru] = rv
		}
	}
	return true
}

// verdictKind classifies a CheckTightPadding result by the condition it
// names.
func verdictKind(err error) string {
	switch {
	case err == nil:
		return "ok"
	case strings.Contains(err.Error(), "unset color"):
		return "unset"
	case strings.Contains(err.Error(), "is not a forest"):
		return "forest"
	case strings.Contains(err.Error(), "two neighbors of color"):
		return "repeat"
	}
	return "unknown: " + err.Error()
}

// compareWithOracle requires blocks.CheckTightPadding and the oracle to
// agree on the coloring, and blocks.IsForest to agree with oracleIsForest
// on every class.  With an unset cell present the oracle may report a
// cyclic class first (map order); the one-pass check must say "unset".
func compareWithOracle(t *testing.T, name string, topo grid.Topology, c *color.Coloring, k color.Color) string {
	t.Helper()
	got, want := blocks.CheckTightPadding(topo, c, k), oracleCheckTightPadding(topo, c, k)
	gk, wk := verdictKind(got), verdictKind(want)
	if slices.Contains(c.Cells(), color.None) {
		if gk != "unset" || want == nil {
			t.Fatalf("%s: got %v, oracle %v; want both to reject the unset cell", name, got, want)
		}
	} else if gk != wk {
		t.Fatalf("%s: got %v (%s), oracle %v (%s)\n%v", name, got, gk, want, wk, c)
	}
	for col := range c.Counts() {
		if g, w := blocks.IsForest(topo, c, col), oracleIsForest(topo, c, col); g != w {
			t.Fatalf("%s: IsForest(class %v) = %v, oracle %v\n%v", name, col, g, w, c)
		}
	}
	return gk
}

var allKinds = []grid.Kind{grid.KindToroidalMesh, grid.KindTorusCordalis, grid.KindTorusSerpentinus}

// structuredPaddings returns the tight constructions (and the full cross,
// comb and 2-wide paddings) on every torus, small enough to mutate cell by
// cell.
func structuredPaddings() []*dynamo.Construction {
	var out []*dynamo.Construction
	add := func(c *dynamo.Construction, err error) {
		if err == nil {
			out = append(out, c)
		}
	}
	for _, kind := range allKinds {
		for _, sz := range [][2]int{{4, 4}, {5, 5}, {6, 6}, {6, 9}, {9, 6}, {7, 8}, {12, 12}} {
			for k := 4; k <= 7; k++ {
				add(dynamo.Minimum(kind, sz[0], sz[1], 1, color.MustPalette(k)))
			}
		}
		add(dynamo.CombUpperBound(kind, 6, 5, 1, color.MustPalette(4)))
	}
	for _, sz := range [][2]int{{2, 5}, {6, 2}, {2, 2}, {3, 3}, {3, 7}} {
		for k := 3; k <= 5; k++ {
			add(dynamo.SmallTorus(sz[0], sz[1], 1, color.MustPalette(k)))
			add(dynamo.FullCross(sz[0], sz[1], 1, color.MustPalette(k+1)))
		}
	}
	return out
}

func TestCheckTightPaddingMatchesOracleOnStructuredPaddings(t *testing.T) {
	paddings := structuredPaddings()
	if len(paddings) < 80 {
		t.Fatalf("only %d structured paddings built", len(paddings))
	}
	kinds := map[string]int{}
	for _, c := range paddings {
		topo, full := c.Topology, c.Coloring
		name := fmt.Sprintf("%s %v", c.Name, topo.Dims())
		kinds[compareWithOracle(t, name, topo, full, c.Target)]++
		// Every single-cell mutation to every palette color (and unset).
		for v := 0; v < full.N(); v++ {
			orig := full.At(v)
			for x := color.None; int(x) <= c.Palette.K; x++ {
				if x == orig {
					continue
				}
				full.Set(v, x)
				kinds[compareWithOracle(t, fmt.Sprintf("%s cell %d -> %v", name, v, x), topo, full, c.Target)]++
			}
			full.Set(v, orig)
		}
	}
	for _, want := range []string{"ok", "unset", "forest", "repeat"} {
		if kinds[want] == 0 {
			t.Errorf("no case produced verdict %q (verdicts %v)", want, kinds)
		}
	}
}

func TestCheckTightPaddingMatchesOracleOnRandomColorings(t *testing.T) {
	rnd := rand.New(rand.NewPCG(16, 1))
	kinds := map[string]int{}
	for _, kind := range allKinds {
		for _, sz := range [][2]int{{2, 2}, {2, 3}, {3, 2}, {2, 7}, {3, 3}, {3, 5}, {5, 3}, {4, 4}, {5, 6}, {8, 8}} {
			dims := grid.MustDims(sz[0], sz[1])
			topo := grid.MustNew(kind, sz[0], sz[1])
			for trial := 0; trial < 200; trial++ {
				k := 2 + rnd.IntN(12)
				c := color.NewColoring(dims, color.None)
				for v := 0; v < c.N(); v++ {
					c.Set(v, color.Color(1+rnd.IntN(k)))
				}
				if trial%10 == 0 {
					c.Set(rnd.IntN(c.N()), color.None)
				}
				name := fmt.Sprintf("%v %v trial %d", kind, dims, trial)
				kinds[compareWithOracle(t, name, topo, c, color.Color(1+rnd.IntN(k)))]++
			}
		}
	}
	for _, want := range []string{"ok", "unset", "forest", "repeat"} {
		if kinds[want] == 0 {
			t.Errorf("no random coloring produced verdict %q (verdicts %v)", want, kinds)
		}
	}
}

func FuzzCheckTightPadding(f *testing.F) {
	for i, c := range structuredPaddings() {
		if c.Coloring.N() > 64 {
			continue
		}
		d := c.Topology.Dims() // the fuzz body adds 2 back to each side
		cells := make([]byte, c.Coloring.N())
		for v, x := range c.Coloring.Cells() {
			cells[v] = byte(x)
		}
		f.Add(byte(c.Topology.Kind()), byte(d.Rows-2), byte(d.Cols-2), byte(c.Target), cells)
		if i%3 == 0 {
			mutated := slices.Clone(cells)
			mutated[i%len(mutated)] = byte(1 + i%c.Palette.K)
			f.Add(byte(c.Topology.Kind()), byte(d.Rows-2), byte(d.Cols-2), byte(c.Target), mutated)
		}
	}
	f.Fuzz(func(t *testing.T, kind, rows, cols, k byte, cells []byte) {
		m, n := 2+int(rows%11), 2+int(cols%11)
		topo := grid.MustNew(allKinds[int(kind)%len(allKinds)], m, n)
		c := color.NewColoring(topo.Dims(), color.None)
		for v := 0; v < c.N() && v < len(cells); v++ {
			c.Set(v, color.Color(cells[v]%16))
		}
		compareWithOracle(t, fmt.Sprintf("%v", topo.Dims()), topo, c, color.Color(k%16))
	})
}
