package dynamo

import (
	"fmt"

	"repro/internal/blocks"
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
)

// The padding generators color the vertices outside the seed Sk so that the
// hypotheses of the tight constructions hold:
//
//   - every non-k color class induces a forest;
//   - no non-k vertex sees two neighbors of the same "other" color (a color
//     different from k and from its own);
//   - no k-colored seed vertex can ever be persuaded away from k (which, for
//     the SMP rule, means that a seed vertex with three or four non-k
//     neighbors sees pairwise distinct colors on them).
//
// Two families are provided: structured cyclic paddings (constant color per
// row or per column, cycling with a period of at least three) that match the
// repeating pattern of the paper's Figure 2, and a randomized greedy solver
// used when the structured pattern cannot satisfy the constraints for a
// particular size/palette combination.

// FillCyclicRows assigns to every unset vertex the color others[(row-1) mod q],
// i.e. a constant color per row cycling with period q.  Rows are counted from
// row 1 so that a seed occupying row 0 sees the cycle start right below it.
func FillCyclicRows(c *color.Coloring, others []color.Color, q int) {
	if q < 1 || q > len(others) {
		panic(fmt.Sprintf("dynamo: cyclic row period %d out of range (have %d colors)", q, len(others)))
	}
	d := c.Dims()
	for i := 0; i < d.Rows; i++ {
		col := others[((i-1)%q+q)%q]
		for j := 0; j < d.Cols; j++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, col)
			}
		}
	}
}

// FillCyclicCols is the column-constant analogue of FillCyclicRows.
func FillCyclicCols(c *color.Coloring, others []color.Color, q int) {
	if q < 1 || q > len(others) {
		panic(fmt.Sprintf("dynamo: cyclic column period %d out of range (have %d colors)", q, len(others)))
	}
	d := c.Dims()
	for j := 0; j < d.Cols; j++ {
		col := others[((j-1)%q+q)%q]
		for i := 0; i < d.Rows; i++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, col)
			}
		}
	}
}

// chooseCyclePeriod picks a cycle period q in [3, maxQ] such that
// (span-2) mod q != 0, which is the condition under which the cyclic padding
// avoids equal colors meeting across the seed row/column of the spiral
// constructions.  It returns 0 when no such period exists.
func chooseCyclePeriod(span, maxQ int) int {
	for q := 3; q <= maxQ; q++ {
		if (span-2)%q != 0 {
			return q
		}
	}
	return 0
}

// A "window-3 rainbow" sequence assigns one color per row (or column) such
// that any three consecutive entries are pairwise distinct.  Filling the
// torus with constant rows (columns) following such a sequence makes every
// vertex see two different colors on its two off-row (off-column) neighbors,
// which is exactly the "different colors" hypothesis of Theorems 2, 4 and 6.
// The spiral constructions need the cyclic variant (the sequence wraps); the
// mesh construction needs the path variant with additional constraints at
// the seed's missing corner.

// searchRainbow runs a small backtracking search for a sequence of the given
// length over the given colors.  ok(i, prefix) must report whether the
// prefix of length i+1 is still viable; done(seq) performs the final
// acceptance test.  Candidates are tried in cycling order (others rotated by
// the position index) so the canonical a,b,c,a,b,c… pattern is found first
// whenever it is feasible.
func searchRainbow(length int, others []color.Color, ok func(i int, prefix []color.Color) bool, done func(seq []color.Color) bool) ([]color.Color, bool) {
	if length <= 0 {
		return nil, false
	}
	const nodeCap = 500000
	seq := make([]color.Color, length)
	L := len(others)
	nodes := 0
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == length {
			return done(seq)
		}
		for off := 0; off < L; off++ {
			nodes++
			if nodes > nodeCap {
				return false
			}
			seq[i] = others[(i+off)%L]
			if ok(i, seq[:i+1]) && rec(i+1) {
				return true
			}
		}
		return false
	}
	if rec(0) {
		return seq, true
	}
	return nil, false
}

// CycleRainbowSequence returns a cyclic window-3 rainbow sequence of the
// given length over the given colors (any three cyclically consecutive
// entries are pairwise distinct), or ok=false if none exists — e.g. length 5
// needs five colors, and with three colors only multiples of three work.
func CycleRainbowSequence(length int, others []color.Color) ([]color.Color, bool) {
	if length < 3 {
		return nil, false
	}
	ok := func(i int, prefix []color.Color) bool {
		c := prefix[i]
		if i >= 1 && prefix[i-1] == c {
			return false
		}
		if i >= 2 && prefix[i-2] == c {
			return false
		}
		return true
	}
	done := func(seq []color.Color) bool {
		n := len(seq)
		// wrap windows: (n-2, n-1, 0) and (n-1, 0, 1)
		return seq[n-1] != seq[0] && seq[n-2] != seq[0] && seq[n-1] != seq[1]
	}
	return searchRainbow(length, others, ok, done)
}

// PathRainbowSequence returns a path window-3 rainbow sequence of the given
// length over the given colors satisfying the extra end conditions of the
// Theorem 2 construction:
//
//   - the first and last entries differ (they meet at the seed's concave
//     corner, the k-vertex next to the missing seed vertex);
//   - some color X remains outside {seq[0], seq[1], seq[len-2], seq[len-1]}
//     for the missing corner vertex itself.
//
// It returns the sequence, the corner color X, and ok=false when no such
// sequence exists (for example with three non-target colors and
// length ≡ 1 (mod 3)).
func PathRainbowSequence(length int, others []color.Color) ([]color.Color, color.Color, bool) {
	if length < 2 {
		// A single padding row cannot satisfy the corner constraints; the
		// callers never request it (they require tori of at least three
		// rows and columns).
		return nil, color.None, false
	}
	ok := func(i int, prefix []color.Color) bool {
		c := prefix[i]
		if i >= 1 && prefix[i-1] == c {
			return false
		}
		if i >= 2 && prefix[i-2] == c {
			return false
		}
		return true
	}
	var corner color.Color
	done := func(seq []color.Color) bool {
		n := len(seq)
		if seq[0] == seq[n-1] {
			return false
		}
		forbidden := map[color.Color]bool{seq[0]: true, seq[1]: true, seq[n-2]: true, seq[n-1]: true}
		for _, c := range others {
			if !forbidden[c] {
				corner = c
				return true
			}
		}
		return false
	}
	seq, found := searchRainbow(length, others, ok, done)
	if !found {
		return nil, color.None, false
	}
	return seq, corner, true
}

// FillRowSequence assigns seq[i-1] to every unset vertex of row i, for
// i = 1..len(seq); row 0 is left untouched (it belongs to the seed).
func FillRowSequence(c *color.Coloring, seq []color.Color) {
	d := c.Dims()
	for i := 1; i <= len(seq) && i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, seq[i-1])
			}
		}
	}
}

// FillColSequence assigns seq[j-1] to every unset vertex of column j, for
// j = 1..len(seq); column 0 is left untouched.
func FillColSequence(c *color.Coloring, seq []color.Color) {
	d := c.Dims()
	for j := 1; j <= len(seq) && j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, seq[j-1])
			}
		}
	}
}

// FillColSequenceAll assigns seq[j] to every unset vertex of column j for
// j = 0..len(seq)-1 (used by the spiral constructions, whose seed occupies a
// row, so every column contains padding vertices).
func FillColSequenceAll(c *color.Coloring, seq []color.Color) {
	d := c.Dims()
	for j := 0; j < len(seq) && j < d.Cols; j++ {
		for i := 0; i < d.Rows; i++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, seq[j])
			}
		}
	}
}

// FillRowSequenceAll assigns seq[i] to every unset vertex of row i for
// i = 0..len(seq)-1.
func FillRowSequenceAll(c *color.Coloring, seq []color.Color) {
	d := c.Dims()
	for i := 0; i < len(seq) && i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if c.AtRC(i, j) == color.None {
				c.SetRC(i, j, seq[i])
			}
		}
	}
}

// solver implements the randomized greedy padding search.
type solver struct {
	topo   grid.Topology
	c      *color.Coloring
	k      color.Color
	others []color.Color
	// forest keeps every color class acyclic while assigning greedily: an
	// assignment only links equally colored neighbors, so one union-find
	// serves all classes.
	forest blocks.Forest
}

// paddingConstraintsOK checks every local (non-forest) constraint that
// assigning color x to vertex v could violate, looking only at
// already-assigned vertices (later assignments re-check the same constraints
// from their own side, so the final configuration satisfies them globally):
//
//   - at v itself, no color outside {k, x} may appear twice among assigned
//     neighbors;
//   - at every k-colored (seed) neighbor with three or four non-seed ports,
//     the assigned non-seed colors plus x must be pairwise distinct, so the
//     seed vertex can never be persuaded away from k;
//   - at every assigned non-k neighbor u, x must not become a second
//     occurrence of a color outside {k, c(u)}.
func paddingConstraintsOK(topo grid.Topology, c *color.Coloring, k color.Color, v int, x color.Color) bool {
	var buf [grid.Degree]int
	ports := topo.Neighbors(v, buf[:0])

	var seen [grid.Degree]color.Color
	nSeen := 0
	for _, u := range ports {
		cu := c.At(u)
		if cu == color.None || cu == k || cu == x {
			continue
		}
		for i := 0; i < nSeen; i++ {
			if seen[i] == cu {
				return false
			}
		}
		seen[nSeen] = cu
		nSeen++
	}

	var ubuf [grid.Degree]int
	for _, u := range ports {
		cu := c.At(u)
		switch {
		case cu == k:
			uports := topo.Neighbors(u, ubuf[:0])
			nonSeed := 0
			for _, w := range uports {
				if c.At(w) != k {
					nonSeed++
				}
			}
			if nonSeed <= 2 {
				continue
			}
			dupes := 0
			for _, w := range uports {
				if w == v {
					dupes++ // v itself will carry x
					continue
				}
				if c.At(w) == x {
					dupes++
				}
			}
			if dupes > 1 {
				return false
			}
		case cu != color.None:
			if x == cu {
				continue
			}
			occurrences := 0
			for _, w := range topo.Neighbors(u, ubuf[:0]) {
				if w == v {
					occurrences++
					continue
				}
				if c.At(w) == x {
					occurrences++
				}
			}
			if occurrences > 1 {
				return false
			}
		}
	}
	return true
}

// wouldCloseCycle reports whether coloring vertex v with x would close a
// cycle in the x color class, i.e. whether two of v's x-colored neighbors
// are already connected within the class.  It walks the class explicitly so
// it needs no auxiliary state and works inside the backtracking solver.
func wouldCloseCycle(topo grid.Topology, c *color.Coloring, v int, x color.Color) bool {
	var buf [grid.Degree]int
	var sameColor []int
	for _, u := range grid.UniqueNeighbors(topo, v, buf[:0]) {
		if c.At(u) == x {
			sameColor = append(sameColor, u)
		}
	}
	if len(sameColor) < 2 {
		return false
	}
	// BFS within the x class from the first neighbor; if it reaches any of
	// the others, adding v closes a cycle.
	targets := make(map[int]bool, len(sameColor)-1)
	for _, u := range sameColor[1:] {
		targets[u] = true
	}
	visited := map[int]bool{sameColor[0]: true}
	queue := []int{sameColor[0]}
	for len(queue) > 0 {
		w := queue[0]
		queue = queue[1:]
		if targets[w] {
			return true
		}
		for _, z := range grid.UniqueNeighbors(topo, w, buf[:0]) {
			if z != v && !visited[z] && c.At(z) == x {
				visited[z] = true
				queue = append(queue, z)
			}
		}
	}
	return false
}

// candidateOK combines the local constraints with the incremental (DSU)
// forest check used by the greedy solver.
func (s *solver) candidateOK(v int, x color.Color) bool {
	if !paddingConstraintsOK(s.topo, s.c, s.k, v, x) {
		return false
	}
	var buf, rootBuf [grid.Degree]int
	roots := rootBuf[:0]
	for _, u := range grid.UniqueNeighbors(s.topo, v, buf[:0]) {
		if s.c.At(u) != x {
			continue
		}
		r := s.forest.Find(u)
		for _, seenRoot := range roots {
			if seenRoot == r {
				return false
			}
		}
		roots = append(roots, r)
	}
	return true
}

func (s *solver) assign(v int, x color.Color) {
	s.c.Set(v, x)
	var buf [grid.Degree]int
	for _, u := range grid.UniqueNeighbors(s.topo, v, buf[:0]) {
		if s.c.At(u) == x && u != v {
			s.forest.Union(v, u)
		}
	}
}

// backtrackPadding performs an exhaustive depth-first search over the unset
// vertices (with a node cap) using the same constraints as the greedy
// solver.  It is used as a last resort for small tori where the greedy
// heuristics paint themselves into a corner but valid paddings exist.
func backtrackPadding(topo grid.Topology, c *color.Coloring, k color.Color, others []color.Color, unset []int) bool {
	const nodeCap = 2_000_000
	d := c.Dims()
	L := len(others)
	nodes := 0
	var rec func(idx int) bool
	rec = func(idx int) bool {
		if idx == len(unset) {
			return true
		}
		v := unset[idx]
		pref := ((d.Coord(v).Row-1)%L + L) % L
		for off := 0; off < L; off++ {
			nodes++
			if nodes > nodeCap {
				return false
			}
			x := others[(pref+off)%L]
			if !paddingConstraintsOK(topo, c, k, v, x) || wouldCloseCycle(topo, c, v, x) {
				continue
			}
			c.Set(v, x)
			if rec(idx + 1) {
				return true
			}
			c.Set(v, color.None)
		}
		return false
	}
	return rec(0)
}

// SolvePadding colors every unset vertex of seed with a color from
// palette\{k} so that the tight-construction hypotheses hold.  The seed's
// k-colored vertices are left untouched.  The search is a randomized greedy
// assignment with restarts; it returns an error if no valid padding is found
// within maxAttempts restarts.
//
// The result is validated with blocks.CheckTightPadding before being
// returned, so a nil error guarantees the theorem hypotheses hold.
func SolvePadding(topo grid.Topology, seed *color.Coloring, k color.Color, p color.Palette, src *rng.Source, maxAttempts int) (*color.Coloring, error) {
	if !p.Contains(k) {
		return nil, fmt.Errorf("dynamo: target color %v outside palette %v", k, p)
	}
	others := p.Others(k)
	if len(others) == 0 {
		return nil, fmt.Errorf("dynamo: palette %v has no color besides the target", p)
	}
	if src == nil {
		src = rng.New(1)
	}
	if maxAttempts <= 0 {
		maxAttempts = 64
	}

	var unset []int
	for v := 0; v < seed.N(); v++ {
		switch seed.At(v) {
		case color.None:
			unset = append(unset, v)
		case k:
			// part of the seed
		default:
			return nil, fmt.Errorf("dynamo: seed already contains non-target color %v at vertex %d", seed.At(v), v)
		}
	}

	// The first batches of attempts are structured: every vertex prefers the
	// color of a row-cycling (then column-cycling) pattern, falling back to
	// the other colors in rotation.  This reproduces the repeating pattern of
	// the paper's Figure 2 wherever it is feasible and only deviates locally
	// (near the seed's missing corner) where the constraints demand it.
	// Later attempts randomize the candidate order per vertex.
	L := len(others)
	d := seed.Dims()
	candidates := make([]color.Color, L)
	var lastErr error
	c := seed.Clone()
	s := &solver{topo: topo, c: c, k: k, others: others, forest: blocks.NewForest(c.N())}
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 { // start over from the seed
			copy(c.Cells(), seed.Cells())
			s.forest.Reset()
		}
		ok := true
		for _, v := range unset {
			switch {
			case attempt < L: // row-cycling preference
				pref := (((d.Coord(v).Row-1)%L+L)%L + attempt) % L
				for off := 0; off < L; off++ {
					candidates[off] = others[(pref+off)%L]
				}
			case attempt < 2*L: // column-cycling preference
				pref := (((d.Coord(v).Col-1)%L+L)%L + attempt) % L
				for off := 0; off < L; off++ {
					candidates[off] = others[(pref+off)%L]
				}
			default: // randomized
				copy(candidates, others)
				src.Shuffle(L, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
			}
			assigned := false
			for _, x := range candidates {
				if s.candidateOK(v, x) {
					s.assign(v, x)
					assigned = true
					break
				}
			}
			if !assigned {
				ok = false
				break
			}
		}
		if !ok {
			lastErr = fmt.Errorf("dynamo: greedy padding got stuck (attempt %d)", attempt+1)
			continue
		}
		if err := blocks.CheckTightPadding(topo, c, k); err != nil {
			lastErr = fmt.Errorf("dynamo: padding failed validation: %w", err)
			continue
		}
		return c, nil
	}

	// Last resort for small tori: exhaustive backtracking over the unset
	// vertices.  The greedy heuristics occasionally corner themselves even
	// when a valid padding exists (for example a 4x4 mesh with exactly four
	// colors); the bounded DFS settles the question.
	if len(unset) <= 150 {
		c := seed.Clone()
		if backtrackPadding(topo, c, k, others, unset) {
			if err := blocks.CheckTightPadding(topo, c, k); err == nil {
				return c, nil
			}
		}
	}
	return nil, fmt.Errorf("dynamo: no valid padding found with %d colors after %d attempts: %w",
		p.K, maxAttempts, lastErr)
}
