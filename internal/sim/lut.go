package sim

import "repro/internal/color"

// maxLUTRadix bounds the palettes a rule is compiled for: a table over the
// palette [0, k) has k⁵ one-byte entries, 59,049 at the bound (colors up to
// 8, None included).
const maxLUTRadix = 9

// lut is a degree-4 rule compiled into a lookup table over the palette
// [0, k): the rule's output for a vertex of color c whose four neighbors
// read a, b, x, y (in CSR row order) is next[(((c·k+a)·k+b)·k+x)·k+y].  The
// table replaces the branchy Counts tally with one indexed load per vertex.
//
// A table is only ever handed out for a palette the rule maps into itself
// (checked entry by entry at compile time), so a run whose initial colors
// lie in [0, k) can never index outside it.
type lut struct {
	k    int
	next []uint8
}

// at applies the compiled rule to one vertex.
func (t *lut) at(cv, a, b, x, y color.Color) color.Color {
	k := color.Color(t.k)
	return color.Color(t.next[(((cv*k+a)*k+b)*k+x)*k+y])
}

// compileLUT tabulates rule.Next — the reference semantics — over every
// ordered four-neighbor input drawn from [0, k).  It returns a table with a
// nil next when some output falls outside the palette.
func compileLUT(next func(color.Color, []color.Color) color.Color, k int) *lut {
	t := &lut{k: k, next: make([]uint8, k*k*k*k*k)}
	var ns [4]color.Color
	for i := range t.next {
		r := i
		for j := 3; j >= 0; j-- {
			ns[j] = color.Color(r % k)
			r /= k
		}
		out := next(color.Color(r), ns[:])
		if out < 0 || int(out) >= k {
			return &lut{k: k}
		}
		t.next[i] = uint8(out)
	}
	return t
}

// lutForTop returns the engine's compiled table for the palette [0, top],
// or nil when a run over that palette must take the generic loops: the
// substrate is not dense degree-4, top is negative (some color lies outside
// every palette) or at least maxLUTRadix, or the rule maps some input of the
// palette outside it.  Tables (and the "not closed" verdicts) are compiled
// once per palette and cached on the engine.
func (e *Engine) lutForTop(top int) *lut {
	if !e.deg4 || top < 0 || top >= maxLUTRadix {
		return nil
	}
	k := top + 1
	t := e.luts[k].Load()
	if t == nil {
		e.luts[k].CompareAndSwap(nil, compileLUT(e.rule.Next, k))
		t = e.luts[k].Load()
	}
	if t.next == nil {
		return nil
	}
	return t
}

// lutForCells is lutForTop over the smallest palette holding every color of
// cells and every color in [0, minTop]: the per-run table choice of the
// sharded and stochastic steppers (noisy runs pass their fault palette as
// minTop, since a fault may introduce a color the coloring lacks).
func (e *Engine) lutForCells(cells []color.Color, minTop int) *lut {
	top := minTop
	for _, c := range cells {
		if c < 0 {
			top = -1
			break
		}
		top = max(top, int(c))
	}
	return e.lutForTop(top)
}

// stepRangeLUT is the table inner loop over a dense degree-4 neighbor
// table: vertices [lo, hi) read cur and write next, and the count of
// changed vertices is returned.
func stepRangeLUT(t *lut, fwd []int32, cur, next []color.Color, lo, hi int) int {
	changed := 0
	for v := lo; v < hi; v++ {
		n := fwd[4*v : 4*v+4 : 4*v+4]
		cv := cur[v]
		nc := t.at(cv, cur[n[0]], cur[n[1]], cur[n[2]], cur[n[3]])
		next[v] = nc
		if nc != cv {
			changed++
		}
	}
	return changed
}
