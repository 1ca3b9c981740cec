package rules

import (
	"fmt"

	"repro/internal/color"
	"repro/internal/rng"
)

// Fault-draw stream tags: the final Hash coordinate that separates the
// "did this vertex misfire?" draw from the "which color did it take?" draw,
// so the two are statistically independent for the same (round, vertex).
const (
	faultTagDraw  = 1
	faultTagColor = 2
)

// FaultDraw injects an ε-fault into an already-computed next color: with
// probability eps the (round, vertex) application misfires and returns a
// uniformly random color from the palette {1..k} instead of next.  The draw
// is counter-based — a pure function of (seed, round, vertex) via rng.Hash —
// so the same coordinates misfire identically under any worker count,
// kernel tier or checkpoint/resume boundary.  It is FaultRound for a single
// vertex; FaultRound is the one definition of the noise model, shared by
// the Faulty rule decorator and the engine's stochastic steppers.
func FaultDraw(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
	return NewFaultRound(seed, round, eps, k).Apply(v, next)
}

// FaultRound is the ε-fault draw of one round with everything that does not
// depend on the vertex computed once: the Hash state through (seed, round),
// both tag keys and the integer fault threshold.  The draw for vertex v is
// then rng.Hash(seed, round, v, faultTagDraw) — 3 Mix finalizers instead of
// 7 — and a faulted vertex pays one more for rng.Hash(seed, round, v,
// faultTagColor).  The zero value never faults.
type FaultRound struct {
	prefix             uint64
	drawKey, colorKey  uint64
	threshold, palette uint64
}

// NewFaultRound prepares the fault draw of one round: with probability eps
// (non-NaN, in [0, 1]; at or below 0 never faults) a vertex's application
// misfires to a uniform color of {1..k} (k < 1 never faults).
func NewFaultRound(seed, round uint64, eps float64, k int) FaultRound {
	if !(eps > 0) || k < 1 {
		return FaultRound{}
	}
	return FaultRound{
		prefix:   rng.HashNext(rng.HashStart(seed), 0, rng.HashKey(round)),
		drawKey:  rng.HashKey(faultTagDraw),
		colorKey: rng.HashKey(faultTagColor),
		// A vertex misfires when rng.Unit(h) < eps, that is when
		// h>>11 < ⌈eps·2⁵³⌉.
		threshold: rng.UnitThreshold(eps),
		palette:   uint64(k),
	}
}

// Apply returns next, or a uniform palette color when vertex v misfires
// this round.
func (f FaultRound) Apply(v uint64, next color.Color) color.Color {
	if f.threshold == 0 {
		return next
	}
	hv := rng.HashNext(f.prefix, 1, rng.HashKey(v))
	if rng.HashNext(hv, 2, f.drawKey)>>11 >= f.threshold {
		return next
	}
	return color.Color(1 + rng.HashNext(hv, 2, f.colorKey)%f.palette)
}

// Faulty is the ε-faulty decorator over a CountRule: each application of the
// inner rule independently misfires with probability Eps, replacing the
// computed color with a uniform draw from the palette {1..K}.  It models the
// transient faults of the fault-tolerance literature the paper points at —
// a processor that computes the majority correctly but occasionally writes
// a garbled value.
//
// The Rule/CountRule methods delegate to the inner rule noise-free: they
// receive no (round, vertex) coordinates, and the noise model is defined
// per application, not per neighborhood multiset.  The coordinate-aware
// forms NextAt/NextFromCountsAt inject the fault; the simulation engine
// drives those (via FaultDraw) when a run carries a Noise option.
type Faulty struct {
	// Inner is the noise-free decision rule.
	Inner CountRule
	// Eps is the per-application fault probability in [0, 1].
	Eps float64
	// K is the palette size: faulted applications draw uniformly from {1..K}.
	K int
	// Seed selects the fault stream.  Two runs with the same seed (and spec)
	// misfire at exactly the same (round, vertex) coordinates.
	Seed uint64
}

// Name returns "faulty-<inner>", e.g. "faulty-smp".
func (r Faulty) Name() string { return "faulty-" + r.Inner.Name() }

// Next delegates to the inner rule without noise; see the type comment.
func (r Faulty) Next(current color.Color, neighbors []color.Color) color.Color {
	return r.Inner.Next(current, neighbors)
}

// NextFromCounts delegates to the inner rule without noise.
func (r Faulty) NextFromCounts(current color.Color, cs Counts) color.Color {
	return r.Inner.NextFromCounts(current, cs)
}

// NextAt applies the inner rule and then the ε-fault draw for the given
// (round, vertex) application.
func (r Faulty) NextAt(round, v uint64, current color.Color, neighbors []color.Color) color.Color {
	return FaultDraw(r.Seed, round, v, r.Eps, r.K, r.Inner.Next(current, neighbors))
}

// NextFromCountsAt is the counts fast path of NextAt.
func (r Faulty) NextFromCountsAt(round, v uint64, current color.Color, cs Counts) color.Color {
	return FaultDraw(r.Seed, round, v, r.Eps, r.K, r.Inner.NextFromCounts(current, cs))
}

// Validate reports whether the decorator's parameters are usable.
func (r Faulty) Validate() error {
	if r.Inner == nil {
		return fmt.Errorf("rules: Faulty with nil inner rule")
	}
	if !(r.Eps >= 0 && r.Eps <= 1) {
		return fmt.Errorf("rules: Faulty eps %v outside [0, 1]", r.Eps)
	}
	if r.K < 1 {
		return fmt.Errorf("rules: Faulty palette size %d < 1", r.K)
	}
	return nil
}
