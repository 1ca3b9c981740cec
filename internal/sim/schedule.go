package sim

import (
	"errors"
	"fmt"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// ErrStochasticSweepOnly is the error (wrapped) returned by stochastic runs —
// a non-synchronous Schedule or an active Noise — that force an incremental
// or batch kernel.  The frontier and bitplane tiers assume a vertex can only
// change when a neighbor changed color in the previous round; under a masked
// schedule a skipped vertex must still be re-evaluated when its clock fires,
// and under noise any vertex can misfire at any round.  The in-place
// (sequential) schedules commit updates within a sweep, so they also reject
// the sharded tier.  Stochastic runs always sweep every vertex every round
// (or every vertex once per sweep, for the sequential schedules).
var ErrStochasticSweepOnly = errors.New("sim: stochastic runs require full-sweep semantics")

// ScheduleKind identifies an update discipline of the engine.
type ScheduleKind int

const (
	// ScheduleSynchronous is the paper's execution model and the default:
	// every vertex applies the rule every round, all simultaneously.
	ScheduleSynchronous ScheduleKind = iota
	// ScheduleUniformAsync activates each vertex independently with
	// probability P each round (the α-asynchronous model): active vertices
	// apply the rule simultaneously to the previous configuration, inactive
	// vertices keep their color.
	ScheduleUniformAsync
	// ScheduleSequential visits every vertex once per round in raster order,
	// committing each new color immediately so later vertices observe earlier
	// updates.
	ScheduleSequential
	// ScheduleRandomSequential is ScheduleSequential with a fresh seeded
	// permutation each round.
	ScheduleRandomSequential
	// ScheduleVertexClock gives each vertex its own deterministic clock: a
	// per-vertex period in {1..Period} and phase, both derived from Seed, and
	// the vertex applies the rule only on rounds matching its phase.  It
	// models heterogeneous update rates without any shared clock.
	ScheduleVertexClock
)

// String returns the schedule name used in specs and experiment tables.
func (k ScheduleKind) String() string {
	switch k {
	case ScheduleSynchronous:
		return "synchronous"
	case ScheduleUniformAsync:
		return "uniform-async"
	case ScheduleSequential:
		return "sequential"
	case ScheduleRandomSequential:
		return "random-sequential"
	case ScheduleVertexClock:
		return "vertex-clock"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ParseScheduleKind resolves a schedule name ("" means synchronous), the
// inverse of String.
func ParseScheduleKind(name string) (ScheduleKind, error) {
	switch name {
	case "", "synchronous":
		return ScheduleSynchronous, nil
	case "uniform-async":
		return ScheduleUniformAsync, nil
	case "sequential":
		return ScheduleSequential, nil
	case "random-sequential":
		return ScheduleRandomSequential, nil
	case "vertex-clock":
		return ScheduleVertexClock, nil
	default:
		return ScheduleSynchronous, fmt.Errorf("sim: unknown schedule %q (want synchronous, uniform-async, sequential, random-sequential or vertex-clock)", name)
	}
}

// Schedule selects the update discipline of a run (Options.Schedule).  All
// randomness is counter-based — pure rng.Hash functions of (Seed, round,
// vertex) — so a schedule carries no mutable state: the same seed produces
// the same activation pattern under any worker count, any kernel tier and
// across any checkpoint/resume boundary.
type Schedule struct {
	// Kind is the update discipline; the zero value is synchronous.
	Kind ScheduleKind
	// P is the per-round activation probability of ScheduleUniformAsync, in
	// (0, 1]; zero selects the default 0.5.  Other kinds ignore it.
	P float64
	// Period bounds the per-vertex period of ScheduleVertexClock (each vertex
	// draws a period in {1..Period}); zero selects the default 4.  Other
	// kinds ignore it.
	Period int
	// Seed selects the activation stream (and the sweep permutations of
	// ScheduleRandomSequential).
	Seed uint64
}

// normalized returns the schedule with defaults filled in.
func (s Schedule) normalized() Schedule {
	if s.Kind == ScheduleUniformAsync && s.P == 0 {
		s.P = 0.5
	}
	if s.Kind == ScheduleVertexClock && s.Period == 0 {
		s.Period = 4
	}
	return s
}

// validate checks a normalized schedule.
func (s Schedule) validate() error {
	switch s.Kind {
	case ScheduleSynchronous, ScheduleSequential, ScheduleRandomSequential:
	case ScheduleUniformAsync:
		if !(s.P > 0 && s.P <= 1) {
			return fmt.Errorf("sim: uniform-async activation probability %v outside (0, 1]", s.P)
		}
	case ScheduleVertexClock:
		if s.Period < 1 {
			return fmt.Errorf("sim: vertex-clock period %d < 1", s.Period)
		}
	default:
		return fmt.Errorf("sim: unknown schedule kind %d", int(s.Kind))
	}
	return nil
}

// inPlace reports whether the schedule commits updates within a sweep
// (sequential kinds), which pins the run to one worker.
func (s Schedule) inPlace() bool {
	return s.Kind == ScheduleSequential || s.Kind == ScheduleRandomSequential
}

// roundMask is a masked schedule's activation test for one round, with
// everything that does not depend on the vertex computed once: the Hash
// state through (Seed, round) and the integer threshold for uniform-async
// (rng.Hash(Seed, round, v) then costs 2 Mix finalizers per vertex instead
// of 5), the Hash state through Seed for vertex-clock (rng.Hash(Seed, v),
// 2 instead of 3).  Every other kind activates every vertex.  The mask is a pure function of (Seed, round,
// vertex); see the Schedule documentation.
type roundMask struct {
	// async and clock select the test; neither means every vertex fires.
	async, clock bool
	prefix       uint64
	// threshold is rng.UnitThreshold(P) for uniform-async.
	threshold uint64
	// period and round drive the vertex-clock phase test.
	period, round uint64
}

// maskFor returns the schedule's activation mask for the given round.
func (s *Schedule) maskFor(round uint64) roundMask {
	switch s.Kind {
	case ScheduleUniformAsync:
		return roundMask{
			async:     true,
			prefix:    rng.HashNext(rng.HashStart(s.Seed), 0, rng.HashKey(round)),
			threshold: rng.UnitThreshold(s.P),
		}
	case ScheduleVertexClock:
		return roundMask{clock: true, prefix: rng.HashStart(s.Seed), period: uint64(s.Period), round: round}
	default:
		return roundMask{}
	}
}

// active reports whether global vertex v applies the rule this round.
func (m *roundMask) active(v uint64) bool {
	switch {
	case m.async:
		return rng.HashNext(m.prefix, 1, rng.HashKey(v))>>11 < m.threshold
	case m.clock:
		h := rng.HashNext(m.prefix, 0, rng.HashKey(v))
		period := 1 + h%m.period
		phase := (h >> 32) % period
		return m.round%period == phase
	default:
		return true
	}
}

// Noise makes every rule application ε-faulty (Options.Noise): with
// probability Eps the computed color is replaced by a uniform draw from the
// palette {1..Colors}.  The draw is rules.FaultDraw — counter-based on
// (Seed, round, vertex) — so a noisy run is exactly as reproducible as a
// deterministic one.
type Noise struct {
	// Eps is the per-application fault probability in [0, 1]; zero disables
	// the noise entirely.
	Eps float64
	// Colors is the palette size faulted applications draw from.
	Colors int
	// Seed selects the fault stream.
	Seed uint64
}

// validate checks an active noise model.
func (n Noise) validate() error {
	if !(n.Eps >= 0 && n.Eps <= 1) {
		return fmt.Errorf("sim: noise eps %v outside [0, 1]", n.Eps)
	}
	if n.Eps > 0 && n.Colors < 1 {
		return fmt.Errorf("sim: noise over a %d-color palette", n.Colors)
	}
	return nil
}

// top is the highest color a fault can draw (the lutForCells minTop of a
// noisy run), 0 without noise.
func (n *Noise) top() int {
	if n == nil {
		return 0
	}
	return n.Colors
}

// stochasticParams normalizes and validates the run's Schedule and Noise
// options.  It returns (nil, nil, nil) for a plain deterministic synchronous
// run; otherwise sched is the normalized schedule (synchronous when only
// noise is present) and noise is non-nil only when Eps > 0.
func (o Options) stochasticParams() (*Schedule, *Noise, error) {
	var sched Schedule
	if o.Schedule != nil {
		sched = o.Schedule.normalized()
		if err := sched.validate(); err != nil {
			return nil, nil, err
		}
	}
	var noise *Noise
	if o.Noise != nil {
		if err := o.Noise.validate(); err != nil {
			return nil, nil, err
		}
		if o.Noise.Eps > 0 {
			n := *o.Noise
			noise = &n
		}
	}
	if sched.Kind == ScheduleSynchronous && noise == nil {
		return nil, nil, nil
	}
	return &sched, noise, nil
}

// stepRangeStochastic is the masked stochastic inner loop over a shard's
// owned vertices (the whole substrate for the sequential sweep): vertex v
// applies the rule only when the schedule activates it this round (keeping
// its color otherwise), and the computed color passes through the ε-fault
// draw when noise is active.  Reads come from cur, writes go to next, and
// the mask and the draw are keyed by the global id cs.Lo+v; all randomness
// is counter-based, so the result is independent of the shard partition.
// t is the run's compiled rule, nil for the generic path.
//
// The loop also keeps the target trace: fr, when non-nil, is the run's
// global FirstReached slice for the target color, and only vertices that
// changed can move it (one that turns target is stamped with the round, one
// that leaves target is a monotonicity violation, reported by the second
// result).  An unchanged vertex that holds the target already carries its
// stamp from the round it turned, so no other vertex needs a look.
func (e *Engine) stepRangeStochastic(round int, sched *Schedule, noise *Noise, t *lut, cs *grid.CSRShard, cur, next, scratch []color.Color, target color.Color, fr []int) (changed int, monoViol bool) {
	r := uint64(round)
	mask := sched.maskFor(r)
	masked := mask.async || mask.clock
	var faults rules.FaultRound
	if noise != nil {
		faults = rules.NewFaultRound(noise.Seed, r, noise.Eps, noise.Colors)
	}
	fwd, lo := cs.Adj, cs.Lo
	for v := range cs.Owned() {
		cv := cur[v]
		g := uint64(lo + v)
		if masked && !mask.active(g) {
			next[v] = cv
			continue
		}
		var nc color.Color
		if t != nil {
			n := fwd[4*v : 4*v+4 : 4*v+4]
			nc = t.at(cv, cur[n[0]], cur[n[1]], cur[n[2]], cur[n[3]])
		} else {
			nc = e.nextColor(nil, fwd, cs.Off, cur, v, cv, &scratch)
		}
		if noise != nil {
			nc = faults.Apply(g, nc)
		}
		next[v] = nc
		if nc == cv {
			continue
		}
		changed++
		if fr != nil {
			if cv == target {
				monoViol = true
			}
			if nc == target && fr[lo+v] < 0 {
				fr[lo+v] = round
			}
		}
	}
	return changed, monoViol
}

// nextColor computes one rule application at v over the offset-framed
// neighbor table (fwd, off): one load from the compiled table t when the
// run has one, otherwise over the row of v through the counts fast path
// when the neighborhood fits a Counts vector exactly and the rule's slice
// path when it does not.  scratch is passed by pointer so growth survives
// for the caller's next vertex.
func (e *Engine) nextColor(t *lut, fwd, off []int32, cells []color.Color, v int, cv color.Color, scratch *[]color.Color) color.Color {
	if t != nil {
		n := fwd[4*v : 4*v+4 : 4*v+4]
		return t.at(cv, cells[n[0]], cells[n[1]], cells[n[2]], cells[n[3]])
	}
	row := fwd[off[v]:off[v+1]]
	if cr := e.countRule; cr != nil {
		var cs rules.Counts
		fits := true
		for _, u := range row {
			if !cs.AddOK(cells[u]) {
				fits = false
				break
			}
		}
		if fits {
			return cr.NextFromCounts(cv, cs)
		}
	}
	s := (*scratch)[:0]
	for _, u := range row {
		s = append(s, cells[u])
	}
	*scratch = s
	return e.rule.Next(cv, s)
}

// stochasticDriver is the stochastic tier behind drive: masked schedules run
// the double-buffered sweep with a per-(round, vertex) activation mask, and
// the sequential schedules run the in-place sweep (each vertex commits
// immediately).  Either way every random draw is counter-based, so the
// driver carries no generator state and a resumed run continues
// bit-identically from just (configuration, round).
type stochasticDriver struct {
	e         *Engine
	st        *runState
	cur, next *color.Coloring
	sched     Schedule
	noise     *Noise
	// lut is the run's compiled rule, nil when the palette — the initial
	// colors plus the fault palette of a noisy run — does not qualify.
	lut *lut
	// order is the sequential kinds' sweep-order buffer, identity for raster
	// and a per-round derived permutation for random-sequential.
	order []int
	// prevPrev backs period-2 cycle detection, maintained only for the
	// deterministic raster-sequential noise-free case (every other stochastic
	// run makes the verdict meaningless).
	prevPrev  *color.Coloring
	cycleFlag bool
	stepped   bool
	seedPrev  *color.Coloring
}

func (e *Engine) newStochasticDriver(st *runState, initial *color.Coloring, opt Options, sched *Schedule, noise *Noise, rs *Resume) *stochasticDriver {
	cur, next := st.buffers(e)
	d := &stochasticDriver{e: e, st: st, cur: cur, next: next, sched: *sched, noise: noise}
	d.cur.CopyFrom(initial)
	d.lut = e.lutForCells(initial.Cells(), noise.top())
	if opt.DetectCycles && sched.Kind == ScheduleSequential && noise == nil {
		if st.prevPrev == nil {
			st.prevPrev = color.NewColoring(e.sub.Dims(), color.None)
		}
		d.prevPrev = st.prevPrev
		if rs != nil && rs.Prev != nil {
			d.prevPrev.CopyFrom(rs.Prev)
		} else {
			d.prevPrev.CopyFrom(initial)
		}
	}
	if rs != nil && rs.Prev != nil {
		d.seedPrev = rs.Prev
	}
	return d
}

func (d *stochasticDriver) stepRound(round int, res *Result, opt Options) int {
	if d.sched.inPlace() {
		return d.stepSweepInPlace(round, res, opt)
	}
	cur, next := d.cur, d.next
	changed, monoViol := d.e.stepRangeStochastic(round, &d.sched, d.noise, d.lut, d.e.whole(), cur.Cells(), next.Cells(), d.st.scratch, opt.Target, res.FirstReached)
	if monoViol {
		res.MonotoneTarget = false
	}
	d.cur, d.next = next, cur
	d.stepped = true
	return changed
}

// stepSweepInPlace runs one sequential sweep: the configuration before the
// sweep is snapshotted into the spare buffer (it becomes prevConfig), then
// each vertex in this round's order recomputes its color against the live
// cells so later vertices observe earlier commits.
func (d *stochasticDriver) stepSweepInPlace(round int, res *Result, opt Options) int {
	e := d.e
	cells := d.cur.Cells()
	n := len(cells)
	d.next.CopyFrom(d.cur)
	scratch := d.st.scratch
	r := uint64(round)
	var faults rules.FaultRound
	if d.noise != nil {
		faults = rules.NewFaultRound(d.noise.Seed, r, d.noise.Eps, d.noise.Colors)
	}
	changed := 0
	step := func(v int) {
		cv := cells[v]
		nc := e.nextColor(d.lut, e.csr.Neighbors, e.csr.Off, cells, v, cv, &scratch)
		if d.noise != nil {
			nc = faults.Apply(uint64(v), nc)
		}
		if nc == cv {
			return
		}
		cells[v] = nc
		changed++
		if opt.Target != color.None {
			if cv == opt.Target {
				res.MonotoneTarget = false
			}
			if nc == opt.Target && res.FirstReached[v] < 0 {
				res.FirstReached[v] = round
			}
		}
	}
	if d.sched.Kind == ScheduleRandomSequential {
		for _, v := range d.orderFor(r, n) {
			step(v)
		}
	} else {
		for v := 0; v < n; v++ {
			step(v)
		}
	}
	d.st.scratch = scratch
	if d.prevPrev != nil {
		d.cycleFlag = d.cur.Equal(d.prevPrev)
		d.prevPrev.CopyFrom(d.next)
	}
	d.stepped = true
	return changed
}

// orderFor returns this round's sweep permutation, derived statelessly from
// (Seed, round) so any resumed run replays the identical order.
func (d *stochasticDriver) orderFor(round uint64, n int) []int {
	if cap(d.order) < n {
		d.order = make([]int, n)
	}
	order := d.order[:n]
	for i := range order {
		order[i] = i
	}
	src := rng.New(rng.Hash(d.sched.Seed, round))
	src.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

func (d *stochasticDriver) config() *color.Coloring { return d.cur }

func (d *stochasticDriver) prevConfig() *color.Coloring {
	if !d.stepped {
		if d.seedPrev != nil {
			return d.seedPrev.Clone()
		}
		return nil
	}
	// Both paths leave the previous configuration in the spare buffer: the
	// masked path by the double-buffer swap, the in-place path by the
	// pre-sweep snapshot.
	return d.next.Clone()
}

func (d *stochasticDriver) mono() bool {
	_, ok := d.cur.IsMonochromatic()
	return ok
}

func (d *stochasticDriver) cycle() bool { return d.prevPrev != nil && d.cycleFlag }

func (d *stochasticDriver) downshift(int, *Result) runDriver { return nil }
