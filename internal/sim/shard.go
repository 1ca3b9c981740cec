package sim

import (
	"fmt"
	"sync"

	"repro/internal/color"
	"repro/internal/grid"
)

// shardState is the mutable per-shard working set of a Sharded stepper:
// the shard's local double buffers (owned interior first, halo ghosts
// after), the period-2 comparison buffer over the interior, and the
// per-round outputs its worker writes and the submitter reads after the
// round barrier.
type shardState struct {
	cs        *grid.CSRShard
	cur, next []color.Color
	// prevPrev holds the interior two rounds back (lazily allocated when
	// cycle detection is on), mirroring sweepDriver's period-2 trace.
	prevPrev []color.Color
	// scratch backs neighbor gathering in the generic, time-varying and
	// stochastic inner loops.
	scratch []color.Color

	// Per-round outputs, written by the shard's worker, read by the
	// submitter after the WaitGroup barrier.
	changed   int
	cycleFlag bool
	// monoViol latches a target-monotonicity violation; it is sticky
	// because Result.MonotoneTarget never recovers once false.
	monoViol bool
}

// Sharded is the domain-decomposed stepper, the engine's one parallel
// scalar tier: the substrate is cut into contiguous degree-balanced shards
// (row-band slabs on the dense tori, see grid.CSR.Shards), each shard steps
// its interior out of shard-local buffers through the compiled rule table
// (or the generic loop, when the palette does not qualify) over the local
// adjacency, and a per-round halo exchange copies only the boundary cells
// between shards.  Interior work takes no locks and touches no shared
// mutable memory; the only cross-shard traffic is the O(halo) exchange on
// the submitting goroutine between the round barrier and the buffer swap.
// Time-varying and masked stochastic rounds step the same way, with link
// availability, schedule masks and fault draws keyed by global vertex ids
// (grid.CSRShard.Global).
//
// Results are bit-identical to the sequential sweep: local rows preserve
// the global neighbor order, so every vertex reads exactly the multiset the
// global sweep reads.  A Sharded is not safe for concurrent use; engines
// recycle them through the per-run state pool.
type Sharded struct {
	e      *Engine
	shards []shardState
	tasks  []stripeTask
	wg     sync.WaitGroup
	// requested is the worker count the stepper was built for (the pool's
	// rebuild key); the actual shard count may be lower on small substrates.
	requested int
	// lut is the run's compiled rule, nil when the palette does not
	// qualify (chosen by reset from the initial coloring and, for a noisy
	// run, the fault palette).
	lut *lut
	// avail is the run's availability model, nil unless time-varying; sched
	// is the run's normalized schedule, nil unless stochastic (noise is
	// its active fault model, if any).  At most one of avail and sched is
	// set.
	avail Availability
	sched *Schedule
	noise *Noise

	// Round-scoped parameters staged by the driver before dispatch and read
	// by the shard workers (the task handoff orders the writes).
	round        int
	target       color.Color
	firstReached []int
	trackCycles  bool

	// cfg is the lazily gathered global view of the interior cells;
	// cfgRound caches which round it reflects so unobserved runs never pay
	// the O(n) gather.
	cfg      *color.Coloring
	cfgRound int
	rounds   int
}

// NewSharded builds a sharded stepper cutting the substrate into up to
// `workers` shards (fewer on substrates with fewer alignment blocks than
// workers; at least one).  The partitioned adjacency views are cached on
// the engine per shard count; the returned stepper owns only the mutable
// buffers.  Callers must Reset it with an initial coloring before stepping.
func (e *Engine) NewSharded(workers int) *Sharded {
	if workers < 1 {
		workers = 1
	}
	d := e.sub.Dims()
	if n := d.N(); workers > n && n > 0 {
		workers = n
	}
	parts := e.shardsFor(workers)
	sh := &Sharded{
		e:         e,
		requested: workers,
		cfg:       color.NewColoring(d, color.None),
		cfgRound:  -1,
		shards:    make([]shardState, len(parts)),
		tasks:     make([]stripeTask, len(parts)),
	}
	for i, cs := range parts {
		s := &sh.shards[i]
		s.cs = cs
		s.cur = make([]color.Color, cs.Len())
		s.next = make([]color.Color, cs.Len())
		s.scratch = make([]color.Color, 0, cs.MaxDegree())
	}
	return sh
}

// whole returns the one-shard view of the substrate: no ghosts, and local
// ids are global ids, so the sequential sweeps step the shard-level
// time-varying and stochastic loops over it unchanged.
func (e *Engine) whole() *grid.CSRShard { return e.shardsFor(1)[0] }

// shardsFor returns the engine's cached partitioned view of the substrate
// for k shards, building it on first use.  Dense tori are cut on row
// boundaries (row-band slabs: each shard's halo is exactly the row above
// and the row below); general substrates are cut on the degree-balanced
// vertex line.
func (e *Engine) shardsFor(k int) []*grid.CSRShard {
	if cached, ok := e.shardSets.Load(k); ok {
		return cached.([]*grid.CSRShard)
	}
	align := 1
	if e.topo != nil {
		align = e.sub.Dims().Cols
	}
	parts := e.csr.Shards(k, align)
	cached, _ := e.shardSets.LoadOrStore(k, parts)
	return cached.([]*grid.CSRShard)
}

// Shards returns the number of shards (= stepping goroutines per round).
func (sh *Sharded) Shards() int { return len(sh.shards) }

// Reset scatters the initial coloring into the shard-local buffers and
// clears all per-run bookkeeping, preparing the stepper for a fresh run
// without cycle detection or target tracking (the driver path configures
// those through reset).
func (sh *Sharded) Reset(initial *color.Coloring) {
	if initial.Dims() != sh.e.sub.Dims() {
		panic(fmt.Sprintf("sim: Sharded.Reset dimension mismatch %v vs %v", initial.Dims(), sh.e.sub.Dims()))
	}
	sh.reset(initial, Options{}, nil, nil, nil)
}

// reset is Reset plus the driver-level knobs: the availability model, the
// stochastic schedule and noise, the tracked target color and cycle
// detection (seeding the period-2 buffers from prevSeed when resuming, the
// initial configuration otherwise, exactly as sweepDriver does).  Cycles
// are tracked under the same gating as the sequential drivers: never on a
// stochastic run, and on a time-varying one only under a static model.
func (sh *Sharded) reset(initial *color.Coloring, opt Options, sched *Schedule, noise *Noise, prevSeed *color.Coloring) {
	cells := initial.Cells()
	sh.lut = sh.e.lutForCells(cells, noise.top())
	sh.avail, sh.sched, sh.noise = opt.TimeVarying, sched, noise
	detectCycles := opt.DetectCycles && sched == nil && (opt.TimeVarying == nil || staticAvailability(opt.TimeVarying))
	for i := range sh.shards {
		s := &sh.shards[i]
		owned := s.cs.Owned()
		copy(s.cur[:owned], cells[s.cs.Lo:s.cs.Hi])
		for j, g := range s.cs.Halo {
			s.cur[owned+j] = cells[g]
		}
		s.changed, s.cycleFlag, s.monoViol = 0, false, false
	}
	sh.trackCycles = detectCycles
	sh.target = opt.Target
	sh.firstReached = nil
	sh.round = 0
	sh.rounds = 0
	sh.cfgRound = -1
	if detectCycles {
		seed := cells
		if prevSeed != nil {
			seed = prevSeed.Cells()
		}
		for i := range sh.shards {
			s := &sh.shards[i]
			owned := s.cs.Owned()
			if len(s.prevPrev) < owned {
				s.prevPrev = make([]color.Color, owned)
			}
			copy(s.prevPrev, seed[s.cs.Lo:s.cs.Hi])
		}
	}
}

// Step applies one synchronous round across all shards and returns the
// number of vertices that changed color.  Each shard's interior is stepped
// by one task on the shared stripe pool; after the barrier the submitter
// performs the halo exchange (ghost cells copied from their owners' fresh
// interiors) and swaps every shard's buffers.
func (sh *Sharded) Step() int {
	tasks := sh.tasks
	for i := range tasks {
		t := &tasks[i]
		t.run = runShardTask
		t.wg = &sh.wg
		t.shd = sh
		t.lo = i
	}
	runStriped(tasks, &sh.wg)
	changed := 0
	for i := range sh.shards {
		changed += sh.shards[i].changed
	}
	for i := range sh.shards {
		s := &sh.shards[i]
		owned := s.cs.Owned()
		local := s.cs.HaloLocal
		for j, o := range s.cs.HaloOwner {
			s.next[owned+j] = sh.shards[o].next[local[j]]
		}
	}
	for i := range sh.shards {
		s := &sh.shards[i]
		s.cur, s.next = s.next, s.cur
	}
	sh.rounds++
	return changed
}

// stepShard is the worker-side leaf: step shard i's interior from its
// local cur into its local next — through the time-varying or the masked
// stochastic loop when the run has an availability model or a schedule,
// otherwise through the compiled table (or the generic offset-framed loop
// when the run's palette does not qualify) — then the per-shard slice of
// the target trace and the period-2 comparison, all of it touching only
// shard-local memory (plus the disjoint FirstReached range [Lo, Hi)).  The
// stochastic loop keeps the target trace itself, on the vertices that
// changed, and stochastic runs never track cycles.
func (sh *Sharded) stepShard(i int) {
	s := &sh.shards[i]
	owned := s.cs.Owned()
	switch {
	case sh.avail != nil:
		s.changed = sh.e.stepRangeTVOn(sh.round, sh.avail, s.cs, s.cur, s.next, 0, owned, s.scratch)
	case sh.sched != nil:
		var viol bool
		s.changed, viol = sh.e.stepRangeStochastic(sh.round, sh.sched, sh.noise, sh.lut, s.cs, s.cur, s.next, s.scratch, sh.target, sh.firstReached)
		s.monoViol = s.monoViol || viol
		return
	case sh.lut != nil:
		s.changed = stepRangeLUT(sh.lut, s.cs.Adj, s.cur, s.next, 0, owned)
	default:
		s.changed = sh.e.stepRangeGenericOn(s.cs.Adj, s.cs.Off, s.cur, s.next, 0, owned, s.scratch)
	}
	if fr := sh.firstReached; fr != nil {
		target, round, lo := sh.target, sh.round, s.cs.Lo
		for v := 0; v < owned; v++ {
			got, had := s.next[v] == target, s.cur[v] == target
			if had && !got {
				s.monoViol = true
			}
			if got && fr[lo+v] < 0 {
				fr[lo+v] = round
			}
		}
	}
	if sh.trackCycles {
		pp := s.prevPrev
		eq := true
		for v := 0; v < owned; v++ {
			if s.next[v] != pp[v] {
				eq = false
				break
			}
		}
		s.cycleFlag = eq
		copy(pp, s.cur[:owned])
	}
}

// Config returns the global configuration after the last step, gathered
// lazily from the shard interiors (the gather is cached per round, so runs
// that never look at the scalar view never pay it).  The returned coloring
// is owned by the stepper and valid until the next Step or Reset.
func (sh *Sharded) Config() *color.Coloring {
	if sh.cfgRound != sh.rounds {
		cells := sh.cfg.Cells()
		for i := range sh.shards {
			s := &sh.shards[i]
			copy(cells[s.cs.Lo:s.cs.Hi], s.cur[:s.cs.Owned()])
		}
		sh.cfgRound = sh.rounds
	}
	return sh.cfg
}

// shardedDriver adapts a Sharded stepper to the engine's single round loop
// (runDriver), aggregating the per-shard mono/cycle/target verdicts into
// the global stop conditions.
type shardedDriver struct {
	sh       *Sharded
	stepped  bool
	seedPrev *color.Coloring
}

// newShardedDriver builds the sharded tier over the pooled state, seeded
// fresh from the initial coloring or from a checkpoint (whose Config is
// already the initial argument; its Prev seeds the period-2 trace).
func (e *Engine) newShardedDriver(st *runState, initial *color.Coloring, opt Options, sched *Schedule, noise *Noise, workers int, rs *Resume) *shardedDriver {
	sh := st.sharded(e, workers)
	var prevSeed *color.Coloring
	if rs != nil {
		prevSeed = rs.Prev
	}
	sh.reset(initial, opt, sched, noise, prevSeed)
	d := &shardedDriver{sh: sh}
	if rs != nil && rs.Prev != nil {
		d.seedPrev = rs.Prev
	}
	return d
}

func (d *shardedDriver) stepRound(round int, res *Result, opt Options) int {
	sh := d.sh
	sh.round = round
	sh.firstReached = res.FirstReached
	changed := sh.Step()
	for i := range sh.shards {
		if sh.shards[i].monoViol {
			res.MonotoneTarget = false
			break
		}
	}
	d.stepped = true
	return changed
}

func (d *shardedDriver) config() *color.Coloring { return d.sh.Config() }

func (d *shardedDriver) prevConfig() *color.Coloring {
	if !d.stepped {
		if d.seedPrev != nil {
			return d.seedPrev.Clone()
		}
		return nil
	}
	// After the swap in Step, every shard's next interior holds the previous
	// round's configuration.
	sh := d.sh
	prev := color.NewColoring(sh.e.sub.Dims(), color.None)
	cells := prev.Cells()
	for i := range sh.shards {
		s := &sh.shards[i]
		copy(cells[s.cs.Lo:s.cs.Hi], s.next[:s.cs.Owned()])
	}
	return prev
}

func (d *shardedDriver) mono() bool {
	_, ok := d.sh.Config().IsMonochromatic()
	return ok
}

func (d *shardedDriver) cycle() bool {
	sh := d.sh
	if !sh.trackCycles {
		return false
	}
	for i := range sh.shards {
		if !sh.shards[i].cycleFlag {
			return false
		}
	}
	return true
}

func (d *shardedDriver) downshift(int, *Result) runDriver { return nil }
