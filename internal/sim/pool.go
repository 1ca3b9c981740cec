package sim

import (
	"runtime"
	"sync"

	"repro/internal/color"
)

// stripeTask is one unit of striped step work.  Tasks live in a per-run
// buffer recycled through the engine's state pool, so steady-state parallel
// stepping allocates nothing: a step fills the pre-allocated tasks, hands
// pointers to the shared worker pool and waits on the run's WaitGroup.
//
// run is one of the package-level method expressions below, chosen by the
// tier: the scalar stripe uses (e, cur, next), the bitplane stripe uses bp.
// changed is written by the worker and read by the submitter after the
// WaitGroup settles.
type stripeTask struct {
	run func(*stripeTask)
	wg  *sync.WaitGroup

	e         *Engine
	cur, next []color.Color

	// bp parameterizes the bitplane stripe: the task steps the word range
	// [lo, hi) in fused shift+kernel cache blocks.
	bp *Bitplane

	// shd parameterizes the sharded stripe: the task's lo field carries the
	// shard index and the per-shard outputs land in the shard's own state.
	shd *Sharded

	// round and avail parameterize the time-varying stripe; scratch backs
	// the generic and time-varying stripes' neighbor gathering.  scratch is
	// owned by the task slot and survives across steps (stripeAcross's fill
	// callbacks preserve it), so steady-state parallel stepping stays
	// allocation-free on irregular substrates too.
	round   int
	avail   Availability
	scratch []color.Color

	// sched, noise and lut parameterize the stochastic stripe; all are
	// read-only during a step, so stripes share them without coordination.
	sched *Schedule
	noise *Noise
	lut   *lut

	lo, hi  int
	changed int
}

func (t *stripeTask) runSweep() {
	t.growScratch()
	t.changed = t.e.stepRange(t.cur, t.next, t.lo, t.hi, t.scratch)
}

func (t *stripeTask) runSweepTV() {
	t.growScratch()
	t.changed = t.e.stepRangeTV(t.round, t.avail, t.cur, t.next, t.lo, t.hi, t.scratch)
}

// growScratch sizes the task's scratch buffer to the substrate's maximum
// degree.  It allocates at most once per task slot (the slot keeps the
// buffer across steps); the WaitGroup handoff orders the write against the
// submitter's next reuse of the slot.
func (t *stripeTask) growScratch() {
	if cap(t.scratch) < t.e.maxDeg {
		t.scratch = make([]color.Color, 0, t.e.maxDeg)
	}
}

func (t *stripeTask) runStochastic() {
	t.growScratch()
	t.changed = t.e.stepRangeStochastic(t.round, t.sched, t.noise, t.lut, t.cur, t.next, t.lo, t.hi, t.scratch)
}

func (t *stripeTask) runBitSlab() {
	t.bp.stepSlabs(t.lo, t.hi, bitplaneSlabWords)
}

func (t *stripeTask) runShard() {
	t.shd.stepShard(t.lo)
}

// Method expressions, bound once: assigning them to stripeTask.run does not
// allocate, unlike per-step closures or bound method values.
var (
	runSweepTask      = (*stripeTask).runSweep
	runSweepTVTask    = (*stripeTask).runSweepTV
	runStochasticTask = (*stripeTask).runStochastic
	runBitSlabTask    = (*stripeTask).runBitSlab
	runShardTask      = (*stripeTask).runShard
)

// stripePool is the process-wide persistent worker pool behind every
// parallel step.  It replaces the former goroutine-spawn-per-step: a fixed
// set of GOMAXPROCS(0) workers is started on first parallel use and lives
// for the life of the process, shared by all engines (engines have no Close,
// so per-engine goroutines would leak; one shared pool bounds the goroutine
// count and keeps the workers' stacks warm).
//
// Workers only ever execute leaf work (stepRange or a bit kernel) and never
// submit tasks themselves, so the pool cannot deadlock; concurrent runs from
// many goroutines interleave their tasks freely because completion is
// tracked per-run through each submitter's own WaitGroup.
var stripePool struct {
	once sync.Once
	ch   chan *stripeTask
}

func stripePoolStart() {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	stripePool.ch = make(chan *stripeTask, 4*n)
	for i := 0; i < n; i++ {
		go stripeWorker(stripePool.ch)
	}
}

func stripeWorker(ch chan *stripeTask) {
	for t := range ch {
		t.run(t)
		t.wg.Done()
	}
}

// stripeAcross partitions [0, n) into up to `workers` contiguous stripes,
// fills one task per stripe through fill and runs them all on the shared
// pool.  It returns the filled tasks so callers can collect per-stripe
// results (e.g. change counts).  Both parallel tiers — the scalar sweep
// over vertex ranges and the bitplane kernel over word ranges — share this
// single partitioning protocol.
func (st *runState) stripeAcross(n, workers int, fill func(t *stripeTask, lo, hi int)) []stripeTask {
	if workers > n {
		workers = n
	}
	tasks := st.stripes(workers)
	chunk := (n + workers - 1) / workers
	count := 0
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, n)
		if lo >= hi {
			break
		}
		t := &tasks[count]
		count++
		// The task slot owns its scratch buffer across steps; fill callbacks
		// overwrite the whole struct, so save and restore it here.
		scratch := t.scratch
		fill(t, lo, hi)
		t.scratch = scratch
	}
	runStriped(tasks[:count], &st.wg)
	return tasks[:count]
}

// runStriped executes the tasks across the shared pool, running the last
// one on the calling goroutine (the caller would otherwise idle in Wait
// while holding a warm cache), and returns when all have finished.  More
// tasks than pool workers simply queue; they all complete.
func runStriped(tasks []stripeTask, wg *sync.WaitGroup) {
	last := len(tasks) - 1
	if last < 0 {
		return
	}
	if last == 0 {
		t := &tasks[0]
		t.run(t)
		return
	}
	stripePool.once.Do(stripePoolStart)
	wg.Add(last)
	for i := 0; i < last; i++ {
		stripePool.ch <- &tasks[i]
	}
	t := &tasks[last]
	t.run(t)
	wg.Wait()
}
