package sim

import (
	"runtime"
	"sync"
)

// stripeTask is one unit of parallel step work.  Tasks live in a per-run
// buffer (or, for the sharded stepper, on the stepper itself), so
// steady-state parallel stepping allocates nothing: a step fills the
// pre-allocated tasks, hands pointers to the shared worker pool and waits on
// the run's WaitGroup.
//
// run is one of the package-level method expressions below, chosen by the
// tier: the bitplane stripe uses bp, the sharded stripe uses shd.
type stripeTask struct {
	run func(*stripeTask)
	wg  *sync.WaitGroup

	// bp parameterizes the bitplane stripe: the task steps the word range
	// [lo, hi) in fused shift+kernel+diff cache blocks and leaves the
	// range's change count in changed.
	bp      *Bitplane
	changed int

	// shd parameterizes the sharded stripe: the task's lo field carries the
	// shard index and the per-shard outputs land in the shard's own state.
	shd *Sharded

	lo, hi int
}

func (t *stripeTask) runBitSlab() {
	t.changed = t.bp.stepSlabs(t.lo, t.hi, bitplaneSlabWords)
}

func (t *stripeTask) runShard() {
	t.shd.stepShard(t.lo)
}

// Method expressions, bound once: assigning them to stripeTask.run does not
// allocate, unlike per-step closures or bound method values.
var (
	runBitSlabTask = (*stripeTask).runBitSlab
	runShardTask   = (*stripeTask).runShard
)

// stripePool is the process-wide persistent worker pool behind every
// parallel step.  It replaces the former goroutine-spawn-per-step: a fixed
// set of GOMAXPROCS(0) workers is started on first parallel use and lives
// for the life of the process, shared by all engines (engines have no Close,
// so per-engine goroutines would leak; one shared pool bounds the goroutine
// count and keeps the workers' stacks warm).
//
// Workers only ever execute leaf work (a shard step or a bit kernel) and never
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
