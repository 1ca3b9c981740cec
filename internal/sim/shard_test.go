package sim

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
	"repro/internal/tvg"
)

// shardedOpts returns base with the sharded tier forced at the given worker
// count.
func shardedOpts(base Options, workers int) Options {
	base.Kernel = KernelSharded
	base.Parallel = true
	base.Workers = workers
	return base
}

// resultJSONEqual pins two Results byte-identical on the full JSON wire
// form, after normalizing the fields that name the tier itself (Kernel,
// Workers, Downshift): everything a consumer can observe about the run —
// rounds, verdicts, traces, final configuration — must match exactly.
func resultJSONEqual(t *testing.T, label string, a, b *Result) {
	t.Helper()
	na, nb := *a, *b
	na.Kernel, nb.Kernel = KernelSweep, KernelSweep
	na.Workers, nb.Workers = 1, 1
	na.Downshift, nb.Downshift = 0, 0
	ja, err := json.Marshal(&na)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(&nb)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatalf("%s: result JSON differs\n a: %s\n b: %s", label, ja, jb)
	}
}

// TestShardedBitIdenticalAllRulesAllTopologies is the sharded tier's
// differential oracle: on every registered rule × topology kind, over
// random colorings on several sizes including the degenerate 2×n and m×2
// tori, the sharded stepper at k ∈ {2, 3, 4} shards must produce Results
// byte-identical (full JSON) to the sequential full sweep.
func TestShardedBitIdenticalAllRulesAllTopologies(t *testing.T) {
	sizes := [][2]int{{2, 7}, {7, 2}, {3, 3}, {4, 6}, {6, 6}}
	for _, name := range rules.RegisteredNames() {
		rule, err := rules.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range grid.Kinds() {
			for _, sz := range sizes {
				topo := grid.MustNew(kind, sz[0], sz[1])
				eng := NewEngine(topo, rule)
				for seed := uint64(1); seed <= 3; seed++ {
					initial := randomTestColoring(seed, topo.Dims(), 5)
					base := Options{MaxRounds: 40, Target: 1, DetectCycles: true}
					sweep := base
					sweep.Kernel = KernelSweep
					oracle := eng.Run(initial, sweep)
					for _, k := range []int{2, 3, 4} {
						sharded := eng.Run(initial, shardedOpts(base, k))
						label := name + "/" + topo.Name() + "/" + topo.Dims().String() + "/k=" + string(rune('0'+k))
						resultsEqual(t, label, sharded, oracle)
						resultJSONEqual(t, label, sharded, oracle)
						if sharded.Kernel != KernelSharded {
							t.Fatalf("%s: kernel %v, want sharded", label, sharded.Kernel)
						}
					}
				}
			}
		}
	}
}

// TestShardedCycleAcrossShardBoundary pins period-2 cycle detection when
// the oscillating set spans shard boundaries: every shard's local verdict
// must AND into the global one at the same round the sweep detects, and
// the oscillation must actually cross row-band boundaries for the test to
// mean anything.
func TestShardedCycleAcrossShardBoundary(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	rule, err := rules.ByName("generalized-smp")
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(topo, rule)
	initial := randomTestColoring(1, topo.Dims(), 3)
	base := Options{MaxRounds: 60, DetectCycles: true, RecordHistory: true}
	sweep := base
	sweep.Kernel = KernelSweep
	oracle := eng.Run(initial, sweep)
	if !oracle.Cycle {
		t.Fatal("expected the oracle run to detect a cycle (seed drifted?)")
	}
	// The last round's changed vertices must span more than one row-band
	// shard at k=3 (2 rows per shard on 6 rows), otherwise the scenario
	// does not cross a boundary.
	h := oracle.History
	last, before := h[len(h)-1], h[len(h)-2]
	bands := map[int]bool{}
	for v := 0; v < last.N(); v++ {
		if last.At(v) != before.At(v) {
			bands[(v/6)/2] = true
		}
	}
	if len(bands) < 2 {
		t.Fatalf("oscillation confined to row bands %v; pick a different seed", bands)
	}
	for _, k := range []int{2, 3, 4} {
		sharded := eng.Run(initial, shardedOpts(base, k))
		if !sharded.Cycle {
			t.Fatalf("k=%d: sharded run missed the cycle", k)
		}
		resultsEqual(t, "cycle/k", sharded, oracle)
		resultJSONEqual(t, "cycle/k", sharded, oracle)
	}
}

// TestShardedResumeMidRun checkpoints a sharded run in the middle —
// including at rounds where the dynamics straddle shard boundaries — and
// resumes it on the sharded tier; the stitched Result must equal both an
// uninterrupted sharded run and the sequential sweep, for plain, target-
// tracked and cycle-detecting runs.
func TestShardedResumeMidRun(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 6, 6)
	for _, ruleName := range []string{"smp", "generalized-smp"} {
		rule, err := rules.ByName(ruleName)
		if err != nil {
			t.Fatal(err)
		}
		eng := NewEngine(topo, rule)
		initial := randomTestColoring(2, topo.Dims(), 3)
		opt := shardedOpts(Options{MaxRounds: 60, Target: 1, DetectCycles: true}, 3)
		sweep := Options{MaxRounds: 60, Target: 1, DetectCycles: true, Kernel: KernelSweep}
		oracle := eng.Run(initial, sweep)
		full := eng.Run(initial, opt)
		resultsEqual(t, ruleName+"/uninterrupted", full, oracle)

		for cutAt := 1; cutAt < full.Rounds; cutAt++ {
			var cp *Resume
			for st, err := range eng.Stream(context.Background(), initial, opt) {
				if err != nil {
					t.Fatal(err)
				}
				if st.Round == cutAt {
					cp = st.Checkpoint()
					break
				}
			}
			if cp == nil {
				t.Fatalf("%s: no checkpoint at round %d", ruleName, cutAt)
			}
			resumed, err := eng.ResumeContext(context.Background(), cp, opt)
			if err != nil {
				t.Fatal(err)
			}
			if resumed.Kernel != KernelSharded {
				t.Fatalf("%s: resumed kernel %v, want sharded", ruleName, resumed.Kernel)
			}
			resultsEqual(t, ruleName+"/resumed", resumed, oracle)
			resultJSONEqual(t, ruleName+"/resumed", resumed, oracle)
		}
	}
}

// TestShardedMetadata pins the Result metadata contract: the tier name and
// the effective worker count, which is the shard count — capped by the
// substrate's row count on tori, so requesting more shards than rows
// reports the real parallelism.
func TestShardedMetadata(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 5, 4)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(3, topo.Dims(), 3)

	res := eng.Run(initial, shardedOpts(Options{MaxRounds: 10}, 3))
	if res.Kernel != KernelSharded || res.Workers != 3 {
		t.Fatalf("kernel=%v workers=%d, want sharded/3", res.Kernel, res.Workers)
	}
	// 64 requested shards over 5 rows: row-aligned cuts cap at 5.
	res = eng.Run(initial, shardedOpts(Options{MaxRounds: 10}, 64))
	if res.Workers != 5 {
		t.Fatalf("workers=%d for 64 requested shards over 5 rows, want 5", res.Workers)
	}
	// Forcing the kernel without Parallel derives workers from Workers
	// (GOMAXPROCS-bound); it must still run sharded.
	res = eng.Run(initial, Options{MaxRounds: 10, Kernel: KernelSharded})
	if res.Kernel != KernelSharded || res.Workers < 1 {
		t.Fatalf("kernel=%v workers=%d for forced sharded without Parallel", res.Kernel, res.Workers)
	}
}

// TestShardedAutoSelection pins the automatic tier choice: every parallel
// run the bitplane tier does not take steps sharded, at any size and with
// FullSweep set too (the sharded tier always sweeps).
func TestShardedAutoSelection(t *testing.T) {
	// A 5-color palette keeps the (faster, already scaling) bitplane tier
	// out of the running, so the auto choice is between the two sweeps.
	big := grid.MustNew(grid.KindToroidalMesh, 512, 256) // exactly 1<<17
	eng := NewEngine(big, rules.SMP{})
	initial := randomTestColoring(4, big.Dims(), 5)
	res := eng.Run(initial, Options{MaxRounds: 2, Parallel: true, Workers: 4})
	if res.Kernel != KernelSharded {
		t.Fatalf("auto kernel %v above threshold, want sharded", res.Kernel)
	}
	res = eng.Run(initial, Options{MaxRounds: 2, Parallel: true, Workers: 4, FullSweep: true})
	if res.Kernel != KernelSharded {
		t.Fatalf("auto kernel %v with FullSweep, want sharded", res.Kernel)
	}

	small := grid.MustNew(grid.KindToroidalMesh, 16, 16)
	engS := NewEngine(small, rules.SMP{})
	res = engS.Run(randomTestColoring(4, small.Dims(), 5), Options{MaxRounds: 2, Parallel: true, Workers: 4})
	if res.Kernel != KernelSharded {
		t.Fatalf("auto kernel %v below threshold, want sharded", res.Kernel)
	}
}

// randomGraphSubstrate is an irregular test substrate: every vertex after
// the first links to one to three random earlier vertices, so degrees vary
// widely and some neighbor lists repeat a vertex.
func randomGraphSubstrate(seed uint64, n int) *adjSubstrate {
	src := rng.New(seed)
	adj := make([][]int, n)
	for v := 1; v < n; v++ {
		for i := 0; i <= src.Intn(3); i++ {
			u := src.Intn(v)
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	return &adjSubstrate{csr: grid.BuildCSRAdj(adj)}
}

// shardedSubstrates are the engines the sharded differential tests step:
// the three tori under SMP (9 rows, so 7 workers cut 7 row bands) and one
// irregular graph under the generalized rule.
func shardedSubstrates() map[string]*Engine {
	engines := map[string]*Engine{
		"graph": NewEngineOn(randomGraphSubstrate(3, 60), rules.GeneralizedSMP{}),
	}
	for _, kind := range grid.Kinds() {
		topo := grid.MustNew(kind, 9, 7)
		engines[topo.Name()] = NewEngine(topo, rules.SMP{})
	}
	return engines
}

// shardedMatchesSweep pins opt forced onto the sharded tier, at 1, 2, 3
// and 7 workers, byte-identical on the Result wire form (kernel and worker
// count aside) to opt forced onto the sequential sweep — uninterrupted, and
// resumed on the sharded tier from a mid-run checkpoint.
func shardedMatchesSweep(t *testing.T, label string, eng *Engine, initial *color.Coloring, opt Options) {
	t.Helper()
	sweep := opt
	sweep.Kernel = KernelSweep
	oracle := eng.Run(initial, sweep)
	if oracle.Rounds < 4 {
		t.Fatalf("%s: run too short (%d rounds) to checkpoint mid-way", label, oracle.Rounds)
	}
	for _, workers := range []int{1, 2, 3, 7} {
		sh := shardedOpts(opt, workers)
		l := fmt.Sprintf("%s/workers=%d", label, workers)
		got := eng.Run(initial, sh)
		if got.Kernel != KernelSharded {
			t.Fatalf("%s: kernel %v, want sharded", l, got.Kernel)
		}
		resultJSONEqual(t, l, got, oracle)
		cp := checkpointAt(t, eng, initial, sh, oracle.Rounds/2)
		resumed, err := eng.ResumeContext(context.Background(), cp, sh)
		if err != nil {
			t.Fatalf("%s: resume: %v", l, err)
		}
		resultJSONEqual(t, l+"/resumed", resumed, oracle)
	}
}

// TestShardedTimeVaryingMatchesSweep pins time-varying runs on the sharded
// tier: shards read their local adjacency but ask the availability model
// about global ids, so every vertex sees exactly the links the sequential
// sweep sees.  A churny model exercises the masks; a static one keeps the
// fixed-point stop and cycle detection live.
func TestShardedTimeVaryingMatchesSweep(t *testing.T) {
	models := map[string]Availability{
		"bernoulli": tvg.Bernoulli{P: 0.7, Seed: 5},
		"always-on": tvg.AlwaysOn{},
	}
	for name, eng := range shardedSubstrates() {
		initial := randomTestColoring(5, eng.Substrate().Dims(), 3)
		for model, avail := range models {
			opt := Options{MaxRounds: 40, Target: 1, DetectCycles: true, TimeVarying: avail}
			shardedMatchesSweep(t, name+"/"+model, eng, initial, opt)
		}
	}
}

// TestShardedStochasticMatchesSweep pins masked stochastic runs on the
// sharded tier: schedule masks and fault draws are keyed by the global id
// Lo+v, so any shard partition reproduces the sweep's draws.  The noise
// palette lies above every initial color, so the run's compiled table must
// cover it; the degenerate P = 1 mask keeps the fixed-point stop live
// while cycle detection must stay off, as on the sweep.
func TestShardedStochasticMatchesSweep(t *testing.T) {
	cases := map[string]Options{
		"uniform-async":   {Schedule: &Schedule{Kind: ScheduleUniformAsync, P: 0.6, Seed: 3}},
		"uniform-async-1": {Schedule: &Schedule{Kind: ScheduleUniformAsync, P: 1, Seed: 3}},
		"vertex-clock":    {Schedule: &Schedule{Kind: ScheduleVertexClock, Period: 3, Seed: 3}},
		"noise":           {Noise: &Noise{Eps: 0.05, Colors: 5, Seed: 11}},
	}
	for name, eng := range shardedSubstrates() {
		initial := randomTestColoring(6, eng.Substrate().Dims(), 3)
		for c, opt := range cases {
			opt.MaxRounds, opt.Target, opt.DetectCycles = 30, 1, true
			shardedMatchesSweep(t, name+"/"+c, eng, initial, opt)
		}
	}
}

// TestPlan pins the engine's tier choice as a table: the kernel, the
// requested worker count and the fixed-point verdict for each combination
// of options, and the rejections.
func TestPlan(t *testing.T) {
	const n = 1 << 10
	async := &Schedule{Kind: ScheduleUniformAsync, P: 0.5}
	full := &Schedule{Kind: ScheduleUniformAsync, P: 1}
	seq := &Schedule{Kind: ScheduleSequential}
	synchronous := &Schedule{}
	noise := &Noise{Eps: 0.1, Colors: 3}
	churn := tvg.Bernoulli{P: 0.5}
	cases := []struct {
		name        string
		opt         Options
		sched       *Schedule
		noise       *Noise
		resumed     bool
		bitplaneErr error
		kernel      Kernel
		workers     int
		fixedPoint  bool
		err         error
	}{
		{"auto-bitplane", Options{}, nil, nil, false, nil, KernelBitplane, 1, true, nil},
		{"auto-bitplane-parallel", Options{Parallel: true, Workers: 3}, nil, nil, false, nil, KernelBitplane, 3, true, nil},
		{"auto-frontier", Options{}, nil, nil, false, ErrBitplaneIneligible, KernelFrontier, 1, true, nil},
		{"auto-resumed-frontier", Options{}, nil, nil, true, nil, KernelFrontier, 1, true, nil},
		{"auto-history-frontier", Options{RecordHistory: true}, nil, nil, false, nil, KernelFrontier, 1, true, nil},
		{"auto-fullsweep", Options{FullSweep: true}, nil, nil, false, nil, KernelSweep, 1, true, nil},
		{"auto-sharded", Options{Parallel: true, Workers: 3}, nil, nil, false, ErrBitplaneIneligible, KernelSharded, 3, true, nil},
		{"auto-fullsweep-sharded", Options{Parallel: true, Workers: 3, FullSweep: true}, nil, nil, false, nil, KernelSharded, 3, true, nil},
		{"auto-tv-sweep", Options{TimeVarying: churn}, nil, nil, false, nil, KernelSweep, 1, false, nil},
		{"auto-tv-static", Options{TimeVarying: tvg.AlwaysOn{}}, nil, nil, false, nil, KernelSweep, 1, true, nil},
		{"auto-tv-sharded", Options{TimeVarying: churn, Parallel: true, Workers: 2}, nil, nil, false, nil, KernelSharded, 2, false, nil},
		{"auto-async-sweep", Options{}, async, nil, false, nil, KernelSweep, 1, false, nil},
		{"auto-async-full-mask", Options{}, full, nil, false, nil, KernelSweep, 1, true, nil},
		{"auto-async-sharded", Options{Parallel: true, Workers: 2}, async, nil, false, nil, KernelSharded, 2, false, nil},
		{"auto-noise-sharded", Options{Parallel: true, Workers: 2}, synchronous, noise, false, nil, KernelSharded, 2, false, nil},
		{"auto-sequential-pins-sweep", Options{Parallel: true, Workers: 4}, seq, nil, false, nil, KernelSweep, 1, true, nil},
		{"forced-sweep", Options{Kernel: KernelSweep, Parallel: true, Workers: 4}, nil, nil, false, nil, KernelSweep, 1, true, nil},
		{"forced-frontier", Options{Kernel: KernelFrontier, Parallel: true, Workers: 4}, nil, nil, false, nil, KernelFrontier, 1, true, nil},
		{"forced-bitplane", Options{Kernel: KernelBitplane, Parallel: true, Workers: 2}, nil, nil, false, nil, KernelBitplane, 2, true, nil},
		{"forced-sharded", Options{Kernel: KernelSharded, Workers: 5}, nil, nil, false, nil, KernelSharded, 5, true, nil},
		{"forced-sharded-capped", Options{Kernel: KernelSharded, Workers: 2 * n}, nil, nil, false, nil, KernelSharded, n, true, nil},
		{"forced-sharded-tv", Options{Kernel: KernelSharded, Workers: 2, TimeVarying: churn}, nil, nil, false, nil, KernelSharded, 2, false, nil},
		{"forced-sharded-async", Options{Kernel: KernelSharded, Workers: 2}, async, nil, false, nil, KernelSharded, 2, false, nil},
		{"reject-bitplane-ErrBitplaneIneligible", Options{Kernel: KernelBitplane}, nil, nil, false, ErrBitplaneIneligible, 0, 0, false, ErrBitplaneIneligible},
		{"reject-bitplane-resumed", Options{Kernel: KernelBitplane}, nil, nil, true, nil, 0, 0, false, ErrBitplaneIneligible},
		{"reject-bitplane-tv", Options{Kernel: KernelBitplane, TimeVarying: churn}, nil, nil, false, nil, 0, 0, false, ErrTimeVaryingSweepOnly},
		{"reject-frontier-tv", Options{Kernel: KernelFrontier, TimeVarying: churn}, nil, nil, false, nil, 0, 0, false, ErrTimeVaryingSweepOnly},
		{"reject-frontier-async", Options{Kernel: KernelFrontier}, async, nil, false, nil, 0, 0, false, ErrStochasticSweepOnly},
		{"reject-bitplane-noise", Options{Kernel: KernelBitplane}, synchronous, noise, false, nil, 0, 0, false, ErrStochasticSweepOnly},
		{"reject-sharded-sequential", Options{Kernel: KernelSharded}, seq, nil, false, nil, 0, 0, false, ErrStochasticSweepOnly},
		{"reject-stochastic-tv", Options{TimeVarying: churn}, async, nil, false, nil, 0, 0, false, ErrStochasticSweepOnly},
	}
	for _, c := range cases {
		kernel, workers, fixedPoint, err := plan(c.opt, c.sched, c.noise, n, c.resumed, c.bitplaneErr)
		if c.err != nil {
			if !errors.Is(err, c.err) {
				t.Errorf("%s: err = %v, want %v", c.name, err, c.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: unexpected error %v", c.name, err)
			continue
		}
		if kernel != c.kernel || workers != c.workers || fixedPoint != c.fixedPoint {
			t.Errorf("%s: plan = (%v, %d, %v), want (%v, %d, %v)", c.name, kernel, workers, fixedPoint, c.kernel, c.workers, c.fixedPoint)
		}
	}
	if _, _, _, err := plan(Options{Kernel: Kernel(99)}, nil, nil, n, false, nil); err == nil {
		t.Error("unknown kernel accepted")
	}
}

// TestShardedKernelJSONRoundTrip pins the wire name of the new tier.
func TestShardedKernelJSONRoundTrip(t *testing.T) {
	b, err := json.Marshal(KernelSharded)
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"sharded"` {
		t.Fatalf("marshal = %s, want \"sharded\"", b)
	}
	var k Kernel
	if err := json.Unmarshal(b, &k); err != nil {
		t.Fatal(err)
	}
	if k != KernelSharded {
		t.Fatalf("round-trip = %v", k)
	}
	if parsed, err := ParseKernel("sharded"); err != nil || parsed != KernelSharded {
		t.Fatalf("ParseKernel(sharded) = %v, %v", parsed, err)
	}
}

// TestShardedStepDoesNotAllocate pins the steady-state allocation behavior
// of the sharded stepper: once the shard buffers exist, stepping allocates
// nothing — the same zero-allocation contract the striped tier carries.
func TestShardedStepDoesNotAllocate(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 32, 32)
	eng := NewEngine(topo, rules.SMP{})
	initial := randomTestColoring(6, topo.Dims(), 3)
	sh := eng.NewSharded(4)
	sh.Reset(initial)
	avg := testing.AllocsPerRun(200, func() {
		sh.Step()
	})
	if avg != 0 {
		t.Fatalf("sharded step allocates %.1f allocs/op, want 0", avg)
	}
}

// TestShardedConcurrentRuns is the race-stress case behind the CI
// `-race -count=2` step: several goroutines run forced-sharded simulations
// concurrently over one shared engine (shared shard-set cache, shared
// stripe pool, pooled run states), each pinned against the sweep oracle.
func TestShardedConcurrentRuns(t *testing.T) {
	topo := grid.MustNew(grid.KindToroidalMesh, 24, 24)
	eng := NewEngine(topo, rules.SMP{})
	oracle := make([]*Result, 4)
	initials := make([]*color.Coloring, 4)
	for i := range initials {
		initials[i] = randomTestColoring(uint64(10+i), topo.Dims(), 3)
		oracle[i] = eng.Run(initials[i], Options{MaxRounds: 50, Target: 1, DetectCycles: true, Kernel: KernelSweep})
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			i := g % len(initials)
			opt := shardedOpts(Options{MaxRounds: 50, Target: 1, DetectCycles: true}, 1+g%4)
			res := eng.Run(initials[i], opt)
			// t.Fatalf must not be called off the test goroutine; record
			// through Errorf-style helpers instead.
			if res.Rounds != oracle[i].Rounds || !res.Final.Equal(oracle[i].Final) {
				t.Errorf("goroutine %d: sharded run diverged from oracle", g)
			}
		}(g)
	}
	wg.Wait()
}
