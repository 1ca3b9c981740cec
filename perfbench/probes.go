package main

import (
	"fmt"
	"net/http"
	"runtime"
	"time"

	"repro/dynmon"
	"repro/internal/color"
	"repro/internal/dynamo"
	"repro/internal/graphs"
	"repro/internal/grid"
)

// scale holds every input size of the benchmark.
type scale struct {
	// tori-k5
	k5MinSides, k5RandSides []int // on each torus
	k5Rounds, k5SampleEvery int
	k5MinOps                int
	// tori-wide
	wide3Sides, wide5Sides             []int
	wide3Rounds, wide5Rounds           int
	wide3SampleEvery, wide5SampleEvery int
	wideMinOps                         int
	// ensemble-eps
	ensSide                   int
	ensReplicas, ensRounds    int
	ensEps                    []float64
	ensSampleEvery, ensMinOps int
	// dynmond-mix
	dmSide, dmRounds, dmGraphN, dmPassOps int
	// probes
	probeSide, probeWideSide, probeRounds int
}

var fullScale = scale{
	k5MinSides: []int{128, 256, 384, 512}, k5RandSides: []int{128, 192, 224, 256, 320},
	k5Rounds: 64, k5SampleEvery: 8, k5MinOps: 100,
	wide3Sides: []int{1024, 1280}, wide5Sides: []int{1024},
	wide3Rounds: 128, wide5Rounds: 8, wide3SampleEvery: 32, wide5SampleEvery: 8, wideMinOps: 40,
	ensSide: 96, ensReplicas: 64, ensRounds: 16, ensEps: []float64{0, 0.01},
	ensSampleEvery: 6, ensMinOps: 40,
	dmSide: 64, dmRounds: 32, dmGraphN: 2000, dmPassOps: 600,
	probeSide: 256, probeWideSide: 1024, probeRounds: 16,
}

var tinyScale = scale{
	k5MinSides: []int{16}, k5RandSides: []int{16, 24},
	k5Rounds: 8, k5SampleEvery: 1, k5MinOps: 1,
	wide3Sides: []int{64}, wide5Sides: []int{64},
	wide3Rounds: 4, wide5Rounds: 4, wide3SampleEvery: 1, wide5SampleEvery: 1, wideMinOps: 1,
	ensSide: 16, ensReplicas: 4, ensRounds: 4, ensEps: []float64{0, 0.05},
	ensSampleEvery: 1, ensMinOps: 1,
	dmSide: 16, dmRounds: 8, dmGraphN: 100, dmPassOps: 40,
	probeSide: 32, probeWideSide: 384, probeRounds: 4,
}

// nproc bounds the benchmark's workers and connections.
func (b *bench) nproc() int { return min(runtime.NumCPU(), runtime.GOMAXPROCS(0)) }

// runProbes measures, with spans, every layer through its own entry point
// at the scale's probe sizes.  The traced pass overrides the probe's value
// for every layer the workload itself exercised.
func runProbes(b *bench, tr *tracer, ls *layerStats) error {
	sc, seed, ctx := b.sc, b.opt.seed, b.ctx
	timed := func(name string, f func() error) error {
		sp := tr.begin(nil, "probe."+name)
		err := f()
		ls.addDur(name, sp.end(""))
		return err
	}

	// internal/grid: CSR build and partition.
	side := sc.probeSide
	topo, err := grid.ByName("toroidal-mesh", side, side)
	if err != nil {
		return err
	}
	var csr *grid.CSR
	timed("grid.csr_build", func() error { csr = grid.BuildCSR(topo); return nil })
	timed("grid.partition", func() error { csr.Shards(b.nproc(), side); return nil })

	// internal/graphs.
	if err := timed("graphs.generate", func() error {
		_, err := graphs.GenerateByName("barabasi-albert", sc.dmGraphN, map[string]float64{"m": 2}, seed)
		return err
	}); err != nil {
		return err
	}

	// internal/color: bit planes of a k = 3 coloring, lanes of k = 2 replicas.
	sys3, err := dynmon.New(dynmon.Mesh(side, side), dynmon.Colors(3))
	if err != nil {
		return err
	}
	cells := sys3.RandomColoring(seed).Cells()
	planes := make([][]uint64, 2)
	for i := range planes {
		planes[i] = make([]uint64, color.PlaneWords(len(cells)))
	}
	if err := timed("color.pack", func() error {
		if !color.PackPlanes(cells, planes) {
			return fmt.Errorf("PackPlanes refused a 3-color coloring")
		}
		return nil
	}); err != nil {
		return err
	}
	back := make([]color.Color, len(cells))
	timed("color.unpack", func() error { color.UnpackPlanes(planes, back); return nil })
	ens, err := dynmon.New(dynmon.Mesh(sc.ensSide, sc.ensSide), dynmon.Colors(2))
	if err != nil {
		return err
	}
	lanes := make([]*dynmon.Coloring, 64)
	for i := range lanes {
		lanes[i] = ens.RandomColoring(seed + uint64(i))
	}
	words := make([]uint64, ens.N())
	if err := timed("color.pack_lanes", func() error {
		if _, ok := color.PackLanes(lanes, words); !ok {
			return fmt.Errorf("PackLanes refused 2-color replicas")
		}
		return nil
	}); err != nil {
		return err
	}

	// internal/dynamo: the tight constructions.
	p5, _ := color.NewPalette(5)
	for _, name := range paperTori {
		t, err := grid.ByName(name, side, side)
		if err != nil {
			return err
		}
		if err := timed("dynamo.minimum", func() error {
			_, err := dynamo.Minimum(t.Kind(), side, side, 1, p5)
			return err
		}); err != nil {
			return err
		}
	}

	// dynmon: cold system builds on sizes no run has used, then warm ones.
	for i := 1; i <= 3; i++ {
		spec := fmt.Appendf(nil, `{"substrate":{"topology":{"name":"torus-cordalis","rows":%d,"cols":%d}},"colors":5}`, side+2*i+1, side+2*i+1)
		sp, err := dynmon.ParseSpec(spec)
		if err != nil {
			return err
		}
		for _, name := range []string{"dynmon.system_build_cold", "dynmon.system_build_warm"} {
			if err := timed(name, func() error { _, err := sp.New(); return err }); err != nil {
				return err
			}
		}
	}

	// internal/sim tiers, through the library path.
	for _, spec := range [][]byte{
		minimumSpec("toroidal-mesh", side, 5),
		randomSpec("toroidal-mesh", side, 5, seed, sc.probeRounds, 0, ""),
		noisySpec(sc.ensSide, seed, sc.ensRounds),
	} {
		if _, _, err := libraryRun(ctx, nil, nil, spec, nil); err != nil { // warm-up
			return err
		}
		root := tr.begin(nil, "probe.run")
		_, _, err := libraryRun(ctx, tr, root, spec, ls)
		root.end("")
		if err != nil {
			return err
		}
		fs, err := dynmon.ParseFileSpec(spec)
		if err != nil {
			return err
		}
		if err := timed("dynmon.digest", func() error { _, err := fs.Digest(); return err }); err != nil {
			return err
		}
	}
	// Speed-up of the parallel tiers: the same spec, pinned to the tier, at
	// nproc workers against one.  It is the ratio of the median
	// steady-state round times, which one round stalled by load from
	// outside the benchmark does not move.
	for _, tier := range []struct {
		name string
		k    int
	}{{"bitplane", 3}, {"sharded", 5}} {
		var roundMs [2]float64
		for j, workers := range []int{b.nproc(), 1} {
			spec := randomSpec("toroidal-mesh", sc.probeWideSide, tier.k, seed, sc.probeRounds, workers, tier.name)
			var lsRun *layerStats
			if j == 0 {
				lsRun = ls
			}
			// The first run builds the engine state of a new size; time
			// the second.
			if _, _, err := libraryRun(ctx, nil, nil, spec, nil); err != nil {
				return err
			}
			root := tr.begin(nil, "probe.speedup")
			_, info, err := libraryRun(ctx, tr, root, spec, lsRun)
			root.end(fmt.Sprintf("workers=%d", workers))
			if err != nil {
				return err
			}
			if info.kernel != tier.name {
				return fmt.Errorf("speed-up probe for %s ran on %s", tier.name, info.kernel)
			}
			var rounds []float64
			for _, rt := range info.steady {
				rounds = append(rounds, float64(rt.ns)/1e6)
			}
			roundMs[j] = median(rounds)
		}
		ls.set("sim."+tier.name+".speedup", roundMs[1]/roundMs[0])
	}
	// The bit-sliced batch tier: 64 replicas per word.
	se := ens.NewSession(b.nproc())
	var batch []*dynmon.Result
	sp := tr.begin(nil, "probe.sim.bitslice")
	batch, err = se.RunBatch(ctx, lanes, dynmon.MaxRounds(sc.ensRounds), dynmon.StopWhenMonochromatic(), dynmon.DetectCycles())
	d := sp.end("")
	if err != nil {
		return err
	}
	maxRounds := 0
	for _, r := range batch {
		maxRounds = max(maxRounds, r.Rounds)
	}
	ls.set("sim.bitslice.ns_per_lane_vertex_round", float64(d.Nanoseconds())/float64(len(lanes)*ens.N()*max(maxRounds, 1)))

	// dynmon.Ensemble: one-point ensembles, deterministic and noisy.
	for _, pt := range []struct {
		name string
		eps  float64
	}{{"ensemble.det_point", 0}, {"ensemble.noisy_point", sc.ensEps[len(sc.ensEps)-1]}} {
		spec := ensembleSpec(sc.ensSide, sc.ensReplicas, sc.ensRounds, []float64{pt.eps}, 0.5, seed)
		if err := timed(pt.name, func() error {
			_, _, err := ensembleRun(b, nil, nil, nil, spec, b.nproc())
			return err
		}); err != nil {
			return err
		}
	}
	return probeServer(b, tr, ls)
}

// noisySpec is one eps-faulty replica: the stochastic scalar path.
func noisySpec(side int, seed uint64, rounds int) []byte {
	return fmt.Appendf(nil, `{"system":{"substrate":{"topology":{"name":"toroidal-mesh","rows":%d,"cols":%d}},"colors":2,"rule":"smp"},"initial":{"config":"bernoulli","density":0.5,"seed":%d},"run":{"target":1,"max_rounds":%d,"noise":{"eps":0.01,"seed":%d}}}`,
		side, side, seed, rounds, seed+1)
}

// probeServer sends dynmond-mix requests one at a time to a fresh server:
// hit and miss latencies, the server's counters, and the serve overhead,
// the request latency of a miss minus the library time for the same spec.
func probeServer(b *bench, tr *tracer, ls *layerStats) error {
	d := newDynmondMix(b)
	srv, err := d.startWarm()
	if err != nil {
		return err
	}
	defer srv.close()
	var hit, miss, overhead []float64
	n := b.sc.dmPassOps / 10
	for i := 0; i < n*20; i += 20 {
		for _, j := range []int{i, i + 12 + (i/20)%8} { // a hit, then a miss or a cold spec
			spec, class := d.request(j)
			sp := tr.begin(nil, "probe.dynserve.request")
			_, status, err := srv.post(nil, nil, spec)
			lat := sp.end(class)
			if err != nil || status != http.StatusOK {
				return fmt.Errorf("probe request %d: status %d: %v", j, status, err)
			}
			if class == "hit" {
				hit = append(hit, ms(lat))
				continue
			}
			miss = append(miss, ms(lat))
			t0 := time.Now()
			if _, _, err := libraryRun(b.ctx, nil, nil, spec, nil); err != nil {
				return err
			}
			overhead = append(overhead, ms(lat)-ms(time.Since(t0)))
		}
	}
	ls.set("dynserve.hit_p50_ms", median(hit))
	ls.set("dynserve.miss_p50_ms", median(miss))
	ls.set("dynserve.serve_overhead_ms", median(overhead))
	setServerCounters(ls, srv.srv.Metrics().Snapshot())
	return nil
}
