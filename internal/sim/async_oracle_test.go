package sim

import (
	"repro/internal/color"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/rules"
)

// AsyncOrder selects the vertex activation order of the asynchronous
// (sequential-scan) variant.
type AsyncOrder int

const (
	// AsyncRaster activates vertices in row-major order each sweep.
	AsyncRaster AsyncOrder = iota
	// AsyncRandom activates vertices in a fresh random permutation each
	// sweep (requires a Source).
	AsyncRandom
)

// AsyncOptions controls RunAsync.
type AsyncOptions struct {
	// MaxSweeps bounds the number of full sweeps over the vertex set.  Zero
	// selects DefaultMaxRounds.
	MaxSweeps int
	// Order selects the activation order.
	Order AsyncOrder
	// Seed selects the AsyncRandom permutation stream: sweep s uses the
	// permutation drawn from rng.New(rng.Hash(Seed, s)) — the same stateless
	// derivation the ScheduleRandomSequential driver uses, which is what
	// makes the two paths comparable draw for draw.  AsyncRaster ignores it.
	Seed uint64
	// StopWhenMonochromatic stops as soon as all vertices agree.
	StopWhenMonochromatic bool
}

// AsyncResult describes a finished asynchronous run.
type AsyncResult struct {
	// Sweeps is the number of full sweeps executed.
	Sweeps int
	// FixedPoint reports that the final sweep changed nothing.
	FixedPoint bool
	// Monochromatic reports a monochromatic final configuration of color
	// FinalColor.
	Monochromatic bool
	FinalColor    color.Color
	// Final is the final configuration.
	Final *color.Coloring
}

// RunAsync evolves the initial coloring with in-place (asynchronous) updates:
// each sweep visits every vertex once and immediately commits its new color,
// so later vertices in the same sweep observe earlier updates.
//
// The sequential schedules of the tiered engine (Options.Schedule with
// ScheduleSequential or ScheduleRandomSequential) are the integrated form of
// this loop, with streaming, checkpoint/resume and the full stop-condition
// set.  RunAsync is the standalone differential-test oracle those drivers
// are pinned against (TestScheduleSequentialMatchesRunAsync): it keeps the
// rules.Counts path and shares no stepping code with the engine.
func (e *Engine) RunAsync(initial *color.Coloring, opt AsyncOptions) *AsyncResult {
	d := e.sub.Dims()
	if initial.Dims() != d {
		panic("sim: RunAsync dimension mismatch")
	}
	maxSweeps := opt.MaxSweeps
	if maxSweeps <= 0 {
		maxSweeps = e.sub.DefaultMaxRounds()
	}

	cur := initial.Clone()
	cells := cur.Cells()
	res := &AsyncResult{}
	order := make([]int, d.N())
	for i := range order {
		order[i] = i
	}

	fwd, off := e.csr.Neighbors, e.csr.Off
	var scratch4 [grid.Degree]color.Color
	scratch := make([]color.Color, 0, e.maxDeg)
	for sweep := 1; sweep <= maxSweeps; sweep++ {
		if opt.Order == AsyncRandom {
			for i := range order {
				order[i] = i
			}
			src := rng.New(rng.Hash(opt.Seed, uint64(sweep)))
			src.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		}
		changed := 0
		switch cr := e.countRule; {
		case e.deg4 && cr != nil:
			for _, v := range order {
				base := v * grid.Degree
				var cs rules.Counts
				cs.Add(cells[fwd[base]])
				cs.Add(cells[fwd[base+1]])
				cs.Add(cells[fwd[base+2]])
				cs.Add(cells[fwd[base+3]])
				nc := cr.NextFromCounts(cells[v], cs)
				if nc != cells[v] {
					cells[v] = nc
					changed++
				}
			}
		case e.deg4:
			for _, v := range order {
				base := v * grid.Degree
				scratch4[0] = cells[fwd[base]]
				scratch4[1] = cells[fwd[base+1]]
				scratch4[2] = cells[fwd[base+2]]
				scratch4[3] = cells[fwd[base+3]]
				nc := e.rule.Next(cells[v], scratch4[:])
				if nc != cells[v] {
					cells[v] = nc
					changed++
				}
			}
		default:
			for _, v := range order {
				row := fwd[off[v]:off[v+1]]
				cur := cells[v]
				var nc color.Color
				fits := false
				if cr != nil {
					var cs rules.Counts
					fits = true
					for _, u := range row {
						if !cs.AddOK(cells[u]) {
							fits = false
							break
						}
					}
					if fits {
						nc = cr.NextFromCounts(cur, cs)
					}
				}
				if !fits {
					scratch = scratch[:0]
					for _, u := range row {
						scratch = append(scratch, cells[u])
					}
					nc = e.rule.Next(cur, scratch)
				}
				if nc != cur {
					cells[v] = nc
					changed++
				}
			}
		}
		res.Sweeps = sweep
		if changed == 0 {
			res.FixedPoint = true
			break
		}
		if opt.StopWhenMonochromatic {
			if _, ok := cur.IsMonochromatic(); ok {
				break
			}
		}
	}
	res.Final = cur
	res.FinalColor, res.Monochromatic = cur.IsMonochromatic()
	return res
}
