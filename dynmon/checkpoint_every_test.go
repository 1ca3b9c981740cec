package dynmon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"
)

// cadenceSystem builds a 32x32 mesh minimum-dynamo run (31 rounds), long
// enough for several cadence firings.
func cadenceSystem(t *testing.T) (*System, *Coloring) {
	t.Helper()
	sys, err := New(Mesh(32, 32), Colors(5))
	if err != nil {
		t.Fatal(err)
	}
	cons, err := sys.MinimumDynamo(1)
	if err != nil {
		t.Fatal(err)
	}
	return sys, cons.Coloring
}

// TestCheckpointEveryCadence pins the cadence contract: checkpoints arrive
// at rounds every, 2*every, ..., never at the terminal round, and every one
// of them resumes to a Result identical to the uninterrupted run.
func TestCheckpointEveryCadence(t *testing.T) {
	sys, initial := cadenceSystem(t)
	ctx := context.Background()
	opts := []RunOption{Target(1), StopWhenMonochromatic(), DetectCycles()}

	want, err := sys.Run(ctx, initial, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var cps []*Checkpoint
	got, err := sys.Run(ctx, initial, append(opts[:len(opts):len(opts)],
		CheckpointEvery(5, func(cp *Checkpoint) error { cps = append(cps, cp); return nil }))...)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("cadence-observed run diverged:\n got %+v\nwant %+v", got, want)
	}
	if len(cps) == 0 {
		t.Fatal("no checkpoints fired")
	}
	for i, cp := range cps {
		if wantRound := 5 * (i + 1); cp.Round != wantRound {
			t.Fatalf("checkpoint %d at round %d, want %d", i, cp.Round, wantRound)
		}
		if cp.Round >= want.Rounds {
			t.Fatalf("cadence fired at terminal round %d (run has %d rounds)", cp.Round, want.Rounds)
		}
		res, err := sys.Resume(ctx, cp)
		if err != nil {
			t.Fatalf("resume from round %d: %v", cp.Round, err)
		}
		if !resultsEqualJSON(t, res, want) {
			t.Fatalf("resume from round %d diverged from uninterrupted run", cp.Round)
		}
	}
}

// TestCheckpointEveryOnResumeSteps verifies the cadence keeps firing on a
// resumed stream — the dynserve evict/re-attach path: run to round 10, evict,
// resume with cadence, and check both the resumed cadence rounds and the
// bit-identical terminal result.
func TestCheckpointEveryOnResumeSteps(t *testing.T) {
	sys, initial := cadenceSystem(t)
	ctx := context.Background()
	opts := []RunOption{Target(1), StopWhenMonochromatic(), DetectCycles()}

	want, err := sys.Run(ctx, initial, opts...)
	if err != nil {
		t.Fatal(err)
	}

	var evictCP *Checkpoint
	for st, err := range sys.Steps(ctx, initial, opts...) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Round() == 10 {
			if evictCP, err = st.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			break
		}
	}

	var rounds []int
	var final *Result
	for st, err := range sys.ResumeSteps(ctx, evictCP,
		CheckpointEvery(4, func(cp *Checkpoint) error { rounds = append(rounds, cp.Round); return nil })) {
		if err != nil {
			t.Fatal(err)
		}
		if st.Done() {
			final = st.Result()
		}
	}
	if final == nil {
		t.Fatal("resumed stream never finished")
	}
	if !resultsEqualJSON(t, final, want) {
		t.Fatal("resumed stream's terminal result diverged from uninterrupted run")
	}
	if len(rounds) == 0 {
		t.Fatal("cadence never fired on the resumed stream")
	}
	// Resumed at round 11, cadence 4: first firing at the first multiple of
	// 4 past the resume point.
	if rounds[0] != 12 {
		t.Fatalf("first resumed cadence at round %d, want 12", rounds[0])
	}
}

// TestCheckpointEverySinkErrorStopsRun pins the durability contract: a sink
// that cannot persist stops the run with its error.
func TestCheckpointEverySinkErrorStopsRun(t *testing.T) {
	sys, initial := cadenceSystem(t)
	sinkErr := errors.New("disk full")
	_, err := sys.Run(context.Background(), initial, Target(1), StopWhenMonochromatic(),
		CheckpointEvery(3, func(*Checkpoint) error { return sinkErr }))
	if !errors.Is(err, sinkErr) {
		t.Fatalf("run error = %v, want wrapped %v", err, sinkErr)
	}
}

// resultsEqualJSON compares two results by their wire form, the same
// equality the server's determinism contract speaks.
func resultsEqualJSON(t *testing.T, a, b *Result) bool {
	t.Helper()
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	return string(aj) == string(bj)
}

// TestCheckpointEveryCadenceBitplane is the cadence contract on runs that
// start on the bitplane tier (k = 3): every checkpoint resumes on a scalar
// tier, yet must return the uninterrupted run's Result bytes, tier report
// included.  The random coloring oscillates above the downshift threshold,
// so its sequential run stays on the bitplane tier to the round budget; the
// bernoulli coloring's sequential run hands over to the frontier at round
// 13, between checkpoints; with Parallel(2) no run downshifts and the
// Result reports the worker count.
func TestCheckpointEveryCadenceBitplane(t *testing.T) {
	sys, err := New(Mesh(32, 32), Colors(3))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, tc := range []struct {
		name      string
		initial   InitialSpec
		opts      []RunOption
		downshift int
	}{
		{"random/sequential", InitialSpec{Config: "random", Seed: 3}, nil, 0},
		{"random/parallel2", InitialSpec{Config: "random", Seed: 3}, []RunOption{Parallel(2)}, 0},
		{"bernoulli/sequential", InitialSpec{Config: "bernoulli", Seed: 3, Density: 0.45}, nil, 13},
		{"bernoulli/parallel2", InitialSpec{Config: "bernoulli", Seed: 3, Density: 0.45}, []RunOption{Parallel(2)}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cons, err := sys.BuildInitial(&tc.initial, 1)
			if err != nil {
				t.Fatal(err)
			}
			opts := append([]RunOption{MaxRounds(40), Target(1)}, tc.opts...)
			want, err := sys.Run(ctx, cons.Coloring, opts...)
			if err != nil {
				t.Fatal(err)
			}
			if want.Kernel != KernelBitplane || want.Downshift != tc.downshift {
				t.Fatalf("uninterrupted run: kernel %v downshift %d, want bitplane %d", want.Kernel, want.Downshift, tc.downshift)
			}
			var cps []*Checkpoint
			if _, err := sys.Run(ctx, cons.Coloring, append(opts,
				CheckpointEvery(5, func(cp *Checkpoint) error { cps = append(cps, cp); return nil }))...); err != nil {
				t.Fatal(err)
			}
			if len(cps) != 7 {
				t.Fatalf("%d checkpoints fired, want 7", len(cps))
			}
			for _, cp := range cps {
				// Round-trip through the wire form, as dynserve does.
				raw, err := cp.JSON()
				if err != nil {
					t.Fatal(err)
				}
				parsed, err := ParseCheckpoint(raw)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Resume(ctx, parsed)
				if err != nil {
					t.Fatalf("resume from round %d: %v", cp.Round, err)
				}
				if !resultsEqualJSON(t, res, want) {
					t.Fatalf("resume from round %d: kernel %v workers %d downshift %d, want %v %d %d",
						cp.Round, res.Kernel, res.Workers, res.Downshift, want.Kernel, want.Workers, want.Downshift)
				}
			}
		})
	}
}
