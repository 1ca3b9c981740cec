package rules

import (
	"math"
	"testing"

	"repro/internal/color"
	"repro/internal/rng"
)

func TestFaultyZeroEpsIsInner(t *testing.T) {
	inner := SMP{}
	r := Faulty{Inner: inner, Eps: 0, K: 4, Seed: 9}
	neighbors := []color.Color{1, 1, 2, 3}
	for round := uint64(0); round < 16; round++ {
		for v := uint64(0); v < 64; v++ {
			want := inner.Next(2, neighbors)
			if got := r.NextAt(round, v, 2, neighbors); got != want {
				t.Fatalf("eps=0 NextAt(%d,%d) = %v, want inner %v", round, v, got, want)
			}
		}
	}
}

func TestFaultyFullEpsAlwaysFaults(t *testing.T) {
	r := Faulty{Inner: SMP{}, Eps: 1, K: 4, Seed: 3}
	seen := map[color.Color]bool{}
	for v := uint64(0); v < 1000; v++ {
		c := r.NextFromCountsAt(1, v, 2, CountsOf([]color.Color{1, 1, 1, 1}))
		if c < 1 || c > 4 {
			t.Fatalf("faulted color %v outside palette {1..4}", c)
		}
		seen[c] = true
	}
	for c := color.Color(1); c <= 4; c++ {
		if !seen[c] {
			t.Fatalf("eps=1 never drew color %v", c)
		}
	}
}

func TestFaultyDeterministicAndCoordinateDependent(t *testing.T) {
	r := Faulty{Inner: SMP{}, Eps: 0.5, K: 4, Seed: 17}
	cs := CountsOf([]color.Color{1, 2, 3, 4})
	a := r.NextFromCountsAt(5, 7, 2, cs)
	if b := r.NextFromCountsAt(5, 7, 2, cs); a != b {
		t.Fatal("fault draw is not deterministic for fixed coordinates")
	}
	// Across many coordinates, draws must differ (the fault stream is not
	// constant) while any single coordinate is stable.
	varied := false
	for v := uint64(0); v < 100 && !varied; v++ {
		varied = r.NextFromCountsAt(5, v, 2, cs) != a
	}
	if !varied {
		t.Fatal("fault draw ignores the vertex coordinate")
	}
	other := Faulty{Inner: SMP{}, Eps: 0.5, K: 4, Seed: 18}
	differs := false
	for v := uint64(0); v < 100 && !differs; v++ {
		differs = r.NextFromCountsAt(5, v, 2, cs) != other.NextFromCountsAt(5, v, 2, cs)
	}
	if !differs {
		t.Fatal("fault draw ignores the seed")
	}
}

func TestFaultyRateMatchesEps(t *testing.T) {
	const eps = 0.1
	// Pick a neighborhood where the inner rule's answer (1) has only a 1/K
	// chance of coinciding with a faulted draw, then count deviations.
	r := Faulty{Inner: SMP{}, Eps: eps, K: 4, Seed: 41}
	cs := CountsOf([]color.Color{1, 1, 1, 1})
	const trials = 40000
	faultedAway := 0
	for v := uint64(0); v < trials; v++ {
		if r.NextFromCountsAt(2, v, 2, cs) != 1 {
			faultedAway++
		}
	}
	// A fault lands on a non-inner color 3 out of 4 times, so the observable
	// deviation rate is eps * (K-1)/K = 0.075.
	got := float64(faultedAway) / trials
	if math.Abs(got-eps*3/4) > 0.01 {
		t.Fatalf("observable fault rate %v, want ~%v", got, eps*3/4)
	}
}

func TestFaultyNextDelegatesNoiseFree(t *testing.T) {
	r := Faulty{Inner: SMP{}, Eps: 1, K: 4, Seed: 1}
	neighbors := []color.Color{3, 3, 3, 1}
	if got, want := r.Next(1, neighbors), (SMP{}).Next(1, neighbors); got != want {
		t.Fatalf("Next = %v, want noise-free inner %v", got, want)
	}
	if got, want := r.NextFromCounts(1, CountsOf(neighbors)), (SMP{}).NextFromCounts(1, CountsOf(neighbors)); got != want {
		t.Fatalf("NextFromCounts = %v, want noise-free inner %v", got, want)
	}
	if r.Name() != "faulty-smp" {
		t.Fatalf("Name = %q", r.Name())
	}
}

func TestFaultyCountsAgreesWithSlice(t *testing.T) {
	r := Faulty{Inner: StrongMajority{}, Eps: 0.3, K: 4, Seed: 77}
	neighborhoods := [][]color.Color{
		{1, 1, 1, 1}, {1, 2, 3, 4}, {2, 2, 3, 3}, {4, 4, 4, 1},
	}
	for _, ns := range neighborhoods {
		for v := uint64(0); v < 32; v++ {
			a := r.NextAt(3, v, 2, ns)
			b := r.NextFromCountsAt(3, v, 2, CountsOf(ns))
			if a != b {
				t.Fatalf("NextAt and NextFromCountsAt disagree on %v at v=%d: %v vs %v", ns, v, a, b)
			}
		}
	}
}

func TestFaultyValidate(t *testing.T) {
	good := Faulty{Inner: SMP{}, Eps: 0.1, K: 4}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Faulty{
		{Inner: nil, Eps: 0.1, K: 4},
		{Inner: SMP{}, Eps: -0.1, K: 4},
		{Inner: SMP{}, Eps: 1.1, K: 4},
		{Inner: SMP{}, Eps: 0.1, K: 0},
		{Inner: SMP{}, Eps: math.NaN(), K: 4},
		{Inner: SMP{}, Eps: math.Inf(1), K: 4},
		{Inner: SMP{}, Eps: math.Inf(-1), K: 4},
	}
	for i, r := range bad {
		if r.Validate() == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, r)
		}
	}
}

// TestFaultRoundMatchesFaultDrawReference pins the per-round draw against
// the noise model written out from rng.Hash and rng.Unit — the form every
// committed noisy result was produced with — at fault probabilities where
// the integer threshold could round differently (tiny, one ulp below 1,
// exact multiples of 2⁻⁵³), for FaultDraw and FaultRound alike.
func TestFaultRoundMatchesFaultDrawReference(t *testing.T) {
	reference := func(seed, round, v uint64, eps float64, k int, next color.Color) color.Color {
		if eps <= 0 || k < 1 {
			return next
		}
		if rng.Unit(rng.Hash(seed, round, v, 1)) >= eps {
			return next
		}
		return color.Color(1 + rng.Hash(seed, round, v, 2)%uint64(k))
	}
	epss := []float64{
		0, 1e-300, 0.01, 0.5, 1 - 0x1p-53, 1,
		3 * 0x1p-53, 0x1p-10, 12345 * 0x1p-40, 0.375,
	}
	for _, eps := range epss {
		for _, k := range []int{0, 1, 2, 5} {
			for _, seed := range []uint64{0, 9, ^uint64(0)} {
				for round := uint64(0); round < 6; round++ {
					f := NewFaultRound(seed, round, eps, k)
					for v := uint64(0); v < 300; v++ {
						next := color.Color(1 + v%3)
						want := reference(seed, round, v, eps, k, next)
						if got := f.Apply(v, next); got != want {
							t.Fatalf("eps %v k %d seed %#x round %d v %d: FaultRound %v, reference %v", eps, k, seed, round, v, got, want)
						}
						if got := FaultDraw(seed, round, v, eps, k, next); got != want {
							t.Fatalf("eps %v k %d seed %#x round %d v %d: FaultDraw %v, reference %v", eps, k, seed, round, v, got, want)
						}
					}
				}
			}
		}
	}
	var zero FaultRound
	if got := zero.Apply(3, 2); got != 2 {
		t.Fatalf("zero FaultRound faulted to %v", got)
	}
}

func TestThresholdThetaRegistryEntries(t *testing.T) {
	for theta := 1; theta <= 4; theta++ {
		name := map[int]string{1: "threshold-1", 2: "threshold-2", 3: "threshold-3", 4: "threshold-4"}[theta]
		r, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		th, ok := r.(Threshold)
		if !ok {
			t.Fatalf("%s is %T, want Threshold", name, r)
		}
		if th.Theta != theta || th.Target != 1 {
			t.Fatalf("%s = %+v", name, th)
		}
	}
}
