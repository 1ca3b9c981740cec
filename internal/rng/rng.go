// Package rng provides a small, deterministic, allocation-free pseudo random
// number generator used throughout the repository.
//
// Experiments must be exactly reproducible across runs and machines, so the
// repository never uses the global math/rand source.  The generator is a
// SplitMix64 core (Steele, Lea, Flood: "Fast splittable pseudorandom number
// generators") which is statistically solid for simulation workloads, trivial
// to seed, and cheap enough to be used in inner loops.
//
// Two derivation primitives keep parallel and stochastic code deterministic
// without sharing mutable state across goroutines:
//
//   - Source.Split derives a statistically independent child stream (state
//     plus its own odd gamma increment, per the SplitMix64 paper), so each
//     worker or replica owns a private generator that never contends with —
//     or correlates against — its siblings.
//   - Hash is the stateless, counter-based form: a pure function of a seed
//     and a coordinate tuple (round, vertex, ...).  Because it carries no
//     state at all, any evaluation order — any worker count, any stepping
//     tier, any checkpoint/resume boundary — produces the same draw for the
//     same coordinates, which is what makes stochastic simulation runs
//     bit-reproducible.
package rng

import (
	"math"
	"math/bits"
)

// golden is the SplitMix64 default stream increment (the odd integer closest
// to 2^64/φ), used by every Source whose gamma was never customized.
const golden = 0x9e3779b97f4a7c15

// Mix is the SplitMix64 output finalizer: a fixed bijective 64-bit mixer
// whose output is statistically independent of small changes in the input.
// It is the shared core of Uint64 and Hash.
func Mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash derives a deterministic 64-bit value from a seed and a coordinate
// tuple — the counter-based randomness primitive behind stochastic schedules
// and noisy rules.  It is a pure function: Hash(seed, r, v) is the same on
// every machine, in every evaluation order, with no generator state to
// thread, checkpoint or lock.  Distinct tuples give statistically independent
// values; the same seed with a different arity never collides with a prefix
// (each position folds in its index).
//
// Hash is the fold of HashNext over the tuple from HashStart(seed).  Inner
// loops that draw many tuples sharing a prefix — every vertex of one round,
// say — run that fold themselves, once for the shared prefix and once per
// remaining coordinate, and get exactly Hash's values.
func Hash(seed uint64, ids ...uint64) uint64 {
	h := HashStart(seed)
	for i, id := range ids {
		h = HashNext(h, i, HashKey(id))
	}
	return h
}

// HashStart is the state of Hash before any coordinate: Hash(seed) itself.
func HashStart(seed uint64) uint64 { return Mix(seed + golden) }

// HashKey premixes one coordinate for HashNext.  A coordinate that is the
// same for every draw of a loop (a stream tag, say) is premixed once, out
// of the loop.
func HashKey(id uint64) uint64 { return Mix(id + golden) }

// HashNext folds the premixed coordinate key = HashKey(id) at 0-based
// tuple position pos into the state h: Hash(seed, a, b) is
// HashNext(HashNext(HashStart(seed), 0, HashKey(a)), 1, HashKey(b)).
func HashNext(h uint64, pos int, key uint64) uint64 {
	return Mix(h + golden*uint64(pos+1) + key)
}

// Unit maps a 64-bit hash to a uniform float64 in [0, 1), the stateless twin
// of Source.Float64 (same 53-bit construction).
func Unit(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// UnitThreshold is the integer form of a comparison against Unit:
// Unit(h) < p exactly when h>>11 < UnitThreshold(p).  Both sides are exact —
// h>>11 is below 2⁵³ and so converts to float64 exactly, and scaling p by
// 2⁵³ is exact — so for an integer x = h>>11, x/2⁵³ < p iff x < ⌈p·2⁵³⌉.
// A p at or below 0, or NaN, gives 0 (never below); a p at or above 1
// gives 2⁵³ (always below).
func UnitThreshold(p float64) uint64 {
	switch {
	case !(p > 0):
		return 0
	case p >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(p * (1 << 53)))
}

// Source is a deterministic SplitMix64 pseudo random number generator.
// The zero value is a valid generator seeded with 0 on the default stream;
// prefer New to make the seed explicit.
type Source struct {
	state uint64
	// gamma is the stream increment: 0 (the zero value and every New source)
	// means the default golden-ratio increment; Split children carry their
	// own random odd gamma, which is what makes their streams independent.
	gamma uint64
}

// New returns a Source seeded with the given value.  Two Sources built with
// the same seed produce identical streams.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Seed resets the generator to the stream defined by seed (keeping the
// source's gamma, so a split child reseeds within its own stream family).
func (s *Source) Seed(seed uint64) { s.state = seed }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	g := s.gamma
	if g == 0 {
		g = golden
	}
	s.state += g
	return Mix(s.state)
}

// Uint32 returns the next 32 uniformly distributed bits.
func (s *Source) Uint32() uint32 { return uint32(s.Uint64() >> 32) }

// Int63 returns a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() >> 1) }

// Intn returns a uniform integer in [0, n).  It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's multiply-shift rejection method keeps the distribution exact
	// without a modulo bias.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul128(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul128 returns the 128-bit product of a and b as (hi, lo).
func mul128(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a0 * b0
	lo = t & mask
	c := t >> 32
	t = a1*b0 + c
	mid := t & mask
	hi = t >> 32
	t = a0*b1 + mid
	lo |= (t & mask) << 32
	hi += t >> 32
	hi += a1 * b1
	return hi, lo
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns a uniformly distributed boolean.
func (s *Source) Bool() bool { return s.Uint64()&1 == 1 }

// Perm returns a pseudo-random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle pseudo-randomizes the order of n elements using the provided swap
// function (Fisher–Yates).  It panics if n < 0.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if n < 0 {
		panic("rng: Shuffle called with n < 0")
	}
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Pick returns a uniformly chosen element of xs.  It panics on an empty slice.
func Pick[T any](s *Source, xs []T) T {
	if len(xs) == 0 {
		panic("rng: Pick called with empty slice")
	}
	return xs[s.Intn(len(xs))]
}

// Split returns a new Source whose stream is statistically independent of
// the receiver's remaining stream — the derivation primitive for handing
// each parallel worker or Monte-Carlo replica its own generator.  Following
// the SplitMix64 paper, the child gets a fresh state and its own random odd
// gamma increment (mixGamma), so parent and child walk different additive
// orbits rather than shifted copies of the same one.  Splitting is
// deterministic: the same parent state yields the same child.
func (s *Source) Split() *Source {
	state := s.Uint64()
	return &Source{state: state, gamma: mixGamma(s.Uint64())}
}

// mixGamma turns 64 arbitrary bits into a suitable stream increment: mixed
// (MurmurHash3 finalizer, per the SplitMix64 paper), forced odd, and nudged
// when the bit pattern is too regular (fewer than 24 bit-pair transitions),
// which empirically weakens the low-order output bits.
func mixGamma(z uint64) uint64 {
	z = (z ^ (z >> 33)) * 0xff51afd7ed558ccd
	z = (z ^ (z >> 33)) * 0xc4ceb9fe1a85ec53
	z = (z ^ (z >> 33)) | 1
	if bits.OnesCount64(z^(z>>1)) < 24 {
		z ^= 0xaaaaaaaaaaaaaaaa
	}
	return z
}
