package rules

import (
	"testing"

	"repro/internal/color"
)

// bitRuleFixtures enumerates every shipped BitRule under parameter values
// that exercise all kernel shapes: representable and unrepresentable black /
// target colors, every threshold, and the degenerate identity cases.
func bitRuleFixtures() []BitRule {
	out := []BitRule{
		SMP{},
		SimpleMajorityPC{},
		StrongMajority{},
	}
	for black := color.Color(1); black <= 5; black++ {
		out = append(out, SimpleMajorityPB{Black: black})
	}
	for target := color.Color(1); target <= 5; target++ {
		out = append(out, IrreversibleSMP{Target: target})
		for theta := 1; theta <= 5; theta++ {
			out = append(out, Threshold{Target: target, Theta: theta})
		}
	}
	return out
}

// TestBitKernelExhaustive is the oracle of the word-parallel kernels: for
// every shipped BitRule and every palette size the bitplane tier supports,
// it packs EVERY neighborhood (current color × four ordered neighbor ports
// over {1..k}) into word lanes, runs the kernel once, and requires the
// unpacked decisions to match Rule.Next lane for lane.  k^5 ≤ 1024 lanes,
// so the enumeration is complete, covers partial tail words, and pins the
// carry-save networks bit-exactly.
func TestBitKernelExhaustive(t *testing.T) {
	for _, rule := range bitRuleFixtures() {
		for k := 1; k <= color.MaxPlaneColors; k++ {
			kern, ok := rule.BitKernel(k)
			if !ok {
				// Only the contract-violating shapes may lack a kernel
				// (a threshold that would mint an absent color).
				if th, isTh := rule.(Threshold); isTh && th.Theta <= 0 {
					continue
				}
				t.Fatalf("%s: no kernel for k=%d", rule.Name(), k)
			}
			planes, _ := color.PlanesFor(k)

			// Enumerate all k^5 neighborhoods as lanes.
			var cur []color.Color
			var nbr [BitPorts][]color.Color
			var enumerate func(depth int, colors [5]color.Color)
			enumerate = func(depth int, colors [5]color.Color) {
				if depth == 5 {
					cur = append(cur, colors[0])
					for p := 0; p < BitPorts; p++ {
						nbr[p] = append(nbr[p], colors[1+p])
					}
					return
				}
				for c := 1; c <= k; c++ {
					colors[depth] = color.Color(c)
					enumerate(depth+1, colors)
				}
			}
			enumerate(0, [5]color.Color{})

			lanes := len(cur)
			words := color.PlaneWords(lanes)
			var st BitState
			st.Planes = planes
			pack := func(cells []color.Color) [MaxBitPlanes][]uint64 {
				var out [MaxBitPlanes][]uint64
				dst := make([][]uint64, planes)
				for b := 0; b < planes; b++ {
					out[b] = make([]uint64, words)
					dst[b] = out[b]
				}
				if !color.PackPlanes(cells, dst) {
					t.Fatalf("%s k=%d: pack failed", rule.Name(), k)
				}
				return out
			}
			st.Cur = pack(cur)
			for p := 0; p < BitPorts; p++ {
				st.Nbr[p] = pack(nbr[p])
			}
			for b := 0; b < planes; b++ {
				st.Next[b] = make([]uint64, words)
			}

			kern.StepWords(&st, 0, words)

			got := make([]color.Color, lanes)
			color.UnpackPlanes(st.Next[:planes], got)
			scratch := make([]color.Color, BitPorts)
			for i := 0; i < lanes; i++ {
				for p := 0; p < BitPorts; p++ {
					scratch[p] = nbr[p][i]
				}
				want := rule.Next(cur[i], scratch)
				if got[i] != want {
					t.Fatalf("%s k=%d: cur=%v nbrs=%v: kernel says %v, Next says %v",
						rule.Name(), k, cur[i], scratch, got[i], want)
				}
			}
		}
	}
}

// TestBitKernelRefusedBeyondFourColors: no kernel may claim palettes the
// two-plane encoding cannot represent.
func TestBitKernelRefusedBeyondFourColors(t *testing.T) {
	for _, rule := range bitRuleFixtures() {
		if _, ok := rule.BitKernel(5); ok {
			t.Errorf("%s: accepted k=5", rule.Name())
		}
		if _, ok := rule.BitKernel(0); ok {
			t.Errorf("%s: accepted k=0", rule.Name())
		}
	}
}

// TestBitKernelStripesAreIndependent runs every kernel split at arbitrary
// word boundaries and requires the same output as one full-range call — the
// property the engine relies on to stripe a step across workers.
func TestBitKernelStripesAreIndependent(t *testing.T) {
	lanes := 64*5 + 17
	words := color.PlaneWords(lanes)
	for _, rule := range bitRuleFixtures() {
		for k := 2; k <= color.MaxPlaneColors; k++ {
			kern, ok := rule.BitKernel(k)
			if !ok {
				t.Fatalf("%s: no kernel for k=%d", rule.Name(), k)
			}
			planes, _ := color.PlanesFor(k)
			x := uint64(k)*0x9E3779B97F4A7C15 + 1
			fill := func() [MaxBitPlanes][]uint64 {
				cells := make([]color.Color, lanes)
				for i := range cells {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
					cells[i] = color.Color(x%uint64(k) + 1)
				}
				var out [MaxBitPlanes][]uint64
				dst := make([][]uint64, planes)
				for b := 0; b < planes; b++ {
					out[b] = make([]uint64, words)
					dst[b] = out[b]
				}
				color.PackPlanes(cells, dst)
				return out
			}
			var st BitState
			st.Planes = planes
			st.Cur = fill()
			for p := 0; p < BitPorts; p++ {
				st.Nbr[p] = fill()
			}
			run := func(cuts ...int) [][]uint64 {
				out := make([][]uint64, planes)
				for b := 0; b < planes; b++ {
					out[b] = make([]uint64, words)
					st.Next[b] = out[b]
				}
				// Step the stripes last-first, so a kernel that wrote
				// outside its range would be caught overwriting a
				// neighbor's finished words.
				for i := len(cuts) - 1; i > 0; i-- {
					kern.StepWords(&st, cuts[i-1], cuts[i])
				}
				return out
			}
			whole := run(0, words)
			split := run(0, 1, 2, 4, words)
			for b := 0; b < planes; b++ {
				for w := 0; w < words; w++ {
					if whole[b][w] != split[b][w] {
						t.Fatalf("%s k=%d: plane %d word %d differs between whole and split kernel runs", rule.Name(), k, b, w)
					}
				}
			}
		}
	}
}
