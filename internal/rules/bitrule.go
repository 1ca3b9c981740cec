package rules

import "repro/internal/color"

// Word-parallel ("bit-sliced") rule kernels.
//
// The engine's bitplane tier packs the configuration into bit planes — bit v
// of plane b is bit b of (color-1) of vertex v — and gathers each of the
// four neighbor ports as a shifted copy of those planes.  A rule whose
// decision has a closed bitwise form can then recolor 64 vertices per word
// operation.  The kernels below are exact, and the bitrule tests pin them
// bit-identical to Rule.Next on every neighborhood.
//
// One plane (k ≤ 2) is one indicator bit per port, so a carry-save adder
// network (csa4) counts the ports per lane and every rule is a function of
// that count and the lane's current bit.
//
// Two planes (k ≤ 4) evaluate the SMP-Protocol the way the paper's
// Algorithm 1 states it, as equalities between the neighbors a, b, c, d:
// adopt r(a) when
//
//	(r(a) = r(b) ∧ r(c) ≠ r(d))  ∨  (r(a) = r(b) = r(c) = r(d))
//
// over relabelings of the ports.  Per word, the six pairwise masks ab, ac,
// ad, bc, bd, cd (the complement of the XOR in each plane, ANDed across
// planes) decide it without tallying colors:
//
//   - a port with an equal partner carries the winning color; the first in
//     port order is selected (selA = ab|ac|ad, selB = (bc|bd)&^selA,
//     selC = cd&^(selA|selB)), and its planes are the adopted encoding;
//   - the 2+2 tie is a perfect matching of equal pairs that is not one
//     color, tie = (ab&cd | ac&bd | ad&bc) &^ (ab&ac&ad), and keeps the
//     current color — the case that distinguishes SMP from the
//     Prefer-Black / Prefer-Current variants;
//   - four distinct colors select no port and keep the current color.
//
// Prefer-Current and strong majority adopt only a triple, read off the same
// masks; Prefer-Black and the thresholds compare each port with a constant
// encoding and count the matches with csa4.

// BitPorts is the number of neighbor ports of the torus topologies (equal to
// grid.Degree; rules deliberately does not import grid).
const BitPorts = 4

// MaxBitPlanes is the deepest bit slicing supported: two planes cover the
// encodings 0..3, i.e. palettes up to color.MaxPlaneColors.
const MaxBitPlanes = 2

// BitState is the word-parallel working set of one bit-sliced round.  All
// plane slices have equal length; when Planes == 1 the second plane of Cur,
// Nbr and Next may be nil and must not be touched.
//
// Lanes beyond the vertex count in the final word carry unspecified values
// on input and output; the engine masks them after the kernel runs.
type BitState struct {
	// Planes is the number of live planes (1 for k ≤ 2, 2 for k ≤ 4).
	Planes int
	// Cur[b][w] is plane b of the current configuration for lanes
	// 64w..64w+63.
	Cur [MaxBitPlanes][]uint64
	// Nbr[p][b][w] is plane b of the port-p neighbor's color, i.e. the
	// configuration planes gathered through the topology's port-p shift.
	Nbr [BitPorts][MaxBitPlanes][]uint64
	// Next receives the output planes.
	Next [MaxBitPlanes][]uint64
}

// BitKernel evaluates a rule 64 vertices at a time.
type BitKernel interface {
	// StepWords writes st.Next for words [lo, hi) from st.Cur and st.Nbr.
	// Implementations must not touch words outside the range, so the engine
	// can stripe a step across workers.
	StepWords(st *BitState, lo, hi int)
}

// BitRule is implemented by rules with an exact word-parallel kernel.
//
// Contract: the kernel returned for palette {1..k} must agree with Next on
// every configuration whose colors lie in {1..k}, and the rule must never
// recolor a vertex to a color absent from its own color and its neighbors'
// (rules that mint new colors, like Increment, cannot be bit-sliced because
// the plane count is fixed by the initial configuration).
type BitRule interface {
	Rule
	// BitKernel returns the kernel for the palette {1..k}, or ok=false when
	// the rule has no exact kernel at that palette size.
	BitKernel(k int) (BitKernel, bool)
}

// Static guarantees that every shipped rule with a closed bitwise form
// actually exposes it.
var (
	_ BitRule = SMP{}
	_ BitRule = SimpleMajorityPB{}
	_ BitRule = SimpleMajorityPC{}
	_ BitRule = StrongMajority{}
	_ BitRule = Threshold{}
	_ BitRule = IrreversibleSMP{}
)

// csa4 sums four one-bit lanes with a carry-save adder network: the result
// (b2 b1 b0) is the per-lane population count 0..4 of the four input words.
func csa4(n0, n1, n2, n3 uint64) (b2, b1, b0 uint64) {
	a, ac := n0^n1, n0&n1
	b, bc := n2^n3, n2&n3
	b0 = a ^ b
	k0 := a & b
	b1 = ac ^ bc ^ k0
	b2 = (ac & bc) | (k0 & (ac ^ bc))
	return
}

// geCount turns the adder output into the indicator "count ≥ theta".
func geCount(b2, b1, b0 uint64, theta int) uint64 {
	switch {
	case theta <= 0:
		return ^uint64(0)
	case theta == 1:
		return b2 | b1 | b0
	case theta == 2:
		return b2 | b1
	case theta == 3:
		return b2 | (b1 & b0)
	case theta == 4:
		return b2
	default:
		return 0
	}
}

// same2 is the per-lane indicator that the two-plane words (x0, x1) and
// (y0, y1) carry the same encoding.
func same2(x0, x1, y0, y1 uint64) uint64 { return ^((x0 ^ y0) | (x1 ^ y1)) }

// ports2 loads word w of both planes of the four ports a, b, c, d.
func ports2(st *BitState, w int) (a0, a1, b0, b1, c0, c1, d0, d1 uint64) {
	n := &st.Nbr
	return n[0][0][w], n[0][1][w], n[1][0][w], n[1][1][w],
		n[2][0][w], n[2][1][w], n[3][0][w], n[3][1][w]
}

// smpKernel1 is the one-plane SMP kernel.  With two colors the 2+1+1 case
// cannot occur and the 2+2 split is exactly "two ports set": adopt on a
// strict majority, keep on the tie.  The Prefer-Current and strong-majority
// rules reduce to the same function at k = 2, so they share it.
type smpKernel1 struct{}

func (smpKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		ge3 := b2 | (b1 & b0)
		eq2 := b1 &^ (b0 | b2)
		next[w] = ge3 | (eq2 & cur[w])
	}
}

// smpPairsKernel is the two-plane SMP kernel: Algorithm 1 on the six
// pairwise port-equality masks (see the file comment).  The word ranges are
// resliced to one length so the loop indexes without bounds checks.
type smpPairsKernel struct{}

func (smpPairsKernel) StepWords(st *BitState, lo, hi int) {
	n := hi - lo
	pa0, pa1 := st.Nbr[0][0][lo:hi][:n], st.Nbr[0][1][lo:hi][:n]
	pb0, pb1 := st.Nbr[1][0][lo:hi][:n], st.Nbr[1][1][lo:hi][:n]
	pc0, pc1 := st.Nbr[2][0][lo:hi][:n], st.Nbr[2][1][lo:hi][:n]
	pd0, pd1 := st.Nbr[3][0][lo:hi][:n], st.Nbr[3][1][lo:hi][:n]
	cur0, cur1 := st.Cur[0][lo:hi][:n], st.Cur[1][lo:hi][:n]
	next0, next1 := st.Next[0][lo:hi][:n], st.Next[1][lo:hi][:n]
	for i := 0; i < n; i++ {
		a0, a1, b0, b1 := pa0[i], pa1[i], pb0[i], pb1[i]
		c0, c1, d0, d1 := pc0[i], pc1[i], pd0[i], pd1[i]
		ab, ac, ad := same2(a0, a1, b0, b1), same2(a0, a1, c0, c1), same2(a0, a1, d0, d1)
		bc, bd, cd := same2(b0, b1, c0, c1), same2(b0, b1, d0, d1), same2(c0, c1, d0, d1)
		selA := ab | ac | ad
		selB := (bc | bd) &^ selA
		selC := cd &^ (selA | selB)
		tie := (ab&cd | ac&bd | ad&bc) &^ (ab & ac & ad)
		adopt := (selA | selB | selC) &^ tie
		next0[i] = (selA&a0|selB&b0|selC&c0)&adopt | cur0[i]&^adopt
		next1[i] = (selA&a1|selB&b1|selC&c1)&adopt | cur1[i]&^adopt
	}
}

// majority3Kernel2 adopts only a color on ≥ 3 ports (Prefer-Current and
// strong majority; uniqueness is automatic with four ports): a triple
// containing a picks a, and b = c = d picks b.
type majority3Kernel2 struct{}

func (majority3Kernel2) StepWords(st *BitState, lo, hi int) {
	for w := lo; w < hi; w++ {
		a0, a1, b0, b1, c0, c1, d0, d1 := ports2(st, w)
		ab, ac, ad := same2(a0, a1, b0, b1), same2(a0, a1, c0, c1), same2(a0, a1, d0, d1)
		pickA := ab&ac | ab&ad | ac&ad
		pickB := same2(b0, b1, c0, c1) & same2(b0, b1, d0, d1)
		adopt := pickA | pickB
		st.Next[0][w] = pickA&a0 | pickB&b0 | st.Cur[0][w]&^adopt
		st.Next[1][w] = pickA&a1 | pickB&b1 | st.Cur[1][w]&^adopt
	}
}

// pbKernel1 is the one-plane Prefer-Black kernel for a representable black
// encoding: black on ≥ 2 black ports, otherwise the other color (which then
// necessarily holds ≥ 3 ports).
type pbKernel1 struct{ black int }

func (k pbKernel1) StepWords(st *BitState, lo, hi int) {
	next := st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		if k.black == 1 {
			// ≥ 2 ports carry encoding 1 → black (1); else encoding 0 holds
			// ≥ 3 ports → 0.
			next[w] = b2 | b1
		} else {
			// ≥ 2 ports carry encoding 0 ⇔ count₁ ≤ 2 → black (0); else 1.
			next[w] = b2 | (b1 & b0)
		}
	}
}

// pbKernel2 is the two-plane Prefer-Black kernel: black wins any lane with
// ≥ 2 black ports (a per-port compare with the black encoding, counted by
// csa4); every other lane falls through to the SMP decision, so a unique
// majority is adopted and 2+2 ties keep the current color.
type pbKernel2 struct{ black int }

func (k pbKernel2) StepWords(st *BitState, lo, hi int) {
	smpPairsKernel{}.StepWords(st, lo, hi)
	t0 := -uint64(k.black & 1)
	t1 := -uint64((k.black >> 1) & 1)
	for w := lo; w < hi; w++ {
		a0, a1, b0, b1, c0, c1, d0, d1 := ports2(st, w)
		b2, bb1, _ := csa4(same2(a0, a1, t0, t1), same2(b0, b1, t0, t1), same2(c0, c1, t0, t1), same2(d0, d1, t0, t1))
		black := b2 | bb1
		st.Next[0][w] = t0&black | st.Next[0][w]&^black
		st.Next[1][w] = t1&black | st.Next[1][w]&^black
	}
}

// thresholdKernel1 is the one-plane irreversible threshold kernel.
type thresholdKernel1 struct{ target, theta int }

func (k thresholdKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		t0, t1, t2, t3 := n0[w], n1[w], n2[w], n3[w]
		if k.target == 0 {
			t0, t1, t2, t3 = ^t0, ^t1, ^t2, ^t3
		}
		b2, b1, b0 := csa4(t0, t1, t2, t3)
		ge := geCount(b2, b1, b0, k.theta)
		if k.target == 1 {
			next[w] = cur[w] | ge
		} else {
			next[w] = cur[w] &^ ge
		}
	}
}

// thresholdKernel2 is the two-plane irreversible threshold kernel.
type thresholdKernel2 struct{ target, theta int }

func (k thresholdKernel2) StepWords(st *BitState, lo, hi int) {
	t0mask := -uint64(k.target & 1)
	t1mask := -uint64((k.target >> 1) & 1)
	for w := lo; w < hi; w++ {
		var m [BitPorts]uint64
		for p := 0; p < BitPorts; p++ {
			lo64 := st.Nbr[p][0][w]
			hi64 := st.Nbr[p][1][w]
			if k.target&1 == 0 {
				lo64 = ^lo64
			}
			if k.target&2 == 0 {
				hi64 = ^hi64
			}
			m[p] = lo64 & hi64
		}
		b2, b1, b0 := csa4(m[0], m[1], m[2], m[3])
		ge := geCount(b2, b1, b0, k.theta)
		st.Next[0][w] = (ge & t0mask) | (st.Cur[0][w] &^ ge)
		st.Next[1][w] = (ge & t1mask) | (st.Cur[1][w] &^ ge)
	}
}

// irrevSMPKernel1 is the one-plane monotone SMP kernel: lanes move toward
// the target encoding exactly when the SMP decision lands on it.
type irrevSMPKernel1 struct{ target int }

func (k irrevSMPKernel1) StepWords(st *BitState, lo, hi int) {
	cur, next := st.Cur[0], st.Next[0]
	n0, n1, n2, n3 := st.Nbr[0][0], st.Nbr[1][0], st.Nbr[2][0], st.Nbr[3][0]
	for w := lo; w < hi; w++ {
		b2, b1, b0 := csa4(n0[w], n1[w], n2[w], n3[w])
		smp := (b2 | (b1 & b0)) | ((b1 &^ (b0 | b2)) & cur[w])
		if k.target == 1 {
			next[w] = cur[w] | smp
		} else {
			next[w] = cur[w] & smp
		}
	}
}

// irrevSMPKernel2 is the two-plane monotone SMP kernel: lanes adopt the
// target exactly where the SMP decision lands on it, i.e. where the SMP
// output carries the target (a lane that already holds it keeps it).
type irrevSMPKernel2 struct{ target int }

func (k irrevSMPKernel2) StepWords(st *BitState, lo, hi int) {
	smpPairsKernel{}.StepWords(st, lo, hi)
	t0 := -uint64(k.target & 1)
	t1 := -uint64((k.target >> 1) & 1)
	for w := lo; w < hi; w++ {
		adopt := same2(st.Next[0][w], st.Next[1][w], t0, t1)
		st.Next[0][w] = t0&adopt | st.Cur[0][w]&^adopt
		st.Next[1][w] = t1&adopt | st.Cur[1][w]&^adopt
	}
}

// identityKernel copies the configuration unchanged: the exact kernel of
// rules whose parameters make them inert on the palette (e.g. a threshold
// rule whose target color cannot occur).
type identityKernel struct{ planes int }

func (k identityKernel) StepWords(st *BitState, lo, hi int) {
	for b := 0; b < k.planes; b++ {
		copy(st.Next[b][lo:hi], st.Cur[b][lo:hi])
	}
}

// BitKernel returns the SMP-Protocol kernel.
func (SMP) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	if planes == 1 {
		return smpKernel1{}, true
	}
	return smpPairsKernel{}, true
}

// BitKernel returns the Prefer-Black kernel.  A black color outside the
// palette can never reach two neighbors, so the rule degenerates to the
// unique-majority adoption — which is exactly the SMP decision.
func (r SimpleMajorityPB) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Black) - 1
	if planes == 1 {
		if enc == 0 || enc == 1 {
			return pbKernel1{black: enc}, true
		}
		return smpKernel1{}, true
	}
	if enc >= 0 && enc < 4 {
		return pbKernel2{black: enc}, true
	}
	return smpPairsKernel{}, true
}

// BitKernel returns the Prefer-Current kernel.
func (SimpleMajorityPC) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	if planes == 1 {
		// With two colors "count ≥ 3, else keep" is the SMP decision.
		return smpKernel1{}, true
	}
	return majority3Kernel2{}, true
}

// BitKernel returns the strong-majority kernel (same decision as
// Prefer-Current on four ports).
func (StrongMajority) BitKernel(k int) (BitKernel, bool) {
	return SimpleMajorityPC{}.BitKernel(k)
}

// BitKernel returns the linear-threshold kernel.  A target outside the
// palette with a positive threshold can never activate (no neighbor carries
// it), giving the identity; with Theta ≤ 0 the rule would mint the absent
// target color, which the plane encoding cannot represent, so there is no
// kernel.
func (r Threshold) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Target) - 1
	if enc < 0 || enc >= 1<<planes {
		if r.Theta <= 0 {
			return nil, false
		}
		return identityKernel{planes: planes}, true
	}
	if planes == 1 {
		return thresholdKernel1{target: enc, theta: r.Theta}, true
	}
	return thresholdKernel2{target: enc, theta: r.Theta}, true
}

// BitKernel returns the monotone SMP kernel.  A target outside the palette
// can never be adopted (SMP only ever returns a color present in the
// neighborhood), giving the identity.
func (r IrreversibleSMP) BitKernel(k int) (BitKernel, bool) {
	planes, ok := color.PlanesFor(k)
	if !ok {
		return nil, false
	}
	enc := int(r.Target) - 1
	if enc < 0 || enc >= 1<<planes {
		return identityKernel{planes: planes}, true
	}
	if planes == 1 {
		return irrevSMPKernel1{target: enc}, true
	}
	return irrevSMPKernel2{target: enc}, true
}
