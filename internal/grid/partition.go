package grid

import "sort"

// ShardRange is a contiguous run of vertex ids [Lo, Hi) owned by one shard
// of a partition.  Ranges are half-open, nonempty, and cover [0, n) in
// order, so ownership of any vertex is decided by a binary search over the
// Lo bounds.
type ShardRange struct {
	Lo, Hi int
}

// Partition cuts the index's vertex line [0, n) into at most k contiguous,
// degree-balanced ranges.  Cut points are restricted to multiples of align,
// which is how the dense tori get row-band slabs: with align = Cols every
// shard owns whole lattice rows and its halo is exactly the row above and
// the row below.  General graphs pass align = 1 and get cuts balanced on
// the forward-degree prefix sum alone.
//
// Fewer than k ranges come back when the index has fewer than k alignment
// blocks (shards are never empty); align < 1 is treated as 1.  The result
// is deterministic: equal inputs produce equal cuts on every call.
func (c *CSR) Partition(k, align int) []ShardRange {
	n := c.N()
	if n == 0 {
		return nil
	}
	if align < 1 {
		align = 1
	}
	blocks := (n + align - 1) / align
	if k > blocks {
		k = blocks
	}
	if k < 1 {
		k = 1
	}
	total := len(c.Neighbors)
	ranges := make([]ShardRange, 0, k)
	start, cum := 0, 0 // start is a block index
	for b := 0; b < blocks && len(ranges) < k-1; b++ {
		lo, hi := b*align, min((b+1)*align, n)
		cum += int(c.Off[hi] - c.Off[lo])
		// Cut after this block when the degree prefix reaches the next
		// proportional target, or when the blocks left are only just enough
		// to keep every remaining shard nonempty.
		need := k - 1 - len(ranges)
		left := blocks - (b + 1)
		if left == need || (cum*k >= total*(len(ranges)+1) && left > need) {
			ranges = append(ranges, ShardRange{Lo: start * align, Hi: hi})
			start = b + 1
		}
	}
	ranges = append(ranges, ShardRange{Lo: start * align, Hi: n})
	return ranges
}

// CSRShard is one shard of a partitioned CSR index: a contiguous owned
// range plus a halo of ghost vertices — the out-of-range vertices the owned
// rows read — and the owned rows' adjacency rewritten in shard-local ids.
//
// Local id space: owned vertex v maps to v-Lo; the ghosts follow at
// Owned()+i for the i-th halo entry.  Halo lists each ghost's global id in
// ascending order, exactly once even when degenerate tori (a dimension of
// 2) deliver the same neighbor through several ports.  HaloOwner[i] and
// HaloLocal[i] locate ghost i inside the shard that owns it (shard index
// into the Shards result and owned-local id there), which is all a halo
// exchange needs: ghost i's value is owner's buffer at HaloLocal[i].
//
// Like CSR, a CSRShard is immutable after construction and safe for
// concurrent use; per-shard mutable state (cell buffers) belongs to the
// caller.
type CSRShard struct {
	Lo, Hi    int
	Halo      []int32
	HaloOwner []int32
	HaloLocal []int32
	// Adj and Off frame the owned rows in local ids: owned-local vertex v
	// reads Adj[Off[v]:Off[v+1]].  When the parent index is degree-regular
	// the rows stay dense (Uniform()*v framing), mirroring CSR.
	Adj []int32
	Off []int32

	uniform int
	maxDeg  int
}

// Owned returns the number of vertices the shard owns.
func (s *CSRShard) Owned() int { return s.Hi - s.Lo }

// Len returns the size of the shard's local id space: owned plus ghosts.
func (s *CSRShard) Len() int { return s.Owned() + len(s.Halo) }

// Uniform returns the common local row degree (inherited from the parent
// index), 0 when irregular.
func (s *CSRShard) Uniform() int { return s.uniform }

// MaxDegree returns the largest local row degree.
func (s *CSRShard) MaxDegree() int { return s.maxDeg }

// Global returns the global vertex id of local id v: Lo+v for an owned
// vertex, its Halo entry for a ghost.
func (s *CSRShard) Global(v int32) int {
	if owned := int32(s.Hi - s.Lo); v >= owned {
		return int(s.Halo[v-owned])
	}
	return s.Lo + int(v)
}

// Shards partitions the index (see Partition for k and align) and builds
// the per-shard halo lists and local adjacency.  The result is what a
// sharded stepper iterates: each shard's rows reference only its own local
// id space, so workers touch disjoint memory apart from the explicit halo
// copies between rounds.
func (c *CSR) Shards(k, align int) []*CSRShard {
	ranges := c.Partition(k, align)
	shards := make([]*CSRShard, len(ranges))
	for i, r := range ranges {
		shards[i] = c.buildShard(r, ranges)
	}
	return shards
}

// buildShard cuts one owned range out of the index: collects the sorted
// ghost set, resolves each ghost's owner, and rewrites the owned rows in
// local ids.
func (c *CSR) buildShard(r ShardRange, ranges []ShardRange) *CSRShard {
	s := &CSRShard{
		Lo:      r.Lo,
		Hi:      r.Hi,
		uniform: c.uniform,
	}
	if r.Lo == 0 && r.Hi == c.N() {
		// One shard owns every vertex: it has no ghosts and its local ids
		// are the global ids, so its rows are the parent's own.
		s.Adj, s.Off, s.maxDeg = c.Neighbors, c.Off, c.maxDeg
		return s
	}
	lo32, hi32 := int32(r.Lo), int32(r.Hi)
	row := c.Neighbors[c.Off[r.Lo]:c.Off[r.Hi]]
	// Pass 1: the distinct out-of-range neighbors, ascending.
	seen := make(map[int32]struct{})
	for _, u := range row {
		if u < lo32 || u >= hi32 {
			seen[u] = struct{}{}
		}
	}
	s.Halo = make([]int32, 0, len(seen))
	for u := range seen {
		s.Halo = append(s.Halo, u)
	}
	sort.Slice(s.Halo, func(i, j int) bool { return s.Halo[i] < s.Halo[j] })
	s.HaloOwner = make([]int32, len(s.Halo))
	s.HaloLocal = make([]int32, len(s.Halo))
	for i, u := range s.Halo {
		o := sort.Search(len(ranges), func(j int) bool { return ranges[j].Hi > int(u) })
		s.HaloOwner[i] = int32(o)
		s.HaloLocal[i] = u - int32(ranges[o].Lo)
	}
	// Pass 2: rewrite the owned rows in local ids (owned first, ghosts
	// after), preserving row order so a sharded sweep reads neighbors in
	// exactly the order the global sweep does.
	owned := r.Hi - r.Lo
	s.Adj = make([]int32, len(row))
	s.Off = make([]int32, owned+1)
	for v := 0; v < owned; v++ {
		s.Off[v] = c.Off[r.Lo+v] - c.Off[r.Lo]
		if d := c.Degree(r.Lo + v); d > s.maxDeg {
			s.maxDeg = d
		}
	}
	s.Off[owned] = c.Off[r.Hi] - c.Off[r.Lo]
	for i, u := range row {
		if u >= lo32 && u < hi32 {
			s.Adj[i] = u - lo32
			continue
		}
		g := sort.Search(len(s.Halo), func(j int) bool { return s.Halo[j] >= u })
		s.Adj[i] = int32(owned + g)
	}
	return s
}
