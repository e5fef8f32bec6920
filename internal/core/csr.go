package core

import (
	"fmt"
	"math/bits"

	"alicoco/internal/fzio"
)

// csr is compressed-sparse-row adjacency grouped by edge kind: the edges of
// one node are contiguous and ordered by kind, and each non-empty (node,
// kind) group is one run of edges. The index is sized by what the
// direction holds, not by the nodes × kinds grid — most (node, kind)
// groups are empty, and an empty group costs nothing:
//
//   - groups[id] packs node id's kind mask (bit k is set when the node has
//     kind-k edges) into its low groupKindBits bits, and above them the
//     node's rank: how many non-empty groups the nodes before it hold;
//   - starts[r] is where the r-th non-empty group begins in edges, and a
//     final entry equals len(edges).
//
// The edges of node id with kinds in [lo, hi) are then edges[starts[a] :
// starts[b]] with a = rank + popcount(mask below lo) and b = rank +
// popcount(mask below hi): one load more than a dense offset array, a
// popcount, and no loop over kinds or edges. On disk a direction is still
// the dense nodes × kinds + 1 offset array (persist_frozen.go): readCSR
// builds this index from it and writeCSR expands it back.
type csr struct {
	groups []uint32
	starts []int32
	edges  []HalfEdge
}

const (
	// groupKindBits is the width of the kind mask in a groups entry.
	groupKindBits = 6
	groupKindMask = 1<<groupKindBits - 1

	// maxGroups bounds one direction's non-empty groups: a rank must fit
	// in the 26 bits above the mask.
	maxGroups = 1<<(32-groupKindBits) - 1
)

// The kind mask holds one bit per edge kind.
var _ [groupKindBits - int(numEdgeKinds)]struct{}

// span returns the edges of node id (a storage index) whose kinds lie in
// [lo, hi), kind-grouped; 0 <= lo <= hi <= numEdgeKinds.
func (c *csr) span(id NodeID, lo, hi EdgeKind) []HalfEdge {
	if uint(id) >= uint(len(c.groups)) {
		return nil
	}
	g := c.groups[id] // kinds sit below bit numEdgeKinds: hi needs no mask
	rank := g >> groupKindBits
	a := rank + uint32(bits.OnesCount32(g&(1<<uint(lo)-1)))
	b := rank + uint32(bits.OnesCount32(g&(1<<uint(hi)-1)))
	return c.edges[c.starts[a]:c.starts[b]]
}

// slice returns node id's edges of one kind, or of all kinds if kind < 0.
// It is span for one kind, whose end is the kind's own bit: one popcount
// instead of two, and small enough for the compiler to inline into Out and
// In.
func (c *csr) slice(id NodeID, kind EdgeKind) []HalfEdge {
	if uint(id) >= uint(len(c.groups)) || kind >= numEdgeKinds {
		return nil
	}
	g := c.groups[id]
	a, n := g>>groupKindBits, uint32(0) // first group, groups in range
	if kind < 0 {
		n = uint32(bits.OnesCount32(g & groupKindMask))
	} else {
		a += uint32(bits.OnesCount32(g & (1<<uint(kind) - 1)))
		n = g >> uint(kind) & 1
	}
	return c.edges[c.starts[a]:c.starts[a+n]]
}

// buildCSR converts slice-of-slices adjacency into kind-grouped CSR,
// preserving insertion order within each (node, kind) group. A direction
// may hold at most maxGroups non-empty groups; building more panics, so
// partition such a net into more shards.
func buildCSR(adj [][]HalfEdge) csr {
	c := csr{groups: make([]uint32, len(adj))}
	groups, total := 0, 0
	for id, hes := range adj {
		var mask uint32
		for _, he := range hes {
			mask |= 1 << uint(he.Kind)
		}
		c.groups[id] = uint32(groups)<<groupKindBits | mask
		groups += bits.OnesCount32(mask)
		total += len(hes)
	}
	if groups > maxGroups {
		panic(fmt.Sprintf("core: freeze: %d non-empty (node, edge kind) groups in one direction, more than %d", groups, maxGroups))
	}
	c.starts = make([]int32, 0, groups+1)
	c.edges = make([]HalfEdge, total)
	pos := int32(0)
	for _, hes := range adj {
		var at [numEdgeKinds]int32 // each kind's next slot
		for _, he := range hes {
			at[he.Kind]++
		}
		for k, n := range at {
			if n > 0 {
				c.starts = append(c.starts, pos)
				at[k], pos = pos, pos+n
			}
		}
		for _, he := range hes {
			c.edges[at[he.Kind]] = he
			at[he.Kind]++
		}
	}
	c.starts = append(c.starts, pos)
	return c
}

// indexDense builds the group index from a direction's dense offsets as
// the file holds them — nodes × numEdgeKinds + 1 little-endian u32s, where
// node id's kind-k edges are edges[off[id*numEdgeKinds+k] :
// off[id*numEdgeKinds+k+1]] — and validates them on the way: they must
// start at 0, never decrease, end at the direction's edge count, and mark
// at most maxGroups non-empty groups. One pass reads every offset; the
// second reads only the starts of non-empty groups.
func indexDense(off []byte, edges int) (groups []uint32, starts []int32, err error) {
	slots := len(off)/4 - 1
	groups = make([]uint32, slots/int(numEdgeKinds))
	prev := int32(fzio.GetU32(off))
	if prev != 0 {
		return nil, nil, fmt.Errorf("offsets start at %d, want 0", prev)
	}
	count := 0
	for id := range groups {
		var mask uint32
		for k := 0; k < int(numEdgeKinds); k++ {
			slot := id*int(numEdgeKinds) + k + 1
			cur := int32(fzio.GetU32(off[4*slot:]))
			if cur < prev {
				return nil, nil, fmt.Errorf("offsets decrease at %d", slot)
			}
			if cur != prev {
				mask |= 1 << k
			}
			prev = cur
		}
		groups[id] = mask
		count += bits.OnesCount32(mask)
	}
	if int(prev) != edges {
		return nil, nil, fmt.Errorf("offsets end at %d, want %d", prev, edges)
	}
	if count > maxGroups {
		return nil, nil, fmt.Errorf("offsets mark %d non-empty (node, edge kind) groups, more than %d", count, maxGroups)
	}
	starts = make([]int32, 0, count+1)
	for id, mask := range groups {
		groups[id] = uint32(len(starts))<<groupKindBits | mask
		for m := mask; m != 0; m &= m - 1 {
			slot := id*int(numEdgeKinds) + bits.TrailingZeros32(m)
			starts = append(starts, int32(fzio.GetU32(off[4*slot:])))
		}
	}
	return groups, append(starts, prev), nil
}

// appendDense appends the direction's dense offsets, in the form
// indexDense reads, to dst.
func (c *csr) appendDense(dst []byte) []byte {
	var buf [4]byte
	put := func(v int32) {
		fzio.PutU32(buf[:], uint32(v))
		dst = append(dst, buf[:]...)
	}
	for _, g := range c.groups {
		rank, mask := g>>groupKindBits, g&groupKindMask
		for k := 0; k < int(numEdgeKinds); k++ {
			put(c.starts[rank+uint32(bits.OnesCount32(mask&(1<<k-1)))])
		}
	}
	put(int32(len(c.edges)))
	return dst
}

// sortPostings weight-sorts every node's group of one edge kind, so serving
// reads them best-first without sorting per query.
func (c *csr) sortPostings(kind EdgeKind) {
	for id := range c.groups {
		if seg := c.slice(NodeID(id), kind); len(seg) > 1 {
			sortHalfEdgesByWeight(seg)
		}
	}
}
