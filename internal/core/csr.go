package core

import (
	"fmt"
	"math/bits"
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
// popcount, and no loop over kinds or edges. On disk a direction is each
// node's degree and then its kind-grouped edges (persist_frozen.go), and
// newCSR builds this index from them, for Freeze as for LoadFrozen.
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

// newCSR indexes a direction whose edges hold each node's run in turn:
// degrees[id] edges of node id, in ascending kind order. It is the only
// constructor of a csr: Freeze and LoadFrozen both call it. It rejects a
// run whose kinds descend, runs that do not cover edges exactly, and more
// than maxGroups non-empty groups. The first pass validates and counts the
// groups, so starts is allocated to size; the second turns degrees into the
// groups array in place, reading each entry before overwriting it.
func newCSR(degrees []uint32, edges []HalfEdge) (csr, error) {
	count, pos := 0, 0
	for id, d := range degrees {
		if uint64(d) > uint64(len(edges)-pos) {
			return csr{}, fmt.Errorf("node %d: %d edges overrun the %d left", id, d, len(edges)-pos)
		}
		for e := pos; e < pos+int(d); e++ {
			if e == pos || edges[e].Kind > edges[e-1].Kind {
				count++
			} else if edges[e].Kind < edges[e-1].Kind {
				return csr{}, fmt.Errorf("node %d: edge %d of kind %d breaks kind order after kind %d", id, e, edges[e].Kind, edges[e-1].Kind)
			}
		}
		pos += int(d)
	}
	if pos != len(edges) {
		return csr{}, fmt.Errorf("node runs cover %d of %d edges", pos, len(edges))
	}
	if count > maxGroups {
		return csr{}, fmt.Errorf("%d non-empty (node, edge kind) groups in one direction, more than %d", count, maxGroups)
	}
	c := csr{groups: degrees, starts: make([]int32, 0, count+1), edges: edges}
	pos = 0
	for id, d := range degrees {
		rank, mask := uint32(len(c.starts)), uint32(0)
		for e := pos; e < pos+int(d); e++ {
			if e == pos || edges[e].Kind != edges[e-1].Kind {
				mask |= 1 << uint(edges[e].Kind)
				c.starts = append(c.starts, int32(e))
			}
		}
		c.groups[id] = rank<<groupKindBits | mask
		pos += int(d)
	}
	c.starts = append(c.starts, int32(pos))
	return c, nil
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
