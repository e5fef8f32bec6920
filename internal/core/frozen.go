package core

import (
	"unsafe"

	"alicoco/internal/par"
)

// FrozenNet is one immutable shard of a frozen net: the contiguous
// global-ID range [Base(), Base()+NumNodes()) of a net of TotalNodes()
// nodes, laid out for the online serving workloads of Sections 8.1-8.2.
// Adjacency is stored in CSR form — one flat []HalfEdge per direction plus
// an index of its non-empty (node, edge kind) groups (csr.go) — with the
// item<->e-commerce-concept postings pre-sorted by weight at freeze time,
// and the nodes sit in a pointer-free node table (nodetable.go): 12-byte
// records, one name arena, an open-addressing name index and a per-layer
// index, so the garbage collector has nothing per node to scan. Node IDs —
// including HalfEdge.Peer — stay global; storage is indexed by id-Base().
//
// A FrozenNet is the unit that is frozen, saved, loaded, verified and
// reloaded; it is not queried on its own. Every query goes through a
// ShardSet, which routes point lookups to the owning shard and runs name
// scans and traversals across the set — for a one-shard net (Net.Freeze)
// as for many (FreezeShards). A FrozenNet never changes after it is built,
// so it is safe for unlimited concurrent use.
type FrozenNet struct {
	nodes nodeTable
	out   csr
	in    csr
	edges int

	// total is the node count of the whole net the shard belongs to
	// (== NumNodes for a one-shard freeze).
	total int

	// checksum is the CRC-32 recorded while loading a persisted snapshot
	// (see persist_frozen.go); 0 for snapshots frozen from a live net.
	checksum uint32

	// source is the version of the live net this snapshot was frozen from;
	// zero for a loaded snapshot.
	source netVersion
}

// Base returns the first global node ID this shard owns (0 for the first
// shard).
func (f *FrozenNet) Base() NodeID { return f.nodes.base }

// TotalNodes returns the node count of the whole net this shard belongs
// to — equal to NumNodes for a one-shard freeze.
func (f *FrozenNet) TotalNodes() int { return f.total }

// local maps a global node ID to this shard's storage index, or -1 when the
// shard does not own it.
func (f *FrozenNet) local(id NodeID) int {
	lid := int(id) - int(f.nodes.base)
	if lid < 0 || lid >= len(f.nodes.recs) {
		return -1
	}
	return lid
}

// Checksum returns the CRC-32 of the snapshot file this shard was loaded
// from, or 0 when the shard was frozen in-process rather than loaded. Serving
// surfaces expose it so operators can match the running snapshot against
// the artifact that produced it.
func (f *FrozenNet) Checksum() uint32 { return f.checksum }

// Freeze builds a read-optimized immutable snapshot of the net's current
// state: a one-shard ShardSet. The snapshot shares nothing mutable with the
// live net: later AddNode/AddEdge calls do not affect it.
func (n *Net) Freeze() *ShardSet { return assembleShardSet(n.FreezeShards(1)) }

// FreezeShards partitions the net into count contiguous node-ID ranges and
// freezes each independently (in parallel — freezing is read-only, so the
// shards share one read lock). Shard i owns [i*stride, min((i+1)*stride,
// total)) with stride = ceil(total/count); trailing shards may be empty
// when count exceeds the node count. The shards assemble into a ShardSet
// for serving, and each persists/reloads on its own (see persist_frozen.go
// and pipeline.SaveShards).
func (n *Net) FreezeShards(count int) []*FrozenNet {
	if count < 1 {
		count = 1
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := len(n.nodes.recs)
	stride := ShardStride(total, count)
	shards := make([]*FrozenNet, count)
	par.For(0, count, func(i int) {
		base := min(i*stride, total)
		end := min(base+stride, total)
		shards[i] = n.freezeRangeLocked(base, end, total)
	})
	return shards
}

// IsCurrentPartition reports whether shards hold the net's current state
// as the len(shards)-way partition FreezeShards makes: every shard was
// frozen from this net, AddNode and AddEdge have not changed it since, and
// shard i covers the i-th node range. Such shards can be saved or served in
// place of a fresh freeze. Loaded shards record no source net, so they
// never qualify.
func (n *Net) IsCurrentPartition(shards []*FrozenNet) bool {
	if len(shards) == 0 {
		return false
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := len(n.nodes.recs)
	stride := ShardStride(total, len(shards))
	for i, sh := range shards {
		base := min(i*stride, total)
		if sh == nil || sh.source != n.version || int(sh.Base()) != base || sh.NumNodes() != min(base+stride, total)-base {
			return false
		}
	}
	return true
}

// ShardStride is the per-shard node count of a count-way range partition
// over total nodes: ceil(total/count), floored at 1 so id/stride routing
// stays well-defined on empty nets.
func ShardStride(total, count int) int {
	stride := (total + count - 1) / count
	if stride < 1 {
		stride = 1
	}
	return stride
}

// freezeRangeLocked freezes the node range [base, end) of a net with total
// nodes. Callers hold n.mu. Node IDs (and edge peers) stay global; storage
// is indexed by id-base. The node table's name and kind indexes list each
// name's and kind's nodes in ascending ID order, which is the live net's
// insertion order because node IDs are assigned sequentially.
func (n *Net) freezeRangeLocked(base, end, total int) *FrozenNet {
	f := &FrozenNet{
		nodes:  newNodeTable(NodeID(base), n.nodes.copyRange(base, end)),
		out:    n.freezeListsLocked(base, end, dirOut),
		in:     n.freezeListsLocked(base, end, dirIn),
		total:  total,
		source: n.version,
	}
	f.edges = len(f.out.edges)
	f.out.sortPostings(EdgeItemEConcept)
	f.in.sortPostings(EdgeItemEConcept)
	return f
}

// freezeListsLocked builds the CSR of direction d for the node range
// [base, end) from the nodes' lists. Each node's run holds its edges
// grouped by kind, in insertion order within a kind: one walk of its list,
// which runs newest first, fills a scratch run from the end, and each kind
// is then copied to its group. A direction may hold at most maxGroups
// non-empty groups; freezing more panics, so partition such a net into
// more shards. Callers hold n.mu.
func (n *Net) freezeListsLocked(base, end, d int) csr {
	degrees := make([]uint32, end-base)
	total, most := 0, 0
	for i := range degrees {
		deg := n.links[base+i].lists[d].len
		degrees[i] = deg
		total += int(deg)
		most = max(most, int(deg))
	}
	edges := make([]HalfEdge, total)
	run := make([]HalfEdge, most)
	pos := 0
	for i, deg := range degrees {
		if deg == 0 {
			continue
		}
		var at [numEdgeKinds]int // each kind's next slot
		j := int(deg)
		for e := n.links[base+i].lists[d].head; e != 0; e = n.edges[e].next[d] {
			j--
			run[j] = n.edges[e].half(d)
			at[run[j].Kind]++
		}
		for k, c := range at {
			at[k], pos = pos, pos+c
		}
		for _, he := range run[:deg] {
			edges[at[he.Kind]] = he
			at[he.Kind]++
		}
	}
	c, err := newCSR(degrees, edges)
	if err != nil {
		panic("core: freeze: " + err.Error())
	}
	return c
}

// Node returns the node for id; ok is false for invalid ids (including ids
// owned by a different shard). The Name is a view of the shard's name
// arena, not a copy: a caller that keeps it keeps all of that shard's names
// alive.
func (f *FrozenNet) Node(id NodeID) (Node, bool) {
	lid := f.local(id)
	if lid < 0 {
		return Node{}, false
	}
	return f.nodes.node(lid), true
}

// NumNodes returns the node count.
func (f *FrozenNet) NumNodes() int { return len(f.nodes.recs) }

// AdjacencyIndexBytes returns the bytes of the index that locates each
// node's edges in both directions (entries and group starts), beyond the
// edge records themselves.
func (f *FrozenNet) AdjacencyIndexBytes() int {
	return 4 * (cap(f.out.groups) + cap(f.out.starts) + cap(f.in.groups) + cap(f.in.starts))
}

// EdgeRecordBytes returns the bytes the edge records of both directions
// take, counted by capacity: the half-edges and any room reserved past
// them.
func (f *FrozenNet) EdgeRecordBytes() int {
	return int(unsafe.Sizeof(HalfEdge{})) * (cap(f.out.edges) + cap(f.in.edges))
}

// NumEdges returns the edge count.
func (f *FrozenNet) NumEdges() int { return f.edges }

// ComputeStats summarizes the shard's nodes and out-edges;
// ShardSet.ComputeStats merges the shards' summaries.
func (f *FrozenNet) ComputeStats() Stats {
	nn := len(f.nodes.recs)
	s := Stats{
		Nodes:           nn,
		Edges:           f.edges,
		PerKind:         make(map[string]int),
		PrimitivesByDom: make(map[string]int),
		EdgesByKind:     make(map[string]int),
	}
	items := len(f.nodes.ofKind(KindItem))
	econcepts := len(f.nodes.ofKind(KindEConcept))
	var itemPrim, itemEcpt, ecptPrim int
	for id, r := range f.nodes.recs {
		kind := NodeKind(r.kind)
		s.PerKind[kind.String()]++
		if kind == KindPrimitive {
			s.PrimitivesByDom[f.nodes.domains[r.dom]]++
		}
		for _, he := range f.out.slice(NodeID(id), -1) {
			s.EdgesByKind[he.Kind.String()]++
			switch he.Kind {
			case EdgeIsA:
				switch kind {
				case KindPrimitive:
					s.IsAPrimitive++
				case KindEConcept:
					s.IsAEConcept++
				}
			case EdgeItemPrimitive:
				itemPrim++
			case EdgeItemEConcept:
				itemEcpt++
			case EdgeInterpretedBy:
				ecptPrim++
			}
		}
	}
	if items > 0 {
		s.AvgPrimitivesPerItem = float64(itemPrim) / float64(items)
		s.AvgEConceptsPerItem = float64(itemEcpt) / float64(items)
	}
	if econcepts > 0 {
		s.AvgItemsPerEConcept = float64(itemEcpt) / float64(econcepts)
		s.AvgPrimsPerEConcept = float64(ecptPrim) / float64(econcepts)
	}
	return s
}
