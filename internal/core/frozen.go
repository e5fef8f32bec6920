package core

import (
	"fmt"
	"sync"

	"alicoco/internal/par"
)

// FrozenNet is an immutable, lock-free snapshot of a Net, laid out for the
// online serving workloads of Sections 8.1-8.2: adjacency is stored in CSR
// form — one flat []HalfEdge per direction plus an index of its non-empty
// (node, edge kind) groups (csr.go) — so Out and In are zero-allocation,
// zero-lock sub-slice lookups; item<->e-commerce-concept postings are
// pre-sorted by weight at freeze time so concept-card assembly is a slice
// window instead of a per-query sort; BFS traversals reuse pooled
// generation-stamped visited arrays instead of allocating a map per query;
// and the nodes sit in a pointer-free node table (nodetable.go) — 12-byte
// records, one name arena, an open-addressing name index and a per-layer
// index — so FindByName and NodesOfKind are read-only views and the
// garbage collector has nothing per node to scan.
//
// A FrozenNet never changes after Freeze returns, so every method is safe
// for unlimited concurrent use. To serve updates, mutate the live Net
// offline and swap in a fresh Freeze() — the paper's build-offline /
// serve-online split.
//
// A FrozenNet may also be one shard of a larger net (see FreezeShards and
// ShardSet): it then holds the contiguous global-ID range [Base(),
// Base()+NumNodes()) with shard-local storage indexing, while node IDs —
// including HalfEdge.Peer — stay global. Point lookups (Node, Out, In, the
// name indexes) answer only for nodes the shard owns; traversals are
// shard-local (edges leading outside the shard are not followed — the
// ShardSet runs the cross-shard BFS). A whole-net freeze is simply the
// base=0 shard that owns everything, so nothing changes for the N=1 path.
type FrozenNet struct {
	nodes nodeTable
	out   csr
	in    csr
	edges int

	// total is the node count of the whole net the shard belongs to
	// (== NumNodes for a whole-net freeze).
	total int

	// checksum is the CRC-32 recorded while loading a persisted snapshot
	// (see persist_frozen.go); 0 for snapshots frozen from a live net.
	checksum uint32

	// source is the version of the live net this snapshot was frozen from;
	// zero for a loaded snapshot.
	source netVersion

	visit sync.Pool // *visitState, reused across traversals
}

// Base returns the first global node ID this shard owns (0 for a whole-net
// freeze).
func (f *FrozenNet) Base() NodeID { return f.nodes.base }

// TotalNodes returns the node count of the whole net this snapshot belongs
// to — equal to NumNodes for a whole-net freeze, larger for a shard.
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

// Checksum returns the CRC-32 of the snapshot file this net was loaded
// from, or 0 when the net was frozen in-process rather than loaded. Serving
// surfaces expose it so operators can match the running snapshot against
// the artifact that produced it.
func (f *FrozenNet) Checksum() uint32 { return f.checksum }

// Freeze builds a read-optimized immutable snapshot of the net's current
// state. The snapshot shares nothing mutable with the live net: later
// AddNode/AddEdge calls do not affect it.
func (n *Net) Freeze() *FrozenNet {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.freezeRangeLocked(0, len(n.nodes), len(n.nodes))
}

// FreezeShards partitions the net into count contiguous node-ID ranges and
// freezes each independently (in parallel — freezing is read-only, so the
// shards share one read lock). Shard i owns [i*stride, min((i+1)*stride,
// total)) with stride = ceil(total/count); trailing shards may be empty
// when count exceeds the node count. The shards assemble into a ShardSet
// for serving, and each persists/reloads on its own (see persist_frozen.go
// version 2 and pipeline.SaveShards).
func (n *Net) FreezeShards(count int) []*FrozenNet {
	if count < 1 {
		count = 1
	}
	n.mu.RLock()
	defer n.mu.RUnlock()
	total := len(n.nodes)
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
	total := len(n.nodes)
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
		nodes:  freezeNodes(NodeID(base), n.nodes[base:end]),
		out:    buildCSR(n.outAdj[base:end]),
		in:     buildCSR(n.inAdj[base:end]),
		total:  total,
		source: n.version,
	}
	f.edges = len(f.out.edges)
	nn := end - base
	f.out.sortPostings(EdgeItemEConcept)
	f.in.sortPostings(EdgeItemEConcept)
	f.visit.New = func() any {
		return &visitState{gen: make([]uint32, nn)}
	}
	return f
}

// freezeNodes copies live nodes into a node table, their names into one
// arena of exactly their size. A shard's names may total at most 4 GiB (the
// arena's offsets are 32-bit); freezing more panics, so partition such a
// net into more shards.
func freezeNodes(base NodeID, nodes []Node) nodeTable {
	size := 0
	for i := range nodes {
		size += len(nodes[i].Name)
	}
	if uint64(size) > maxArena {
		panic(fmt.Sprintf("core: freeze: shard at node %d holds %d name bytes, more than %d", base, size, uint64(maxArena)))
	}
	b := tableBuilder{recs: make([]nodeRec, 0, len(nodes)), arena: make([]byte, 0, size)}
	for i := range nodes {
		off := len(b.arena)
		b.arena = append(b.arena, nodes[i].Name...)
		b.addNode(nodes[i].Kind, off, nodes[i].Domain)
	}
	return newNodeTable(base, &b)
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

// NumEdges returns the edge count.
func (f *FrozenNet) NumEdges() int { return f.edges }

// FindByName returns all nodes with the given surface form, in ascending ID
// order. The slice is a read-only view into the snapshot.
func (f *FrozenNet) FindByName(name string) []NodeID {
	return f.nodes.find(nameHash(name), name)
}

// FindByNameKind returns nodes with the given name in one layer.
func (f *FrozenNet) FindByNameKind(name string, kind NodeKind) []NodeID {
	return f.AppendFindByNameKind(nil, name, kind)
}

// AppendFindByNameKind is FindByNameKind into a caller-owned buffer.
func (f *FrozenNet) AppendFindByNameKind(dst []NodeID, name string, kind NodeKind) []NodeID {
	return f.nodes.appendOfKind(dst, nameHash(name), name, kind)
}

// FirstByNameKind returns the first matching node or InvalidNode.
func (f *FrozenNet) FirstByNameKind(name string, kind NodeKind) NodeID {
	return f.nodes.firstOfKind(nameHash(name), name, kind)
}

// FirstByNameKindBytes is FirstByNameKind keyed by a byte buffer. The name
// index hashes and compares the buffer in place, so hot callers can
// assemble the key in a reused buffer and look it up without allocating.
func (f *FrozenNet) FirstByNameKindBytes(name []byte, kind NodeKind) NodeID {
	key := bytesView(name)
	return f.nodes.firstOfKind(nameHash(key), key, kind)
}

// Out returns outgoing half-edges of a kind (all kinds if kind < 0) as a
// zero-allocation view into the CSR layout. Only the owning shard answers.
func (f *FrozenNet) Out(id NodeID, kind EdgeKind) []HalfEdge {
	return f.out.slice(NodeID(f.local(id)), kind)
}

// In returns incoming half-edges of a kind (all kinds if kind < 0) as a
// zero-allocation view into the CSR layout. Only the owning shard answers.
func (f *FrozenNet) In(id NodeID, kind EdgeKind) []HalfEdge {
	return f.in.slice(NodeID(f.local(id)), kind)
}

// NodesOfKind returns all node IDs in one layer, precomputed at freeze
// time. The slice is a read-only view into the snapshot.
func (f *FrozenNet) NodesOfKind(kind NodeKind) []NodeID { return f.nodes.ofKind(kind) }

// ItemsForEConcept returns items associated with an e-commerce concept,
// best-weight first, up to limit (limit <= 0 means all). The postings were
// sorted at freeze time, so this is a bounds check and a slice window.
func (f *FrozenNet) ItemsForEConcept(id NodeID, limit int) []HalfEdge {
	items := f.In(id, EdgeItemEConcept)
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	return items
}

// AppendItemsForEConcept is ItemsForEConcept into a caller-owned buffer.
func (f *FrozenNet) AppendItemsForEConcept(dst []HalfEdge, id NodeID, limit int) []HalfEdge {
	return append(dst, f.ItemsForEConcept(id, limit)...)
}

// EConceptsForItem returns the e-commerce concepts an item serves,
// best-weight first, up to limit (limit <= 0 means all).
func (f *FrozenNet) EConceptsForItem(id NodeID, limit int) []HalfEdge {
	out := f.Out(id, EdgeItemEConcept)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// AppendEConceptsForItem is EConceptsForItem into a caller-owned buffer.
func (f *FrozenNet) AppendEConceptsForItem(dst []HalfEdge, id NodeID, limit int) []HalfEdge {
	return append(dst, f.EConceptsForItem(id, limit)...)
}

// PrimitivesForEConcept returns the primitive concepts interpreting an
// e-commerce concept.
func (f *FrozenNet) PrimitivesForEConcept(id NodeID) []HalfEdge {
	return f.Out(id, EdgeInterpretedBy)
}

// visitState is a reusable BFS scratchpad: gen[v] == epoch marks v visited
// in the current traversal, so clearing between traversals is a single
// epoch increment instead of a map allocation or an O(n) wipe.
type visitState struct {
	gen   []uint32
	epoch uint32
	queue []frontierEntry
}

type frontierEntry struct {
	id    NodeID
	depth int32
}

// next advances the epoch, wiping the visited set in O(1); on the (rare)
// uint32 wraparound it clears the array to stay sound.
func (v *visitState) next() {
	v.epoch++
	if v.epoch == 0 {
		for i := range v.gen {
			v.gen[i] = 0
		}
		v.epoch = 1
	}
	v.queue = v.queue[:0]
}

// traverse runs the isA/instanceOf BFS over one CSR direction. When target
// is a valid node it stops early and reports reachability; otherwise it
// appends visited ids (excluding start, BFS order) to dst. dst is returned
// unchanged for invalid start ids. On a shard the BFS is shard-local: an
// edge to a node the shard does not own is not followed (a whole-net freeze
// owns every peer, so this never triggers for it) — cross-shard traversal
// is the ShardSet's job.
func (f *FrozenNet) traverse(adj *csr, start NodeID, maxDepth int, target NodeID, dst []NodeID, collect bool) ([]NodeID, bool) {
	if f.local(start) < 0 {
		return dst, false
	}
	v := f.visit.Get().(*visitState)
	defer f.visit.Put(v)
	v.next()
	v.gen[f.local(start)] = v.epoch
	v.queue = append(v.queue, frontierEntry{start, 0})
	for qi := 0; qi < len(v.queue); qi++ {
		cur := v.queue[qi]
		if maxDepth > 0 && int(cur.depth) >= maxDepth {
			continue
		}
		for _, he := range adj.span(cur.id-f.nodes.base, EdgeIsA, EdgeInstanceOf+1) {
			plid := f.local(he.Peer)
			if plid < 0 {
				continue // other shard's node: shard-local BFS stops here
			}
			if v.gen[plid] == v.epoch {
				continue
			}
			v.gen[plid] = v.epoch
			if he.Peer == target {
				return dst, true
			}
			if collect {
				dst = append(dst, he.Peer)
			}
			v.queue = append(v.queue, frontierEntry{he.Peer, cur.depth + 1})
		}
	}
	return dst, false
}

// Ancestors walks EdgeIsA/EdgeInstanceOf upward from id (BFS) up to
// maxDepth levels (maxDepth <= 0 means unlimited) and returns the visited
// ancestor IDs in traversal order, excluding id itself.
func (f *FrozenNet) Ancestors(id NodeID, maxDepth int) []NodeID {
	out, _ := f.traverse(&f.out, id, maxDepth, InvalidNode, nil, true)
	return out
}

// AppendAncestors is Ancestors into a caller-owned buffer: the BFS runs on
// the pooled visited array and writes straight into dst, so a caller that
// recycles its buffer pays zero steady-state allocations.
func (f *FrozenNet) AppendAncestors(dst []NodeID, id NodeID, maxDepth int) []NodeID {
	dst, _ = f.traverse(&f.out, id, maxDepth, InvalidNode, dst, true)
	return dst
}

// Descendants walks EdgeIsA/EdgeInstanceOf downward (incoming edges).
func (f *FrozenNet) Descendants(id NodeID, maxDepth int) []NodeID {
	out, _ := f.traverse(&f.in, id, maxDepth, InvalidNode, nil, true)
	return out
}

// AppendDescendants is Descendants into a caller-owned buffer.
func (f *FrozenNet) AppendDescendants(dst []NodeID, id NodeID, maxDepth int) []NodeID {
	dst, _ = f.traverse(&f.in, id, maxDepth, InvalidNode, dst, true)
	return dst
}

// IsAncestor reports whether anc is reachable upward from id. It allocates
// nothing in steady state: the BFS runs on a pooled visited array and stops
// as soon as anc is found.
func (f *FrozenNet) IsAncestor(id, anc NodeID) bool {
	if f.local(anc) < 0 || id == anc {
		return false
	}
	_, found := f.traverse(&f.out, id, 0, anc, nil, false)
	return found
}

// ComputeStats summarizes the snapshot the way (*Net).ComputeStats does.
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
