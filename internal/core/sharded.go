package core

import (
	"fmt"
	"sync"

	"alicoco/internal/faultfs"
	"alicoco/internal/par"
)

// ShardSet is the read-only query surface of the concept net: a net
// partitioned into N >= 1 independently frozen shards (see Freeze and
// FreezeShards) served as one store, with one read path whatever N is.
// The search and recommendation engines, the inference miner and the
// facade all read one, built once per net version (the paper's
// build-offline / serve-online split). The partition is a contiguous
// node-ID range split with a fixed stride, so every point lookup — Node,
// Out, In, the concept-card postings — routes to its owning shard with one
// division and stays a zero-allocation CSR slice; only name resolution
// (scanned across shards in ascending order, which reproduces whole-net
// insertion order) and the isA/instanceOf traversals (run at the set level
// so they cross shard boundaries) touch more than one shard. Every step
// into a shard's storage is a faultfs.QueryProbe, so a query fault armed on
// one shard reaches every query that reads it.
//
// Slices a ShardSet returns are read-only views: callers must not modify
// them. Most are sub-slices of its shards' layout, which is what keeps
// point reads allocation-free. A ShardSet is immutable after NewShardSet
// and safe for unlimited concurrent use, like the FrozenNets it wraps.
// Reloading one shard means building a new ShardSet sharing the unchanged
// shard pointers and swapping it in atomically — readers pinned to the old
// set keep a consistent view.
type ShardSet struct {
	shards []*FrozenNet
	stride int
	total  int
	edges  int

	// byKind concatenates the shards' per-layer indexes in shard order at
	// construction, so NodesOfKind is a read-only view.
	byKind [numKinds][]NodeID

	visit sync.Pool // *visitState with gen sized to total, for cross-shard BFS
}

// NewShardSet assembles frozen shards into one serving view. The shards
// must be the complete, in-order output of one FreezeShards partition (or
// per-shard reloads of it): same declared total, contiguous bases matching
// the stride layout. Any mismatch is an assembly bug or a manifest/file
// mix-up, and is rejected rather than served.
func NewShardSet(shards []*FrozenNet) (*ShardSet, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shardset: no shards")
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("shardset: shard %d is nil", i)
		}
	}
	total := shards[0].total
	stride := ShardStride(total, len(shards))
	for i, sh := range shards {
		if sh.total != total {
			return nil, fmt.Errorf("shardset: shard %d declares total %d, shard 0 declares %d", i, sh.total, total)
		}
		wantBase := min(i*stride, total)
		wantLen := min(wantBase+stride, total) - wantBase
		if int(sh.Base()) != wantBase || sh.NumNodes() != wantLen {
			return nil, fmt.Errorf("shardset: shard %d covers [%d,%d), want [%d,%d)",
				i, sh.Base(), int(sh.Base())+sh.NumNodes(), wantBase, wantBase+wantLen)
		}
	}
	return assembleShardSet(shards), nil
}

// assembleShardSet assembles shards already known to be one complete
// partition.
func assembleShardSet(shards []*FrozenNet) *ShardSet {
	total := shards[0].total
	s := &ShardSet{shards: shards, stride: ShardStride(total, len(shards)), total: total}
	for _, sh := range shards {
		s.edges += sh.edges
	}
	for k := NodeKind(0); k < numKinds; k++ {
		n := 0
		for _, sh := range shards {
			n += len(sh.nodes.ofKind(k))
		}
		if n == 0 {
			continue
		}
		ids := make([]NodeID, 0, n)
		for _, sh := range shards {
			ids = append(ids, sh.nodes.ofKind(k)...)
		}
		s.byKind[k] = ids
	}
	s.visit.New = func() any {
		return &visitState{gen: make([]uint32, total)}
	}
	return s
}

// NumShards returns the shard count of the partition.
func (s *ShardSet) NumShards() int { return len(s.shards) }

// Shard returns shard i (panics when out of range, like slice indexing).
func (s *ShardSet) Shard(i int) *FrozenNet { return s.shards[i] }

// Shards returns the shard list as a read-only view.
func (s *ShardSet) Shards() []*FrozenNet { return s.shards }

// owner returns the shard owning a global node ID, or nil for out-of-range
// ids. Crossing into the owning shard is a query-time fault-injection
// boundary (faultfs.QueryProbe — one atomic load when nothing is armed):
// it is where chaos drills make one shard slow, and where a deadline-bound
// caller's next ctx check abandons admitted-but-doomed work.
func (s *ShardSet) owner(id NodeID) *FrozenNet {
	if !s.valid(id) {
		return nil
	}
	shard := int(id) / s.stride
	faultfs.QueryProbe(shard)
	return s.shards[shard]
}

// Node returns the node for id; ok is false for invalid ids. The Name is a
// view of the owning shard's name arena, not a copy: a caller that keeps it
// keeps all of that shard's names alive.
func (s *ShardSet) Node(id NodeID) (Node, bool) {
	sh := s.owner(id)
	if sh == nil {
		return Node{}, false
	}
	return sh.nodes.node(int(id - sh.nodes.base)), true
}

// NumNodes returns the node count across all shards.
func (s *ShardSet) NumNodes() int { return s.total }

// NumEdges returns the edge count across all shards.
func (s *ShardSet) NumEdges() int { return s.edges }

// FirstByNameKind returns the first matching node or InvalidNode. Shards
// are scanned in ascending order, which reproduces whole-net insertion
// order because node IDs are assigned sequentially.
func (s *ShardSet) FirstByNameKind(name string, kind NodeKind) NodeID {
	h := nameHash(name)
	for i, sh := range s.shards {
		faultfs.QueryProbe(i)
		if id := sh.nodes.firstOfKind(h, name, kind); id != InvalidNode {
			return id
		}
	}
	return InvalidNode
}

// FirstByNameKindBytes is FirstByNameKind keyed by a caller-owned byte
// buffer: the buffer is hashed once, in place, and each shard's index
// probed with that hash, so the scatter costs one hash, N probes and zero
// allocations.
func (s *ShardSet) FirstByNameKindBytes(name []byte, kind NodeKind) NodeID {
	return s.FirstByNameKind(bytesView(name), kind)
}

// Out returns outgoing half-edges of a kind (all kinds if kind < 0), served
// as a zero-allocation view from the owning shard.
func (s *ShardSet) Out(id NodeID, kind EdgeKind) []HalfEdge {
	sh := s.owner(id)
	if sh == nil {
		return nil
	}
	return sh.out.slice(id-sh.nodes.base, kind)
}

// In returns incoming half-edges of a kind (all kinds if kind < 0), served
// as a zero-allocation view from the owning shard.
func (s *ShardSet) In(id NodeID, kind EdgeKind) []HalfEdge {
	sh := s.owner(id)
	if sh == nil {
		return nil
	}
	return sh.in.slice(id-sh.nodes.base, kind)
}

// NodesOfKind returns all node IDs in one layer as a read-only view,
// concatenated across shards at construction time.
func (s *ShardSet) NodesOfKind(kind NodeKind) []NodeID {
	if kind < 0 || kind >= numKinds {
		return nil
	}
	return s.byKind[kind]
}

// ItemsForEConcept returns items associated with an e-commerce concept,
// best-weight first, up to limit (limit <= 0 means all). A node's full
// posting list lives in its owning shard, so this is the same slice window
// as the unsharded read.
func (s *ShardSet) ItemsForEConcept(id NodeID, limit int) []HalfEdge {
	items := s.In(id, EdgeItemEConcept)
	if limit > 0 && len(items) > limit {
		items = items[:limit]
	}
	return items
}

// EConceptsForItem returns the e-commerce concepts an item serves,
// best-weight first, up to limit (limit <= 0 means all).
func (s *ShardSet) EConceptsForItem(id NodeID, limit int) []HalfEdge {
	out := s.Out(id, EdgeItemEConcept)
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

// PrimitivesForEConcept returns the primitive concepts interpreting an
// e-commerce concept.
func (s *ShardSet) PrimitivesForEConcept(id NodeID) []HalfEdge {
	return s.Out(id, EdgeInterpretedBy)
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

// valid reports whether id names a node of the set. It is a range check,
// not a shard crossing: it reads no shard and probes none.
func (s *ShardSet) valid(id NodeID) bool { return id >= 0 && int(id) < s.total }

// traverse is the isA/instanceOf BFS: the frontier carries global IDs, each
// expansion reads the owning shard's CSR (isA before instanceOf), and the
// visited set spans the whole ID space, so walks cross shard boundaries
// freely. Each expansion is the one probe of the shard it reads. When
// target is a valid node it stops early and reports reachability;
// otherwise it appends visited ids (excluding start, BFS order) to dst.
// dir selects the out (ancestors) or in (descendants) adjacency.
func (s *ShardSet) traverse(dir int, start NodeID, maxDepth int, target NodeID, dst []NodeID, collect bool) ([]NodeID, bool) {
	if !s.valid(start) {
		return dst, false
	}
	v := s.visit.Get().(*visitState)
	defer s.visit.Put(v)
	v.next()
	v.gen[start] = v.epoch
	v.queue = append(v.queue, frontierEntry{start, 0})
	for qi := 0; qi < len(v.queue); qi++ {
		cur := v.queue[qi]
		if maxDepth > 0 && int(cur.depth) >= maxDepth {
			continue
		}
		shard := int(cur.id) / s.stride
		faultfs.QueryProbe(shard)
		sh := s.shards[shard]
		adj := &sh.out
		if dir != 0 {
			adj = &sh.in
		}
		for _, he := range adj.span(cur.id-sh.nodes.base, EdgeIsA, EdgeInstanceOf+1) {
			if v.gen[he.Peer] == v.epoch {
				continue
			}
			v.gen[he.Peer] = v.epoch
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
// maxDepth levels (maxDepth <= 0 means unlimited), excluding id.
func (s *ShardSet) Ancestors(id NodeID, maxDepth int) []NodeID {
	out, _ := s.traverse(0, id, maxDepth, InvalidNode, nil, true)
	return out
}

// Descendants walks EdgeIsA/EdgeInstanceOf downward (incoming edges).
func (s *ShardSet) Descendants(id NodeID, maxDepth int) []NodeID {
	out, _ := s.traverse(1, id, maxDepth, InvalidNode, nil, true)
	return out
}

// IsAncestor reports whether anc is reachable upward from id. It allocates
// nothing in steady state: the BFS runs on a pooled visited array and stops
// as soon as anc is found.
func (s *ShardSet) IsAncestor(id, anc NodeID) bool {
	if !s.valid(anc) || id == anc {
		return false
	}
	_, found := s.traverse(0, id, 0, anc, nil, false)
	return found
}

// ComputeStats summarizes the whole partition: the per-shard passes run in
// parallel (each shard only reads its own storage), then merge.
func (s *ShardSet) ComputeStats() Stats {
	perShard := make([]Stats, len(s.shards))
	par.For(0, len(s.shards), func(i int) {
		perShard[i] = s.shards[i].ComputeStats()
	})
	m := Stats{
		PerKind:         make(map[string]int),
		PrimitivesByDom: make(map[string]int),
		EdgesByKind:     make(map[string]int),
	}
	for _, ps := range perShard {
		m.Nodes += ps.Nodes
		m.Edges += ps.Edges
		m.IsAPrimitive += ps.IsAPrimitive
		m.IsAEConcept += ps.IsAEConcept
		for k, v := range ps.PerKind {
			m.PerKind[k] += v
		}
		for k, v := range ps.PrimitivesByDom {
			m.PrimitivesByDom[k] += v
		}
		for k, v := range ps.EdgesByKind {
			m.EdgesByKind[k] += v
		}
	}
	items := m.PerKind[KindItem.String()]
	econcepts := m.PerKind[KindEConcept.String()]
	itemPrim := m.EdgesByKind[EdgeItemPrimitive.String()]
	itemEcpt := m.EdgesByKind[EdgeItemEConcept.String()]
	ecptPrim := m.EdgesByKind[EdgeInterpretedBy.String()]
	if items > 0 {
		m.AvgPrimitivesPerItem = float64(itemPrim) / float64(items)
		m.AvgEConceptsPerItem = float64(itemEcpt) / float64(items)
	}
	if econcepts > 0 {
		m.AvgItemsPerEConcept = float64(itemEcpt) / float64(econcepts)
		m.AvgPrimsPerEConcept = float64(ecptPrim) / float64(econcepts)
	}
	return m
}
