package core

// Reader is the read-only query surface of the concept net. It has two
// implementations: the mutable *Net (lock-guarded reads) and the immutable
// *ShardSet (lock-free CSR shards, one or many — Net.Freeze makes a
// one-shard set, FreezeShards and the snapshot loader make the rest).
// Serving code — the search and recommendation engines, the inference
// miner, the HTTP server — should depend on Reader so it can run against
// either store; production traffic goes to a ShardSet built once per net
// version (the paper's build-offline / serve-online split).
//
// Slices returned by a Reader are read-only views: callers must not modify
// them. *Net returns fresh copies, which trivially satisfies that;
// *ShardSet returns sub-slices of its shards' layout for zero-allocation
// reads.
type Reader interface {
	// Node returns the node for id; ok is false for invalid ids.
	Node(id NodeID) (Node, bool)
	// NumNodes returns the node count.
	NumNodes() int
	// NumEdges returns the edge count.
	NumEdges() int
	// FindByName returns all nodes with the given surface form.
	FindByName(name string) []NodeID
	// FindByNameKind returns nodes with the given name in one layer.
	FindByNameKind(name string, kind NodeKind) []NodeID
	// FirstByNameKind returns the first matching node or InvalidNode.
	FirstByNameKind(name string, kind NodeKind) NodeID
	// Out returns outgoing half-edges of a kind (all kinds if kind < 0).
	Out(id NodeID, kind EdgeKind) []HalfEdge
	// In returns incoming half-edges of a kind (all kinds if kind < 0).
	In(id NodeID, kind EdgeKind) []HalfEdge
	// Ancestors walks EdgeIsA/EdgeInstanceOf upward from id (BFS) up to
	// maxDepth levels (maxDepth <= 0 means unlimited), excluding id.
	Ancestors(id NodeID, maxDepth int) []NodeID
	// Descendants walks EdgeIsA/EdgeInstanceOf downward (incoming edges).
	Descendants(id NodeID, maxDepth int) []NodeID
	// IsAncestor reports whether anc is reachable upward from id.
	IsAncestor(id, anc NodeID) bool
	// NodesOfKind returns all node IDs in one layer.
	NodesOfKind(kind NodeKind) []NodeID
	// ItemsForEConcept returns items associated with an e-commerce
	// concept, best-weight first, up to limit (limit <= 0 means all).
	ItemsForEConcept(id NodeID, limit int) []HalfEdge
	// EConceptsForItem returns the e-commerce concepts an item serves.
	EConceptsForItem(id NodeID, limit int) []HalfEdge
	// PrimitivesForEConcept returns the primitives interpreting an
	// e-commerce concept.
	PrimitivesForEConcept(id NodeID) []HalfEdge
	// FirstByNameKindBytes is FirstByNameKind keyed by a caller-owned byte
	// buffer. Neither store converts (allocates) the key: the live net's
	// map[string] lookup converts it in place, and a ShardSet hashes the
	// buffer once and compares it against each shard's name arena, so exact
	// name resolution on the query hot path costs zero allocations.
	FirstByNameKindBytes(name []byte, kind NodeKind) NodeID
}

var (
	_ Reader = (*Net)(nil)
	_ Reader = (*ShardSet)(nil)
)
