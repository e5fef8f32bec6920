// Package core implements the AliCoCo net itself: a four-layer typed
// property graph (taxonomy classes, primitive concepts, e-commerce concepts,
// items — Figure 1 of the paper). The net is built offline and served
// online, as the paper does (Section 8): a Net is the builder, with typed
// relation validation, and Freeze and FreezeShards turn it into immutable
// CSR shards (FrozenNet, the unit of snapshot persistence) that a ShardSet
// serves as the one query surface: name and adjacency lookups, traversals
// and statistics. A Net and a frozen shard hold their nodes in one layout
// (nodetable.go), and a Net holds its edges in one slab of records linked
// per node, so neither keeps a heap object per node, name or edge. All Net
// methods and all ShardSet reads are safe for concurrent use.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
)

// NodeKind identifies which of the four layers a node belongs to.
type NodeKind int

// The four layers of Figure 1.
const (
	KindClass     NodeKind = iota // taxonomy class (Section 3)
	KindPrimitive                 // primitive concept (Section 4)
	KindEConcept                  // e-commerce concept (Section 5)
	KindItem                      // item (Section 6)
	numKinds
)

// String returns the layer name.
func (k NodeKind) String() string {
	switch k {
	case KindClass:
		return "class"
	case KindPrimitive:
		return "primitive"
	case KindEConcept:
		return "econcept"
	case KindItem:
		return "item"
	default:
		return "invalid"
	}
}

// EdgeKind identifies the relation type between layers. It is one byte so
// HalfEdge packs into 8; it is signed so that -1 still means "all kinds"
// to Out and In.
type EdgeKind int8

// Relation types of Figure 1.
const (
	EdgeIsA           EdgeKind = iota // within-layer hierarchy (class->class, primitive->primitive, econcept->econcept)
	EdgeInstanceOf                    // primitive -> class
	EdgeInterpretedBy                 // econcept -> primitive ("e-commerce - primitive cpts")
	EdgeItemPrimitive                 // item -> primitive (property-like relatedness)
	EdgeItemEConcept                  // item -> econcept (needed under a scenario)
	EdgeSchema                        // class -> class, named relation (suitable_when, ...)
	numEdgeKinds
)

// String returns the relation name.
func (k EdgeKind) String() string {
	switch k {
	case EdgeIsA:
		return "isA"
	case EdgeInstanceOf:
		return "instanceOf"
	case EdgeInterpretedBy:
		return "interpretedBy"
	case EdgeItemPrimitive:
		return "itemPrimitive"
	case EdgeItemEConcept:
		return "itemEConcept"
	case EdgeSchema:
		return "schema"
	default:
		return "invalid"
	}
}

// edgeRules lists, per edge kind, the layer pairs it may connect.
var edgeRules = [numEdgeKinds][][2]NodeKind{
	EdgeIsA:           {{KindClass, KindClass}, {KindPrimitive, KindPrimitive}, {KindEConcept, KindEConcept}},
	EdgeInstanceOf:    {{KindPrimitive, KindClass}},
	EdgeInterpretedBy: {{KindEConcept, KindPrimitive}},
	EdgeItemPrimitive: {{KindItem, KindPrimitive}},
	EdgeItemEConcept:  {{KindItem, KindEConcept}},
	EdgeSchema:        {{KindClass, KindClass}},
}

// NodeID is a stable node handle within one Net.
type NodeID int32

// InvalidNode is returned by lookups that find nothing.
const InvalidNode NodeID = -1

// Node is one vertex of the net. A Node does not own its Name: the string
// is a view of the name arena of the net or shard it was read from, so a
// caller that keeps it keeps all of that arena's names alive. Copy it
// (strings.Clone) to keep a name past the net's or the snapshot's life.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Name   string // surface form (lower-cased); not unique
	Domain string // taxonomy domain for classes/primitives, family for items
}

// HalfEdge is an outgoing or incoming adjacency record. It is 8 bytes and
// holds no pointers, the layout of the on-disk record in persist_frozen.go,
// so every freeze's and every loaded shard's edge arrays are never scanned
// by the garbage collector. Its relation name and weight are one interned
// Label; Rel and Weight read them.
type HalfEdge struct {
	Peer  NodeID   // the node at the other end (a global ID)
	Kind  EdgeKind // relation type
	Label Label    // named schema relation ("" otherwise) and weight
}

// Net is the concept net under construction. It answers only what the
// build and the freeze ask of it; every query reads a ShardSet frozen from
// it.
//
// It is laid out like a frozen shard, with nothing per node or per edge for
// the garbage collector to scan: its nodes are a node table's records, name
// arena and domain table, found by name through an open-addressing index,
// and its edges are one slab of records, each linked into the out-list of
// its tail and the in-list of its head. So a net of any size is a handful
// of heap objects. A net's names may total at most 4 GiB (the arena's
// offsets are 32-bit); adding more panics.
type Net struct {
	mu    sync.RWMutex
	nodes tableBuilder
	links []nodeLinks // one per node

	// slots indexes the nodes by name: an open-addressing table at most
	// half full, probed linearly from nameHash, where 0 is an empty slot
	// and id+1 points at the first node of a name. names counts the
	// distinct names.
	slots []uint32
	names int

	// edges is the slab; edges[0] is a sentinel no list holds, so 0 ends
	// a list.
	edges []edgeRec

	// version names the net among the process's nets and counts the
	// AddNode and AddEdge calls that changed it: those that added a node
	// or an edge, or changed the bits of an edge's weight. Every freeze
	// records it, so IsCurrentPartition can tell a freeze of this state
	// from anything else without the snapshot keeping the net alive.
	version netVersion
}

// The two directions of an edge list: a node's out-list holds the edges it
// is the tail of, its in-list the edges it is the head of.
const (
	dirOut = 0
	dirIn  = 1
)

// nodeLinks ties a node into the net's lists.
type nodeLinks struct {
	nextName NodeID      // the next node with this node's name, or InvalidNode
	lists    [2]edgeList // the out-list and the in-list
}

// edgeList is one direction of a node's edges, linked newest first.
type edgeList struct {
	head uint32 // the newest edge, 0 for none
	len  uint32
}

// edgeRec is one edge in 20 bytes with no pointers, the one record both of
// its half-edges read. The lists link it newest first: ends[dirOut] is its
// tail, whose out-list continues at next[dirOut], and ends[dirIn] its head,
// whose in-list continues at next[dirIn].
type edgeRec struct {
	ends  [2]NodeID
	next  [2]uint32
	label Label
	kind  EdgeKind
}

// half returns the edge as its direction-d list holds it: the peer is the
// other end.
func (r *edgeRec) half(d int) HalfEdge {
	return HalfEdge{Peer: r.ends[1-d], Kind: r.kind, Label: r.label}
}

// What Grow reserves per node: name bytes and edges. The facade's build
// grows by an upper bound on its nodes and then adds 15 name bytes and 3.9
// edges per node of that bound (20 and 5.3 per node it adds), so it
// regrows neither.
const (
	growNameBytes = 16
	growEdges     = 5
)

// netVersion is a net's identity and mutation count.
type netVersion struct {
	net, mutations uint64
}

// netIDs numbers the nets of a process, starting at 1; a snapshot that was
// not frozen from a live net records net 0.
var netIDs atomic.Uint64

// NewNet returns an empty net.
func NewNet() *Net {
	return &Net{slots: make([]uint32, 1), edges: make([]edgeRec, 1), version: netVersion{net: netIDs.Add(1)}}
}

// Grow reserves room for count more nodes: their records, list heads and
// name index slots, growNameBytes of name arena each, and growEdges edge
// records each in the slab. A build that knows its size up front then adds
// its nodes and edges without regrowing any of them.
func (n *Net) Grow(count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes.recs = slices.Grow(n.nodes.recs, count)
	n.nodes.arena = slices.Grow(n.nodes.arena, count*growNameBytes)
	n.links = slices.Grow(n.links, count)
	n.edges = slices.Grow(n.edges, count*growEdges)
	if size := tableSize(n.names + count); size > len(n.slots) {
		n.indexNames(size)
	}
}

// nameSlot returns the slot of name in the name index: the one that points
// at its first node, or the empty slot where that pointer would go. A
// slot's node is NodeID(slot value) - 1, so an empty slot reads as
// InvalidNode.
func (n *Net) nameSlot(name string) uint64 {
	mask := uint64(len(n.slots) - 1)
	for s := nameHash(name) & mask; ; s = (s + 1) & mask {
		if j := n.slots[s]; j == 0 || n.nodes.name(int(j-1)) == name {
			return s
		}
	}
}

// indexNames rebuilds the name index with size slots.
func (n *Net) indexNames(size int) {
	old := n.slots
	n.slots = make([]uint32, size)
	mask := uint64(size - 1)
	for _, j := range old {
		if j == 0 {
			continue
		}
		s := nameHash(n.nodes.name(int(j-1))) & mask
		for n.slots[s] != 0 {
			s = (s + 1) & mask
		}
		n.slots[s] = j
	}
}

// AddNode inserts a node and returns its ID. Duplicate (kind, name, domain)
// triples return the existing node, making loads idempotent.
func (n *Net) AddNode(kind NodeKind, name, domain string) NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	slot, last := n.nameSlot(name), InvalidNode
	for id := NodeID(n.slots[slot]) - 1; id != InvalidNode; id = n.links[id].nextName {
		if r := n.nodes.recs[id]; NodeKind(r.kind) == kind && n.nodes.domains[r.dom] == domain {
			return id
		}
		last = id
	}
	if uint64(len(n.nodes.arena))+uint64(len(name)) > maxArena {
		panic(fmt.Sprintf("core: AddNode: the net's names would exceed %d bytes", uint64(maxArena)))
	}
	id := NodeID(len(n.nodes.recs))
	n.version.mutations++
	off := len(n.nodes.arena)
	n.nodes.arena = append(n.nodes.arena, name...)
	n.nodes.addNode(kind, off, domain)
	n.links = append(n.links, nodeLinks{nextName: InvalidNode})
	if last != InvalidNode {
		n.links[last].nextName = id
		return id
	}
	if 2*(n.names+1) > len(n.slots) {
		n.indexNames(2 * len(n.slots))
		slot = n.nameSlot(name)
	}
	n.slots[slot] = uint32(id) + 1
	n.names++
	return id
}

// AddEdge inserts a typed edge after validating layer compatibility.
// Duplicate (from, to, kind, rel) edges update the weight instead, on the
// one record both directions read. It fails when the (rel, weight) pair
// needs a new label and the label table is full.
func (n *Net) AddEdge(from, to NodeID, kind EdgeKind, rel string, weight float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.valid(from) || !n.valid(to) {
		return fmt.Errorf("core: AddEdge with invalid node id %d -> %d", from, to)
	}
	fk, tk := NodeKind(n.nodes.recs[from].kind), NodeKind(n.nodes.recs[to].kind)
	if kind < 0 || kind >= numEdgeKinds || !slices.Contains(edgeRules[kind], [2]NodeKind{fk, tk}) {
		return fmt.Errorf("core: edge %s not allowed from %s to %s", kind, fk, tk)
	}
	label, err := internLabel(rel, weight)
	if err != nil {
		return fmt.Errorf("core: AddEdge %q: %w", rel, err)
	}
	table := labelTable()
	for e := n.links[from].lists[dirOut].head; e != 0; e = n.edges[e].next[dirOut] {
		if r := &n.edges[e]; r.ends[dirIn] == to && r.kind == kind && table[r.label].rel == rel {
			if r.label != label {
				n.version.mutations++
				r.label = label
			}
			return nil
		}
	}
	if uint64(len(n.edges)) > math.MaxUint32 {
		return fmt.Errorf("core: AddEdge: the net holds %d edges, as many as its lists can link", len(n.edges)-1)
	}
	n.version.mutations++
	e := uint32(len(n.edges))
	out, in := &n.links[from].lists[dirOut], &n.links[to].lists[dirIn]
	n.edges = append(n.edges, edgeRec{ends: [2]NodeID{from, to}, next: [2]uint32{out.head, in.head}, label: label, kind: kind})
	out.head, in.head = e, e
	out.len++
	in.len++
	return nil
}

func (n *Net) valid(id NodeID) bool { return id >= 0 && int(id) < len(n.nodes.recs) }

// Node returns the node for id; ok is false for invalid ids. The Name is a
// view of the net's name arena.
func (n *Net) Node(id NodeID) (Node, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.valid(id) {
		return Node{}, false
	}
	return n.nodes.node(int(id)), true
}

// NumNodes returns the node count.
func (n *Net) NumNodes() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.nodes.recs)
}

// NumEdges returns the edge count.
func (n *Net) NumEdges() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.edges) - 1
}

// FirstByNameKind returns the first matching node or InvalidNode.
func (n *Net) FirstByNameKind(name string, kind NodeKind) NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for id := NodeID(n.slots[n.nameSlot(name)]) - 1; id != InvalidNode; id = n.links[id].nextName {
		if NodeKind(n.nodes.recs[id].kind) == kind {
			return id
		}
	}
	return InvalidNode
}

// sortHalfEdgesByWeight orders postings best weight first, ties by peer.
// slices.SortFunc is the pattern-defeating quicksort sort.Slice runs, so
// postings that tie on both keys keep the order saved shard files hold,
// and unlike sort.Slice it allocates nothing.
func sortHalfEdgesByWeight(hes []HalfEdge) {
	slices.SortFunc(hes, func(a, b HalfEdge) int {
		if wa, wb := a.Weight(), b.Weight(); wa != wb {
			if wa > wb {
				return -1
			}
			return 1
		}
		return cmp.Compare(a.Peer, b.Peer)
	})
}
