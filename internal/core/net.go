// Package core implements the AliCoCo net itself: a four-layer typed
// property graph (taxonomy classes, primitive concepts, e-commerce concepts,
// items — Figure 1 of the paper). The net is built offline and served
// online, as the paper does (Section 8): a Net is the builder, with typed
// relation validation, and Freeze and FreezeShards turn it into immutable
// CSR shards (FrozenNet, the unit of snapshot persistence) that a ShardSet
// serves as the one query surface: name and adjacency lookups, traversals
// and statistics. All Net methods and all ShardSet reads are safe for
// concurrent use.
package core

import (
	"fmt"
	"maps"
	"slices"
	"sort"
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

// Node is one vertex of the net. A Node read from a frozen net (a ShardSet
// or one of its shards) does not own its Name: the string is a view of the
// shard's name arena, so a caller that keeps it keeps all of that shard's
// names alive. Copy it (strings.Clone) to keep a name past the snapshot's
// life.
type Node struct {
	ID     NodeID
	Kind   NodeKind
	Name   string // surface form (lower-cased); not unique
	Domain string // taxonomy domain for classes/primitives, family for items
}

// HalfEdge is an outgoing or incoming adjacency record. It is 8 bytes and
// holds no pointers, the layout of the on-disk record in persist_frozen.go,
// so the live net's, every freeze's and every loaded shard's edge arrays
// are never scanned by the garbage collector. Its relation name and weight
// are one interned Label; Rel and Weight read them.
type HalfEdge struct {
	Peer  NodeID   // the node at the other end (a global ID)
	Kind  EdgeKind // relation type
	Label Label    // named schema relation ("" otherwise) and weight
}

// Net is the concept net under construction. It answers only what the
// build and the freeze ask of it; every query reads a ShardSet frozen from
// it.
type Net struct {
	mu     sync.RWMutex
	nodes  []Node
	outAdj [][]HalfEdge
	inAdj  [][]HalfEdge
	byName map[string][]NodeID
	edges  int

	// version names the net among the process's nets and counts the
	// AddNode and AddEdge calls that changed it: those that added a node
	// or an edge, or changed the bits of an edge's weight. Every freeze
	// records it, so IsCurrentPartition can tell a freeze of this state
	// from anything else without the snapshot keeping the net alive.
	version netVersion
}

// netVersion is a net's identity and mutation count.
type netVersion struct {
	net, mutations uint64
}

// netIDs numbers the nets of a process, starting at 1; a snapshot that was
// not frozen from a live net records net 0.
var netIDs atomic.Uint64

// NewNet returns an empty net.
func NewNet() *Net {
	return &Net{byName: make(map[string][]NodeID), version: netVersion{net: netIDs.Add(1)}}
}

// Grow reserves room for count more nodes: node slots, their adjacency
// list headers and name index entries, so a build that knows its size up
// front adds its nodes without regrowing them.
func (n *Net) Grow(count int) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.nodes = slices.Grow(n.nodes, count)
	n.outAdj = slices.Grow(n.outAdj, count)
	n.inAdj = slices.Grow(n.inAdj, count)
	byName := make(map[string][]NodeID, len(n.byName)+count)
	maps.Copy(byName, n.byName)
	n.byName = byName
}

// AddNode inserts a node and returns its ID. Duplicate (kind, name, domain)
// triples return the existing node, making loads idempotent.
func (n *Net) AddNode(kind NodeKind, name, domain string) NodeID {
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, id := range n.byName[name] {
		nd := n.nodes[id]
		if nd.Kind == kind && nd.Domain == domain {
			return id
		}
	}
	id := NodeID(len(n.nodes))
	n.version.mutations++
	n.nodes = append(n.nodes, Node{ID: id, Kind: kind, Name: name, Domain: domain})
	n.outAdj = append(n.outAdj, nil)
	n.inAdj = append(n.inAdj, nil)
	n.byName[name] = append(n.byName[name], id)
	return id
}

// AddEdge inserts a typed edge after validating layer compatibility.
// Duplicate (from, to, kind, rel) edges update the weight instead. It fails
// when the (rel, weight) pair needs a new label and the label table is
// full.
func (n *Net) AddEdge(from, to NodeID, kind EdgeKind, rel string, weight float64) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.valid(from) || !n.valid(to) {
		return fmt.Errorf("core: AddEdge with invalid node id %d -> %d", from, to)
	}
	fk, tk := n.nodes[from].Kind, n.nodes[to].Kind
	if kind < 0 || kind >= numEdgeKinds || !slices.Contains(edgeRules[kind], [2]NodeKind{fk, tk}) {
		return fmt.Errorf("core: edge %s not allowed from %s to %s", kind, fk, tk)
	}
	label, err := internLabel(rel, weight)
	if err != nil {
		return fmt.Errorf("core: AddEdge %q: %w", rel, err)
	}
	table := labelTable()
	for i, he := range n.outAdj[from] {
		if he.Peer == to && he.Kind == kind && table[he.Label].rel == rel {
			if he.Label != label {
				n.version.mutations++
			}
			n.outAdj[from][i].Label = label
			for j, ie := range n.inAdj[to] {
				if ie.Peer == from && ie.Kind == kind && table[ie.Label].rel == rel {
					n.inAdj[to][j].Label = label
				}
			}
			return nil
		}
	}
	n.version.mutations++
	n.outAdj[from] = append(n.outAdj[from], HalfEdge{Peer: to, Kind: kind, Label: label})
	n.inAdj[to] = append(n.inAdj[to], HalfEdge{Peer: from, Kind: kind, Label: label})
	n.edges++
	return nil
}

func (n *Net) valid(id NodeID) bool { return id >= 0 && int(id) < len(n.nodes) }

// Node returns the node for id; ok is false for invalid ids.
func (n *Net) Node(id NodeID) (Node, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.valid(id) {
		return Node{}, false
	}
	return n.nodes[id], true
}

// NumNodes returns the node count.
func (n *Net) NumNodes() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.nodes)
}

// NumEdges returns the edge count.
func (n *Net) NumEdges() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.edges
}

// FirstByNameKind returns the first matching node or InvalidNode.
func (n *Net) FirstByNameKind(name string, kind NodeKind) NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, id := range n.byName[name] {
		if n.nodes[id].Kind == kind {
			return id
		}
	}
	return InvalidNode
}

func sortHalfEdgesByWeight(hes []HalfEdge) {
	sort.Slice(hes, func(i, j int) bool {
		if wi, wj := hes[i].Weight(), hes[j].Weight(); wi != wj {
			return wi > wj
		}
		return hes[i].Peer < hes[j].Peer
	})
}
