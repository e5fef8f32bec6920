package core

import "slices"

// The live net's read half. Serving reads only a frozen ShardSet, so these
// lock-guarded scans of the live net live here, as the reference the
// frozen store is checked against: the equivalence, stats and fuzz tests
// compare every ShardSet query with the method of the same name on the Net
// it was frozen from. They read the edge slab only through
// adjacencyLocked, and only the fuzz model (net_model_test.go) checks what
// it reads.

// adjacencyLocked returns node id's half-edges in direction d (dirOut or
// dirIn) in insertion order, or nil for an ID the net does not hold.
// Callers hold n.mu.
func (n *Net) adjacencyLocked(id NodeID, d int) []HalfEdge {
	if !n.valid(id) {
		return nil
	}
	var hes []HalfEdge
	for e := n.links[id].lists[d].head; e != 0; e = n.edges[e].next[d] {
		hes = append(hes, n.edges[e].half(d))
	}
	slices.Reverse(hes) // lists run newest first
	return hes
}

// lists returns a copy of the live net's nodes and each node's half-edges
// in both directions, for the tests that compare a freeze with the whole
// net.
func (n *Net) lists() (nodes []Node, out, in [][]HalfEdge) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	nodes = make([]Node, len(n.nodes.recs))
	out, in = make([][]HalfEdge, len(nodes)), make([][]HalfEdge, len(nodes))
	for id := range nodes {
		nodes[id] = n.nodes.node(id)
		out[id], in[id] = n.adjacencyLocked(NodeID(id), dirOut), n.adjacencyLocked(NodeID(id), dirIn)
	}
	return nodes, out, in
}

// FirstByNameKindBytes is FirstByNameKind keyed by a byte buffer, found by
// a scan of the nodes in ID order rather than through the name index.
func (n *Net) FirstByNameKindBytes(name []byte, kind NodeKind) NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for id := range n.nodes.recs {
		if nd := n.nodes.node(id); nd.Kind == kind && nd.Name == string(name) {
			return nd.ID
		}
	}
	return InvalidNode
}

// Out returns outgoing half-edges of a kind (all kinds if kind < 0).
func (n *Net) Out(id NodeID, kind EdgeKind) []HalfEdge {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return filterKind(n.adjacencyLocked(id, dirOut), kind)
}

// In returns incoming half-edges of a kind (all kinds if kind < 0).
func (n *Net) In(id NodeID, kind EdgeKind) []HalfEdge {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return filterKind(n.adjacencyLocked(id, dirIn), kind)
}

func filterKind(hes []HalfEdge, kind EdgeKind) []HalfEdge {
	var out []HalfEdge
	for _, he := range hes {
		if kind < 0 || he.Kind == kind {
			out = append(out, he)
		}
	}
	return out
}

// Ancestors walks EdgeIsA/EdgeInstanceOf upward from id (BFS) up to
// maxDepth levels (maxDepth <= 0 means unlimited) and returns the visited
// ancestor IDs in BFS order, excluding id itself. Within one node's
// frontier, isA edges are expanded before instanceOf edges — the same
// order the frozen snapshot's kind-grouped CSR yields — so live and frozen
// traversals return identical sequences.
func (n *Net) Ancestors(id NodeID, maxDepth int) []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.bfsHierarchyLocked(id, maxDepth, dirOut)
}

// Descendants walks EdgeIsA/EdgeInstanceOf downward (incoming edges).
func (n *Net) Descendants(id NodeID, maxDepth int) []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.bfsHierarchyLocked(id, maxDepth, dirIn)
}

func (n *Net) bfsHierarchyLocked(id NodeID, maxDepth, d int) []NodeID {
	if !n.valid(id) {
		return nil
	}
	type qe struct {
		id    NodeID
		depth int
	}
	seen := map[NodeID]bool{id: true}
	queue := []qe{{id, 0}}
	var out []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		hes := n.adjacencyLocked(cur.id, d)
		for _, kind := range [2]EdgeKind{EdgeIsA, EdgeInstanceOf} {
			for _, he := range hes {
				if he.Kind != kind || seen[he.Peer] {
					continue
				}
				seen[he.Peer] = true
				out = append(out, he.Peer)
				queue = append(queue, qe{he.Peer, cur.depth + 1})
			}
		}
	}
	return out
}

// IsAncestor reports whether anc is reachable upward from id.
func (n *Net) IsAncestor(id, anc NodeID) bool {
	for _, a := range n.Ancestors(id, 0) {
		if a == anc {
			return true
		}
	}
	return false
}

// NodesOfKind returns all node IDs in one layer.
func (n *Net) NodesOfKind(kind NodeKind) []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	var out []NodeID
	for id, r := range n.nodes.recs {
		if NodeKind(r.kind) == kind {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// ItemsForEConcept returns items associated with an e-commerce concept,
// best-weight first, up to limit (limit <= 0 means all).
func (n *Net) ItemsForEConcept(id NodeID, limit int) []HalfEdge {
	return sortTrimPostings(n.In(id, EdgeItemEConcept), limit)
}

// EConceptsForItem returns the e-commerce concepts an item serves.
func (n *Net) EConceptsForItem(id NodeID, limit int) []HalfEdge {
	return sortTrimPostings(n.Out(id, EdgeItemEConcept), limit)
}

// sortTrimPostings weight-sorts postings and trims them to limit entries
// (limit <= 0 means all).
func sortTrimPostings(postings []HalfEdge, limit int) []HalfEdge {
	sortHalfEdgesByWeight(postings)
	if limit > 0 && len(postings) > limit {
		postings = postings[:limit]
	}
	return postings
}

// PrimitivesForEConcept returns the primitive concepts interpreting an
// e-commerce concept (the "understanding" links of Section 5.3).
func (n *Net) PrimitivesForEConcept(id NodeID) []HalfEdge {
	return n.Out(id, EdgeInterpretedBy)
}

// ComputeStats scans the net once and fills a Stats.
func (n *Net) ComputeStats() Stats {
	n.mu.RLock()
	defer n.mu.RUnlock()
	s := Stats{
		Nodes:           len(n.nodes.recs),
		Edges:           len(n.edges) - 1,
		PerKind:         make(map[string]int),
		PrimitivesByDom: make(map[string]int),
		EdgesByKind:     make(map[string]int),
	}
	items, econcepts := 0, 0
	var itemPrim, itemEcpt, ecptPrim int
	for id := range n.nodes.recs {
		nd := n.nodes.node(id)
		s.PerKind[nd.Kind.String()]++
		if nd.Kind == KindPrimitive {
			s.PrimitivesByDom[nd.Domain]++
		}
		if nd.Kind == KindItem {
			items++
		}
		if nd.Kind == KindEConcept {
			econcepts++
		}
		for _, he := range n.adjacencyLocked(nd.ID, dirOut) {
			s.EdgesByKind[he.Kind.String()]++
			switch he.Kind {
			case EdgeIsA:
				switch nd.Kind {
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
