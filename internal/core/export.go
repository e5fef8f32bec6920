package core

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// ExportDOT writes a Graphviz rendering of the subgraph within maxDepth hops
// of root (all edge kinds, both directions), for inspecting neighborhoods of
// the net. maxDepth <= 0 exports just the root and its direct neighbors.
func (n *Net) ExportDOT(w io.Writer, root NodeID, maxDepth int) error {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.valid(root) {
		return fmt.Errorf("core: ExportDOT: invalid root %d", root)
	}
	if maxDepth <= 0 {
		maxDepth = 1
	}
	type qe struct {
		id    NodeID
		depth int
	}
	include := map[NodeID]bool{root: true}
	queue := []qe{{root, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.depth >= maxDepth {
			continue
		}
		for _, adj := range [][]HalfEdge{n.outAdj[cur.id], n.inAdj[cur.id]} {
			for _, he := range adj {
				if !include[he.Peer] {
					include[he.Peer] = true
					queue = append(queue, qe{he.Peer, cur.depth + 1})
				}
			}
		}
	}
	ids := make([]NodeID, 0, len(include))
	for id := range include {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	var b strings.Builder
	b.WriteString("digraph alicoco {\n  rankdir=BT;\n")
	shape := map[NodeKind]string{
		KindClass: "ellipse", KindPrimitive: "box", KindEConcept: "hexagon", KindItem: "note",
	}
	for _, id := range ids {
		nd := n.nodes[id]
		fmt.Fprintf(&b, "  n%d [label=%q shape=%s];\n", id, nd.Kind.String()+": "+nd.Name, shape[nd.Kind])
	}
	for _, id := range ids {
		for _, he := range n.outAdj[id] {
			if !include[he.Peer] {
				continue
			}
			label := he.Kind.String()
			if he.Rel != 0 {
				label += ":" + he.Rel.String()
			}
			fmt.Fprintf(&b, "  n%d -> n%d [label=%q];\n", id, he.Peer, label)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}
