package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// netModel is what a live net must hold after a sequence of AddNode and
// AddEdge calls, kept the plainest way: a slice of nodes, a slice of
// half-edges per node and direction in insertion order, and maps that find
// a node or an edge by its identity. FuzzNetMatchesModel checks the net's
// name index, node arena and edge slab against it.
type netModel struct {
	nodes   []Node
	nodeIDs map[modelNode]NodeID
	out, in [][]modelEdge
	edgeAt  map[modelEdgeKey][2]int // an edge's index in out[from] and in[to]
	edges   int
}

type modelNode struct {
	kind         NodeKind
	name, domain string
}

type modelEdgeKey struct {
	from, to NodeID
	kind     EdgeKind
	rel      string
}

// modelEdge is a half-edge as the model holds it: its weight's bits, so a
// duplicate edge that changes only the sign of a zero weight is an update.
type modelEdge struct {
	peer NodeID
	kind EdgeKind
	rel  string
	bits uint64
}

func newNetModel() *netModel {
	return &netModel{nodeIDs: map[modelNode]NodeID{}, edgeAt: map[modelEdgeKey][2]int{}}
}

func (m *netModel) addNode(kind NodeKind, name, domain string) NodeID {
	key := modelNode{kind, name, domain}
	if id, ok := m.nodeIDs[key]; ok {
		return id
	}
	id := NodeID(len(m.nodes))
	m.nodes = append(m.nodes, Node{ID: id, Kind: kind, Name: name, Domain: domain})
	m.nodeIDs[key] = id
	m.out = append(m.out, nil)
	m.in = append(m.in, nil)
	return id
}

// addEdge reports whether the net must accept the edge, and records it.
func (m *netModel) addEdge(from, to NodeID, kind EdgeKind, rel string, weight float64) bool {
	if from < 0 || int(from) >= len(m.nodes) || to < 0 || int(to) >= len(m.nodes) ||
		kind < 0 || kind >= numEdgeKinds || !slices.Contains(edgeRules[kind], [2]NodeKind{m.nodes[from].Kind, m.nodes[to].Kind}) {
		return false
	}
	bits := math.Float64bits(weight)
	key := modelEdgeKey{from, to, kind, rel}
	if at, ok := m.edgeAt[key]; ok {
		m.out[from][at[0]].bits = bits
		m.in[to][at[1]].bits = bits
		return true
	}
	m.edgeAt[key] = [2]int{len(m.out[from]), len(m.in[to])}
	m.out[from] = append(m.out[from], modelEdge{to, kind, rel, bits})
	m.in[to] = append(m.in[to], modelEdge{from, kind, rel, bits})
	m.edges++
	return true
}

func (m *netModel) firstByNameKind(name string, kind NodeKind) NodeID {
	for _, nd := range m.nodes {
		if nd.Name == name && nd.Kind == kind {
			return nd.ID
		}
	}
	return InvalidNode
}

// modelNames are the names a FuzzNetMatchesModel input picks from: the
// reference fuzzer's, which repeat across kinds and domains and include
// empty and non-ASCII ones, and 64 more, so the name index of a net that
// was never grown rehashes several times.
var modelNames = func() []string {
	names := slices.Clone(fuzzNames)
	for i := 0; i < 64; i++ {
		names = append(names, fmt.Sprintf("name %d", i))
	}
	return names
}()

// modelWeights adds a negative zero to the reference fuzzer's weights, so a
// duplicate edge can change its weight's bits and not its value.
var modelWeights = append(slices.Clone(fuzzWeights), math.Copysign(0, -1))

// replayOnModel decodes fuzz input into AddNode and AddEdge calls, up to
// 512 of them, and makes each on a new net and on a model, failing when
// the two disagree on a returned ID or on whether an edge is accepted. A
// call's first byte, mod 4, picks what it is. At 0 it is an AddNode, which
// reads a kind, a name and a domain. At 2 or 3 it is an AddEdge that reads
// an edge kind, a layer pair that kind allows and one end in each of those
// layers (the call ends there when either layer has no node yet), then a
// relation and a weight. At 1 it is an AddEdge that reads a kind (one past
// the last included), two ends among all the nodes and one past them, a
// relation and a weight, so the net must reject what the model rejects.
func replayOnModel(t *testing.T, data []byte) (*Net, *netModel) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	n, m := NewNet(), newNetModel()
	var byKind [numKinds][]NodeID
	for calls := 0; len(data) > 0 && calls < 512; calls++ {
		op := next() % 4
		if op == 0 {
			kind := NodeKind(next() % int(numKinds))
			name, domain := modelNames[next()%len(modelNames)], fuzzDomains[next()%len(fuzzDomains)]
			added := len(m.nodes)
			want := m.addNode(kind, name, domain)
			if got := n.AddNode(kind, name, domain); got != want {
				t.Fatalf("call %d: AddNode(%v, %q, %q) = %d, want %d", calls, kind, name, domain, got, want)
			}
			if int(want) == added {
				byKind[kind] = append(byKind[kind], want)
			}
			continue
		}
		var from, to NodeID
		var kind EdgeKind
		if op >= 2 {
			kind = EdgeKind(next() % int(numEdgeKinds))
			rule := edgeRules[kind][next()%len(edgeRules[kind])]
			tails, heads := byKind[rule[0]], byKind[rule[1]]
			a, b := next(), next()
			if len(tails) == 0 || len(heads) == 0 {
				continue
			}
			from, to = tails[a%len(tails)], heads[b%len(heads)]
		} else {
			kind = EdgeKind(next() % (int(numEdgeKinds) + 1))
			from, to = NodeID(next()%(len(m.nodes)+1)), NodeID(next()%(len(m.nodes)+1))
		}
		rel, w := fuzzRels[next()%len(fuzzRels)], modelWeights[next()%len(modelWeights)]
		want := m.addEdge(from, to, kind, rel, w)
		if err := n.AddEdge(from, to, kind, rel, w); (err == nil) != want {
			t.Fatalf("call %d: AddEdge(%d, %d, %v, %q, %v) = %v; the model accepts it: %v", calls, from, to, kind, rel, w, err, want)
		}
	}
	return n, m
}

// checkNetMatchesModel compares the net with the model: every node, every
// first node of a name in a layer, the edge count, and each node's out-
// and in-edges of every kind, read through a one-shard freeze. The freeze
// groups a node's edges by kind and keeps insertion order within a kind,
// except for item<->e-commerce-concept postings, which it sorts by weight:
// those compare as multisets.
func checkNetMatchesModel(t *testing.T, n *Net, m *netModel) {
	t.Helper()
	if n.NumNodes() != len(m.nodes) || n.NumEdges() != m.edges {
		t.Fatalf("net holds %d nodes and %d edges, the model %d and %d", n.NumNodes(), n.NumEdges(), len(m.nodes), m.edges)
	}
	for _, id := range []NodeID{-1, NodeID(len(m.nodes))} {
		if nd, ok := n.Node(id); ok {
			t.Fatalf("Node(%d) = %+v for an ID the net does not hold", id, nd)
		}
	}
	for _, want := range m.nodes {
		if got, ok := n.Node(want.ID); !ok || got != want {
			t.Fatalf("Node(%d) = %+v, %v; want %+v", want.ID, got, ok, want)
		}
	}
	for _, name := range append(modelNames, "no such name") {
		for kind := NodeKind(0); kind < numKinds; kind++ {
			if got, want := n.FirstByNameKind(name, kind), m.firstByNameKind(name, kind); got != want {
				t.Fatalf("FirstByNameKind(%q, %v) = %d, want %d", name, kind, got, want)
			}
		}
	}
	f := n.Freeze()
	for id := range m.nodes {
		for dir, lists := range map[string][][]modelEdge{"out": m.out, "in": m.in} {
			read := f.Out
			if dir == "in" {
				read = f.In
			}
			total := 0
			for kind := EdgeKind(0); kind < numEdgeKinds; kind++ {
				var want []modelEdge
				for _, e := range lists[id] {
					if e.kind == kind {
						want = append(want, e)
					}
				}
				var got []modelEdge
				for _, he := range read(NodeID(id), kind) {
					got = append(got, modelEdge{he.Peer, he.Kind, he.Rel(), math.Float64bits(he.Weight())})
				}
				if kind == EdgeItemEConcept {
					slices.SortFunc(want, compareModelEdges)
					slices.SortFunc(got, compareModelEdges)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("node %d %s-edges of kind %v: frozen %+v, want %+v", id, dir, kind, got, want)
				}
				total += len(got)
			}
			if all := len(read(NodeID(id), -1)); all != total || all != len(lists[id]) {
				t.Fatalf("node %d: %d %s-edges of all kinds, %d by kind, want %d", id, all, dir, total, len(lists[id]))
			}
		}
	}
}

func compareModelEdges(a, b modelEdge) int {
	switch {
	case a.peer != b.peer:
		return int(a.peer - b.peer)
	case a.rel != b.rel:
		if a.rel < b.rel {
			return -1
		}
		return 1
	case a.bits < b.bits:
		return -1
	case a.bits > b.bits:
		return 1
	}
	return 0
}

// FuzzNetMatchesModel: the live net's name index, node arena and linked
// edge slab hold what a plain model of the same calls holds. Each input is
// replayed as AddNode and AddEdge calls on a net that is never grown, so
// its name index and slab grow as they go (replayOnModel), and the net is
// then compared with the model (checkNetMatchesModel).
func FuzzNetMatchesModel(f *testing.F) {
	f.Add([]byte{})
	// An item and a primitive both named "coat", the same item-primitive
	// edge four times, with weights 0.25, -0, +0 and 1, and then one that
	// differs only in its relation.
	f.Add([]byte{
		0, 3, 1, 0, 0, 1, 1, 1,
		2, 3, 0, 0, 0, 0, 1,
		2, 3, 0, 0, 0, 0, 5,
		2, 3, 0, 0, 0, 0, 0,
		2, 3, 0, 0, 0, 0, 3,
		2, 3, 0, 0, 0, 1, 3,
	})
	for seed := 1; seed <= 3; seed++ {
		data := make([]byte, 1024*seed)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, m := replayOnModel(t, data)
		checkNetMatchesModel(t, n, m)
	})
}
