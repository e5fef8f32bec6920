package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// buildToyNet plants a small four-layer net:
//
//	class: Category -> clothing -> dress
//	primitive: dress, silk dress (isA dress), silk
//	econcept: wedding party -> interpretedBy dress primitive
//	items: item1 (dress), item2 (silk dress)
func buildToyNet(t testing.TB) (*Net, map[string]NodeID) {
	t.Helper()
	n := NewNet()
	ids := map[string]NodeID{}
	add := func(key string, kind NodeKind, name, dom string) {
		ids[key] = n.AddNode(kind, name, dom)
	}
	edge := func(a, b string, k EdgeKind, rel string, w float64) {
		if err := n.AddEdge(ids[a], ids[b], k, rel, w); err != nil {
			t.Fatalf("edge %s->%s: %v", a, b, err)
		}
	}
	add("clsCategory", KindClass, "category", "Category")
	add("clsClothing", KindClass, "clothing", "Category")
	add("clsDress", KindClass, "dress", "Category")
	add("pDress", KindPrimitive, "dress", "Category")
	add("pSilkDress", KindPrimitive, "silk dress", "Category")
	add("pSilk", KindPrimitive, "silk", "Material")
	add("eWedding", KindEConcept, "wedding party", "")
	add("item1", KindItem, "zorella elegant dress", "clothing")
	add("item2", KindItem, "mivato silk dress", "clothing")

	edge("clsClothing", "clsCategory", EdgeIsA, "", 1)
	edge("clsDress", "clsClothing", EdgeIsA, "", 1)
	edge("pDress", "clsDress", EdgeInstanceOf, "", 1)
	edge("pSilkDress", "pDress", EdgeIsA, "", 1)
	edge("pSilk", "clsCategory", EdgeInstanceOf, "", 1) // lazy class reuse for test
	edge("eWedding", "pDress", EdgeInterpretedBy, "", 1)
	edge("item1", "pDress", EdgeItemPrimitive, "", 1)
	edge("item2", "pSilkDress", EdgeItemPrimitive, "", 1)
	edge("item2", "pSilk", EdgeItemPrimitive, "", 1)
	edge("item1", "eWedding", EdgeItemEConcept, "", 0.9)
	edge("item2", "eWedding", EdgeItemEConcept, "", 0.7)
	return n, ids
}

func TestAddNodeIdempotent(t *testing.T) {
	n := NewNet()
	a := n.AddNode(KindPrimitive, "dress", "Category")
	b := n.AddNode(KindPrimitive, "dress", "Category")
	if a != b {
		t.Fatal("same (kind,name,domain) should return same node")
	}
	c := n.AddNode(KindPrimitive, "dress", "Style")
	if c == a {
		t.Fatal("different domain should be a new node")
	}
	if n.NumNodes() != 2 {
		t.Fatalf("node count: got %d", n.NumNodes())
	}
}

func TestEdgeValidation(t *testing.T) {
	n := NewNet()
	item := n.AddNode(KindItem, "x", "")
	class := n.AddNode(KindClass, "c", "Category")
	if err := n.AddEdge(item, class, EdgeIsA, "", 1); err == nil {
		t.Fatal("item isA class must be rejected")
	}
	if err := n.AddEdge(NodeID(99), class, EdgeIsA, "", 1); err == nil {
		t.Fatal("invalid node id must be rejected")
	}
	prim := n.AddNode(KindPrimitive, "p", "Color")
	if err := n.AddEdge(prim, class, EdgeInstanceOf, "", 1); err != nil {
		t.Fatalf("valid instanceOf rejected: %v", err)
	}
}

func TestDuplicateEdgeUpdatesWeight(t *testing.T) {
	n := NewNet()
	a := n.AddNode(KindPrimitive, "a", "Color")
	b := n.AddNode(KindPrimitive, "b", "Color")
	if err := n.AddEdge(a, b, EdgeIsA, "", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.AddEdge(a, b, EdgeIsA, "", 0.8); err != nil {
		t.Fatal(err)
	}
	if n.NumEdges() != 1 {
		t.Fatalf("duplicate edge should update, not add: %d edges", n.NumEdges())
	}
	out := n.Out(a, EdgeIsA)
	if len(out) != 1 || out[0].Weight != 0.8 {
		t.Fatalf("weight not updated: %+v", out)
	}
	in := n.In(b, EdgeIsA)
	if len(in) != 1 || in[0].Weight != 0.8 {
		t.Fatalf("incoming weight not updated: %+v", in)
	}
}

func TestFindByName(t *testing.T) {
	n, ids := buildToyNet(t)
	found := n.FindByName("dress")
	if len(found) != 2 { // class + primitive share the surface
		t.Fatalf("dress should resolve to 2 nodes, got %d", len(found))
	}
	prim := n.FirstByNameKind("dress", KindPrimitive)
	if prim != ids["pDress"] {
		t.Fatal("FirstByNameKind wrong")
	}
	if n.FirstByNameKind("nope", KindItem) != InvalidNode {
		t.Fatal("missing name should be InvalidNode")
	}
}

func TestAncestorsAndDescendants(t *testing.T) {
	n, ids := buildToyNet(t)
	anc := n.Ancestors(ids["pSilkDress"], 0)
	want := map[NodeID]bool{ids["pDress"]: true, ids["clsDress"]: true, ids["clsClothing"]: true, ids["clsCategory"]: true}
	if len(anc) != len(want) {
		t.Fatalf("ancestors: got %v", anc)
	}
	for _, a := range anc {
		if !want[a] {
			t.Fatalf("unexpected ancestor %d", a)
		}
	}
	if !n.IsAncestor(ids["pSilkDress"], ids["clsCategory"]) {
		t.Fatal("IsAncestor failed")
	}
	if n.IsAncestor(ids["clsCategory"], ids["pSilkDress"]) {
		t.Fatal("IsAncestor direction wrong")
	}
	desc := n.Descendants(ids["clsClothing"], 0)
	if len(desc) != 3 { // clsDress, pDress, pSilkDress
		t.Fatalf("descendants: got %v", desc)
	}
}

func TestAncestorsDepthLimit(t *testing.T) {
	n, ids := buildToyNet(t)
	anc := n.Ancestors(ids["pSilkDress"], 1)
	if len(anc) != 1 {
		t.Fatalf("depth-1 ancestors: got %v", anc)
	}
}

func TestItemsForEConceptSorted(t *testing.T) {
	n, ids := buildToyNet(t)
	items := n.ItemsForEConcept(ids["eWedding"], 0)
	if len(items) != 2 {
		t.Fatalf("items: got %d", len(items))
	}
	if items[0].Weight < items[1].Weight {
		t.Fatal("items should be sorted best-first")
	}
	limited := n.ItemsForEConcept(ids["eWedding"], 1)
	if len(limited) != 1 || limited[0].Peer != ids["item1"] {
		t.Fatalf("limit: got %+v", limited)
	}
}

func TestEConceptsForItemAndInterpretation(t *testing.T) {
	n, ids := buildToyNet(t)
	ecs := n.EConceptsForItem(ids["item2"], 0)
	if len(ecs) != 1 || ecs[0].Peer != ids["eWedding"] {
		t.Fatalf("econcepts for item: %+v", ecs)
	}
	prims := n.PrimitivesForEConcept(ids["eWedding"])
	if len(prims) != 1 || prims[0].Peer != ids["pDress"] {
		t.Fatalf("interpretation: %+v", prims)
	}
}

func TestNodesOfKind(t *testing.T) {
	n, _ := buildToyNet(t)
	if len(n.NodesOfKind(KindItem)) != 2 {
		t.Fatal("wrong item count")
	}
	if len(n.NodesOfKind(KindClass)) != 3 {
		t.Fatal("wrong class count")
	}
}

func TestStats(t *testing.T) {
	n, _ := buildToyNet(t)
	s := n.ComputeStats()
	if s.PerKind["primitive"] != 3 || s.PerKind["econcept"] != 1 || s.PerKind["item"] != 2 {
		t.Fatalf("stats per kind: %+v", s.PerKind)
	}
	if s.PrimitivesByDom["Category"] != 2 || s.PrimitivesByDom["Material"] != 1 {
		t.Fatalf("stats by domain: %+v", s.PrimitivesByDom)
	}
	if s.IsAPrimitive != 1 {
		t.Fatalf("isA primitive: got %d", s.IsAPrimitive)
	}
	if s.AvgItemsPerEConcept != 2 {
		t.Fatalf("avg items per econcept: got %v", s.AvgItemsPerEConcept)
	}
	if s.Render() == "" {
		t.Fatal("Render should produce output")
	}
}

// TestSaveLoadRoundTrip: the frozen codec restores the toy net with its
// incoming and name indexes intact.
func TestSaveLoadRoundTrip(t *testing.T) {
	n, ids := buildToyNet(t)
	var buf bytes.Buffer
	if err := n.Freeze().Save(&buf); err != nil {
		t.Fatal(err)
	}
	m, err := LoadFrozen(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if m.NumNodes() != n.NumNodes() || m.NumEdges() != n.NumEdges() {
		t.Fatal("counts differ after round trip")
	}
	items := m.ItemsForEConcept(ids["eWedding"], 0)
	if len(items) != 2 {
		t.Fatalf("loaded net lost incoming edges: %+v", items)
	}
	if m.FirstByNameKind("dress", KindPrimitive) == InvalidNode {
		t.Fatal("loaded net lost name index")
	}
	s1, s2 := n.ComputeStats(), m.ComputeStats()
	if s1.Edges != s2.Edges || s1.IsAPrimitive != s2.IsAPrimitive {
		t.Fatal("stats differ after round trip")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadFrozen(bytes.NewBufferString("not a snapshot")); err == nil {
		t.Fatal("garbage should not load")
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	n := NewNet()
	root := n.AddNode(KindClass, "root", "Category")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := n.AddNode(KindClass, fmt.Sprintf("c%d-%d", g, i), "Category")
				if err := n.AddEdge(id, root, EdgeIsA, "", 1); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				n.Descendants(root, 0)
				n.ComputeStats()
				n.FindByName("root")
			}
		}()
	}
	wg.Wait()
	if got := len(n.Descendants(root, 0)); got != 800 {
		t.Fatalf("descendants after concurrent build: got %d", got)
	}
}

// Property: the frozen codec round-trips random nets exactly.
func TestPropertySaveLoadRandomNets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNet()
		var prims []NodeID
		for i := 0; i < 5+rng.Intn(20); i++ {
			prims = append(prims, n.AddNode(KindPrimitive, fmt.Sprintf("p%d", i), "Color"))
		}
		for i := 0; i < 30; i++ {
			a, b := prims[rng.Intn(len(prims))], prims[rng.Intn(len(prims))]
			if a == b {
				continue
			}
			_ = n.AddEdge(a, b, EdgeIsA, "", rng.Float64())
		}
		var buf bytes.Buffer
		if err := n.Freeze().Save(&buf); err != nil {
			return false
		}
		m, err := LoadFrozen(&buf)
		if err != nil {
			return false
		}
		if m.NumNodes() != n.NumNodes() || m.NumEdges() != n.NumEdges() {
			return false
		}
		for _, p := range prims {
			if len(m.Out(p, EdgeIsA)) != len(n.Out(p, EdgeIsA)) {
				return false
			}
			if len(m.In(p, EdgeIsA)) != len(n.In(p, EdgeIsA)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: Ancestors never contains the start node and never repeats.
func TestPropertyAncestorsWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := NewNet()
		var nodes []NodeID
		for i := 0; i < 10; i++ {
			nodes = append(nodes, n.AddNode(KindPrimitive, fmt.Sprintf("p%d", i), "X"))
		}
		for i := 0; i < 15; i++ {
			a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
			if a != b {
				_ = n.AddEdge(a, b, EdgeIsA, "", 1)
			}
		}
		start := nodes[rng.Intn(len(nodes))]
		anc := n.Ancestors(start, 0)
		seen := map[NodeID]bool{}
		for _, a := range anc {
			if a == start || seen[a] {
				return false
			}
			seen[a] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndEdgeStrings(t *testing.T) {
	if KindClass.String() != "class" || KindItem.String() != "item" {
		t.Fatal("NodeKind strings wrong")
	}
	if EdgeIsA.String() != "isA" || EdgeSchema.String() != "schema" {
		t.Fatal("EdgeKind strings wrong")
	}
	if NodeKind(99).String() != "invalid" || EdgeKind(99).String() != "invalid" {
		t.Fatal("invalid enums should say so")
	}
}
