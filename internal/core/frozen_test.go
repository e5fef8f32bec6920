package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// buildRandomNet plants a randomized four-layer net with every edge kind so
// equivalence tests exercise all CSR segments.
func buildRandomNet(t testing.TB, seed int64) *Net {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	n := NewNet()
	var classes, prims, ecpts, items []NodeID
	nClasses, nPrims, nEcpts, nItems := 4+rng.Intn(4), 15+rng.Intn(15), 8+rng.Intn(8), 20+rng.Intn(20)
	for i := 0; i < nClasses; i++ {
		classes = append(classes, n.AddNode(KindClass, fmt.Sprintf("class%d", i), "Category"))
	}
	domains := []string{"Category", "Color", "Function", "Time"}
	for i := 0; i < nPrims; i++ {
		// A few shared surfaces so a name lookup finds multiple nodes.
		name := fmt.Sprintf("prim%d", i%max(1, nPrims-3))
		prims = append(prims, n.AddNode(KindPrimitive, name, domains[rng.Intn(len(domains))]+fmt.Sprint(i)))
	}
	for i := 0; i < nEcpts; i++ {
		ecpts = append(ecpts, n.AddNode(KindEConcept, fmt.Sprintf("concept%d", i), ""))
	}
	for i := 0; i < nItems; i++ {
		items = append(items, n.AddNode(KindItem, fmt.Sprintf("item%d", i), "fam"))
	}
	addEdge := func(from, to NodeID, kind EdgeKind, rel string) {
		if from == to {
			return
		}
		if err := n.AddEdge(from, to, kind, rel, rng.Float64()); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	pick := func(s []NodeID) NodeID { return s[rng.Intn(len(s))] }
	for i := 0; i < nClasses*2; i++ {
		addEdge(pick(classes), pick(classes), EdgeIsA, "")
	}
	for i := 0; i < nClasses; i++ {
		addEdge(pick(classes), pick(classes), EdgeSchema, "suitable_when")
	}
	for i := 0; i < nPrims*2; i++ {
		addEdge(pick(prims), pick(prims), EdgeIsA, "")
	}
	for _, p := range prims {
		addEdge(p, pick(classes), EdgeInstanceOf, "")
	}
	for i := 0; i < nEcpts*3; i++ {
		addEdge(pick(ecpts), pick(prims), EdgeInterpretedBy, "")
	}
	for i := 0; i < nEcpts; i++ {
		addEdge(pick(ecpts), pick(ecpts), EdgeIsA, "")
	}
	for i := 0; i < nItems*3; i++ {
		addEdge(pick(items), pick(prims), EdgeItemPrimitive, "")
	}
	for i := 0; i < nItems*3; i++ {
		addEdge(pick(items), pick(ecpts), EdgeItemEConcept, "")
	}
	return n
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// canonicalEdges sorts a copied half-edge slice into a canonical order so
// live and frozen answers compare as multisets.
func canonicalEdges(hes []HalfEdge) []HalfEdge {
	out := append([]HalfEdge(nil), hes...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Peer != out[j].Peer {
			return out[i].Peer < out[j].Peer
		}
		if out[i].Kind != out[j].Kind {
			return out[i].Kind < out[j].Kind
		}
		if out[i].Rel() != out[j].Rel() {
			return out[i].Rel() < out[j].Rel()
		}
		return out[i].Weight() < out[j].Weight()
	})
	return out
}

func sortedIDs(ids []NodeID) []NodeID {
	out := append([]NodeID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func edgesEqual(a, b []HalfEdge) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func idsEqual(a, b []NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFrozenEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		n := buildRandomNet(t, seed)
		f := n.Freeze()
		if f.NumNodes() != n.NumNodes() || f.NumEdges() != n.NumEdges() {
			t.Fatalf("seed %d: counts differ", seed)
		}
		for id := NodeID(0); int(id) < n.NumNodes(); id++ {
			ln, _ := n.Node(id)
			fn, _ := f.Node(id)
			if ln != fn {
				t.Fatalf("seed %d: node %d differs", seed, id)
			}
			for kind := EdgeKind(-1); kind < numEdgeKinds; kind++ {
				if !edgesEqual(canonicalEdges(n.Out(id, kind)), canonicalEdges(f.Out(id, kind))) {
					t.Fatalf("seed %d: Out(%d,%v) differs:\nlive  %v\nfrozen %v",
						seed, id, kind, n.Out(id, kind), f.Out(id, kind))
				}
				if !edgesEqual(canonicalEdges(n.In(id, kind)), canonicalEdges(f.In(id, kind))) {
					t.Fatalf("seed %d: In(%d,%v) differs", seed, id, kind)
				}
			}
			// Exact order: both stores expand isA before instanceOf per
			// frontier node, so the BFS sequences must be identical.
			for _, depth := range []int{0, 1, 2} {
				if !idsEqual(n.Ancestors(id, depth), f.Ancestors(id, depth)) {
					t.Fatalf("seed %d: Ancestors(%d,%d) differ:\nlive  %v\nfrozen %v",
						seed, id, depth, n.Ancestors(id, depth), f.Ancestors(id, depth))
				}
				if !idsEqual(n.Descendants(id, depth), f.Descendants(id, depth)) {
					t.Fatalf("seed %d: Descendants(%d,%d) differ", seed, id, depth)
				}
			}
			for anc := NodeID(0); int(anc) < n.NumNodes(); anc += 3 {
				if n.IsAncestor(id, anc) != f.IsAncestor(id, anc) {
					t.Fatalf("seed %d: IsAncestor(%d,%d) differs", seed, id, anc)
				}
			}
		}
		for kind := NodeKind(0); kind < numKinds; kind++ {
			if !idsEqual(sortedIDs(n.NodesOfKind(kind)), sortedIDs(f.NodesOfKind(kind))) {
				t.Fatalf("seed %d: NodesOfKind(%v) differ", seed, kind)
			}
		}
		for _, ec := range n.NodesOfKind(KindEConcept) {
			for _, limit := range []int{0, 1, 3} {
				live := n.ItemsForEConcept(ec, limit)
				froz := f.ItemsForEConcept(ec, limit)
				// Both are weight-sorted; ties may order arbitrarily, so
				// compare the weight sequence and the peer multiset.
				if len(live) != len(froz) {
					t.Fatalf("seed %d: ItemsForEConcept(%d,%d) length differs", seed, ec, limit)
				}
				for i := range live {
					if live[i].Weight() != froz[i].Weight() {
						t.Fatalf("seed %d: ItemsForEConcept(%d,%d) weight order differs", seed, ec, limit)
					}
				}
			}
			if !edgesEqual(canonicalEdges(n.PrimitivesForEConcept(ec)), canonicalEdges(f.PrimitivesForEConcept(ec))) {
				t.Fatalf("seed %d: PrimitivesForEConcept(%d) differs", seed, ec)
			}
		}
		for _, it := range n.NodesOfKind(KindItem) {
			live, froz := n.EConceptsForItem(it, 5), f.EConceptsForItem(it, 5)
			if len(live) != len(froz) {
				t.Fatalf("seed %d: EConceptsForItem(%d) length differs", seed, it)
			}
			for i := range live {
				if live[i].Weight() != froz[i].Weight() {
					t.Fatalf("seed %d: EConceptsForItem(%d) weight order differs", seed, it)
				}
			}
		}
		// Name index equivalence, for every kind of every name.
		for id := NodeID(0); int(id) < n.NumNodes(); id++ {
			nd, _ := n.Node(id)
			for kind := NodeKind(0); kind < numKinds; kind++ {
				if n.FirstByNameKind(nd.Name, kind) != f.FirstByNameKind(nd.Name, kind) {
					t.Fatalf("seed %d: FirstByNameKind(%q, %v) differs", seed, nd.Name, kind)
				}
				if n.FirstByNameKindBytes([]byte(nd.Name), kind) != f.FirstByNameKindBytes([]byte(nd.Name), kind) {
					t.Fatalf("seed %d: FirstByNameKindBytes(%q, %v) differs", seed, nd.Name, kind)
				}
			}
		}
		if n.FirstByNameKindBytes([]byte("no such node"), KindItem) != InvalidNode || f.FirstByNameKindBytes([]byte("no such node"), KindItem) != InvalidNode {
			t.Fatalf("seed %d: FirstByNameKindBytes resolved an unknown name", seed)
		}
	}
}

func TestFrozenPostingsSorted(t *testing.T) {
	n := buildRandomNet(t, 42)
	f := n.Freeze()
	for _, ec := range f.NodesOfKind(KindEConcept) {
		items := f.ItemsForEConcept(ec, 0)
		for i := 1; i < len(items); i++ {
			if items[i].Weight() > items[i-1].Weight() {
				t.Fatalf("postings of %d not weight-sorted", ec)
			}
		}
	}
}

func TestFrozenImmuneToLaterWrites(t *testing.T) {
	n, ids := buildToyNet(t)
	f := n.Freeze()
	nodesBefore, edgesBefore := f.NumNodes(), f.NumEdges()
	outBefore := len(f.Out(ids["item2"], EdgeItemPrimitive))
	extra := n.AddNode(KindPrimitive, "velvet", "Material")
	if err := n.AddEdge(ids["item2"], extra, EdgeItemPrimitive, "", 1); err != nil {
		t.Fatal(err)
	}
	if f.NumNodes() != nodesBefore || f.NumEdges() != edgesBefore {
		t.Fatal("snapshot changed after live-net writes")
	}
	if len(f.Out(ids["item2"], EdgeItemPrimitive)) != outBefore {
		t.Fatal("snapshot adjacency changed after live-net writes")
	}
	if f.FirstByNameKind("velvet", KindPrimitive) != InvalidNode {
		t.Fatal("snapshot name index changed after live-net writes")
	}
}

func TestFrozenInvalidIDs(t *testing.T) {
	n, _ := buildToyNet(t)
	f := n.Freeze()
	if _, ok := f.Node(-1); ok {
		t.Fatal("negative id should not resolve")
	}
	if _, ok := f.Node(NodeID(f.NumNodes())); ok {
		t.Fatal("out-of-range id should not resolve")
	}
	if f.Out(-1, EdgeIsA) != nil || f.In(NodeID(999), -1) != nil {
		t.Fatal("invalid ids should have no adjacency")
	}
	if f.Ancestors(-5, 0) != nil || f.Descendants(NodeID(999), 0) != nil {
		t.Fatal("invalid ids should have no traversal")
	}
	if f.IsAncestor(0, -1) || f.IsAncestor(-1, 0) || f.IsAncestor(0, 0) {
		t.Fatal("invalid IsAncestor cases should be false")
	}
	if f.NodesOfKind(NodeKind(99)) != nil {
		t.Fatal("invalid kind should be empty")
	}
	if f.Out(0, EdgeKind(99)) != nil {
		t.Fatal("invalid edge kind should be empty")
	}
}

func TestFrozenStatsMatchLive(t *testing.T) {
	n := buildRandomNet(t, 7)
	f := n.Freeze()
	ls, fs := n.ComputeStats(), f.ComputeStats()
	if ls.Nodes != fs.Nodes || ls.Edges != fs.Edges ||
		ls.IsAPrimitive != fs.IsAPrimitive || ls.IsAEConcept != fs.IsAEConcept ||
		ls.AvgItemsPerEConcept != fs.AvgItemsPerEConcept {
		t.Fatalf("stats differ:\nlive  %+v\nfrozen %+v", ls, fs)
	}
	for k, v := range ls.EdgesByKind {
		if fs.EdgesByKind[k] != v {
			t.Fatalf("edge kind %s count differs", k)
		}
	}
}

// TestFrozenConcurrentReads hammers every frozen read path from many
// goroutines; run with -race to prove the snapshot is lock-free safe (the
// pooled visited arrays are the part that could regress).
func TestFrozenConcurrentReads(t *testing.T) {
	n := buildRandomNet(t, 99)
	f := n.Freeze()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := NodeID((g*31 + i) % f.NumNodes())
				f.Out(id, EdgeIsA)
				f.In(id, -1)
				f.Ancestors(id, 0)
				f.Descendants(id, 2)
				f.IsAncestor(id, NodeID(i%f.NumNodes()))
				f.ItemsForEConcept(id, 5)
				f.EConceptsForItem(id, 5)
				f.NodesOfKind(KindItem)
				nd, _ := f.Node(id)
				f.FirstByNameKind(nd.Name, nd.Kind)
			}
		}(g)
	}
	wg.Wait()
}

// TestIsCurrentPartition: a freeze stays the net's current partition until
// AddNode or AddEdge changes the net — calls that change nothing keep it —
// and only for the partition shape it was frozen as. Loaded shards, and
// shards of another net with the same content, never qualify.
func TestIsCurrentPartition(t *testing.T) {
	n, ids := buildToyNet(t)
	shards := n.FreezeShards(3)
	if !n.IsCurrentPartition(shards) || !n.IsCurrentPartition(n.Freeze().Shards()) {
		t.Fatal("a fresh freeze is not the current partition")
	}
	for name, bad := range map[string][]*FrozenNet{
		"no shards":      nil,
		"two of three":   shards[:2],
		"out of order":   {shards[1], shards[0], shards[2]},
		"nil shard":      {shards[0], nil, shards[2]},
		"a whole freeze": {n.Freeze().Shard(0), shards[1], shards[2]},
	} {
		if n.IsCurrentPartition(bad) {
			t.Errorf("%s: reported current", name)
		}
	}
	loaded, err := LoadFrozen(bytes.NewReader(saveFrozen(t, shards[1])))
	if err != nil {
		t.Fatal(err)
	}
	if n.IsCurrentPartition([]*FrozenNet{shards[0], loaded, shards[2]}) {
		t.Error("a partition holding a loaded shard reported current")
	}
	twin, _ := buildToyNet(t)
	if n.IsCurrentPartition(twin.FreezeShards(3)) {
		t.Error("another net's equal partition reported current")
	}

	// Calls that change nothing: an existing node, an edge at its weight,
	// a rejected edge.
	before := n.version.mutations
	n.AddNode(KindPrimitive, "silk", "Material")
	if err := n.AddEdge(ids["pSilkDress"], ids["pDress"], EdgeIsA, "", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddEdge(ids["item1"], ids["clsDress"], EdgeIsA, "", 1); err == nil {
		t.Fatal("item isA class accepted")
	}
	if n.version.mutations != before || !n.IsCurrentPartition(shards) {
		t.Fatalf("no-op calls moved the mutation count from %d to %d", before, n.version.mutations)
	}

	for _, change := range []struct {
		name  string
		apply func() error
	}{
		{"weight change", func() error { return n.AddEdge(ids["pSilkDress"], ids["pDress"], EdgeIsA, "", 0.5) }},
		{"new edge", func() error { return n.AddEdge(ids["pSilkDress"], ids["pSilk"], EdgeIsA, "", 1) }},
		{"new node", func() error { n.AddNode(KindPrimitive, "linen", "Material"); return nil }},
	} {
		before := n.version.mutations
		if err := change.apply(); err != nil {
			t.Fatal(err)
		}
		if n.version.mutations != before+1 {
			t.Fatalf("%s: mutation count %d, want %d", change.name, n.version.mutations, before+1)
		}
		if n.IsCurrentPartition(shards) {
			t.Fatalf("%s: the old partition still reports current", change.name)
		}
		shards = n.FreezeShards(3)
		if !n.IsCurrentPartition(shards) {
			t.Fatalf("%s: the refrozen partition is not current", change.name)
		}
	}
}
