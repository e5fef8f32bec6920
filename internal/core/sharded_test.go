package core

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/faultfs"
)

// shardCounts are the partition widths the equivalence suite runs: the N=1
// degenerate case, counts that divide the net unevenly, and counts larger
// than some test nets (empty trailing shards).
var shardCounts = []int{1, 2, 3, 4, 5, 16}

func newShardSet(t testing.TB, n *Net, count int) *ShardSet {
	t.Helper()
	s, err := NewShardSet(n.FreezeShards(count))
	if err != nil {
		t.Fatalf("NewShardSet(%d): %v", count, err)
	}
	return s
}

// frozenViews returns every frozen form of n: a ShardSet over each of
// shardCounts' partitions, and over the same shards saved and loaded back.
func frozenViews(t testing.TB, n *Net) map[string]*ShardSet {
	t.Helper()
	views := map[string]*ShardSet{}
	for _, count := range shardCounts {
		shards := n.FreezeShards(count)
		loaded := make([]*FrozenNet, count)
		for i, sh := range shards {
			g, err := LoadFrozen(bytes.NewReader(saveFrozen(t, sh)))
			if err != nil {
				t.Fatalf("load frozen: %v", err)
			}
			loaded[i] = g
		}
		for name, set := range map[string][]*FrozenNet{"shards": shards, "loaded shards": loaded} {
			s, err := NewShardSet(set)
			if err != nil {
				t.Fatalf("NewShardSet(%d): %v", count, err)
			}
			views[fmt.Sprintf("%s %d", name, count)] = s
		}
	}
	return views
}

// TestShardSetEquivalenceRandomized proves a ShardSet's answers do not
// depend on its shard count or on a Save→Load round trip: every query
// method, on randomized nets partitioned N ways (frozenViews), must return
// exactly what the one-shard set of Net.Freeze returns — same elements,
// same order — because every shard sorts its postings at freeze time from
// identical per-node segments, the file keeps them in that order, and the
// set expands BFS frontiers in the same order whatever N is.
func TestShardSetEquivalenceRandomized(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		n := buildRandomNet(t, seed)
		f := n.Freeze()
		for view, s := range frozenViews(t, n) {
			ctx := fmt.Sprintf("seed %d %s", seed, view)
			if s.NumNodes() != f.NumNodes() || s.NumEdges() != f.NumEdges() {
				t.Fatalf("%s: counts differ (%d/%d nodes, %d/%d edges)",
					ctx, s.NumNodes(), f.NumNodes(), s.NumEdges(), f.NumEdges())
			}
			for id := NodeID(-2); int(id) < f.NumNodes()+2; id++ {
				fn, fok := f.Node(id)
				sn, sok := s.Node(id)
				if fok != sok || fn != sn {
					t.Fatalf("%s: Node(%d) differs", ctx, id)
				}
				for kind := EdgeKind(-1); kind < numEdgeKinds; kind++ {
					if !edgesEqual(f.Out(id, kind), s.Out(id, kind)) {
						t.Fatalf("%s: Out(%d,%v) differs:\nfrozen  %v\nsharded %v",
							ctx, id, kind, f.Out(id, kind), s.Out(id, kind))
					}
					if !edgesEqual(f.In(id, kind), s.In(id, kind)) {
						t.Fatalf("%s: In(%d,%v) differs", ctx, id, kind)
					}
				}
				for _, depth := range []int{0, 1, 2} {
					if !idsEqual(f.Ancestors(id, depth), s.Ancestors(id, depth)) {
						t.Fatalf("%s: Ancestors(%d,%d) differ:\nfrozen  %v\nsharded %v",
							ctx, id, depth, f.Ancestors(id, depth), s.Ancestors(id, depth))
					}
					if !idsEqual(f.Descendants(id, depth), s.Descendants(id, depth)) {
						t.Fatalf("%s: Descendants(%d,%d) differ", ctx, id, depth)
					}
				}
				for anc := NodeID(0); int(anc) < f.NumNodes(); anc += 3 {
					if f.IsAncestor(id, anc) != s.IsAncestor(id, anc) {
						t.Fatalf("%s: IsAncestor(%d,%d) differs", ctx, id, anc)
					}
				}
			}
			for kind := NodeKind(0); kind < numKinds; kind++ {
				if !idsEqual(f.NodesOfKind(kind), s.NodesOfKind(kind)) {
					t.Fatalf("%s: NodesOfKind(%v) differ", ctx, kind)
				}
			}
			for _, ec := range f.NodesOfKind(KindEConcept) {
				for _, limit := range []int{0, 1, 3} {
					if !edgesEqual(f.ItemsForEConcept(ec, limit), s.ItemsForEConcept(ec, limit)) {
						t.Fatalf("%s: ItemsForEConcept(%d,%d) differs", ctx, ec, limit)
					}
				}
				if !edgesEqual(f.PrimitivesForEConcept(ec), s.PrimitivesForEConcept(ec)) {
					t.Fatalf("%s: PrimitivesForEConcept(%d) differs", ctx, ec)
				}
			}
			for _, it := range f.NodesOfKind(KindItem) {
				if !edgesEqual(f.EConceptsForItem(it, 5), s.EConceptsForItem(it, 5)) {
					t.Fatalf("%s: EConceptsForItem(%d) differs", ctx, it)
				}
			}
			for id := NodeID(0); int(id) < f.NumNodes(); id++ {
				nd, _ := f.Node(id)
				for kind := NodeKind(0); kind < numKinds; kind++ {
					if f.FirstByNameKind(nd.Name, kind) != s.FirstByNameKind(nd.Name, kind) {
						t.Fatalf("%s: FirstByNameKind(%q, %v) differs", ctx, nd.Name, kind)
					}
					if f.FirstByNameKindBytes([]byte(nd.Name), kind) != s.FirstByNameKindBytes([]byte(nd.Name), kind) {
						t.Fatalf("%s: FirstByNameKindBytes(%q, %v) differs", ctx, nd.Name, kind)
					}
				}
			}
			if f.FirstByNameKind("no such name", KindItem) != InvalidNode || s.FirstByNameKind("no such name", KindItem) != InvalidNode {
				t.Fatalf("%s: missing name should resolve to InvalidNode", ctx)
			}
		}
	}
}

// TestShardSetStatsMatchFrozen: merged per-shard stats equal the one-shard
// pass, including the recomputed averages.
func TestShardSetStatsMatchFrozen(t *testing.T) {
	n := buildRandomNet(t, 7)
	fs := n.Freeze().ComputeStats()
	for _, count := range shardCounts {
		ss := newShardSet(t, n, count).ComputeStats()
		if fs.Nodes != ss.Nodes || fs.Edges != ss.Edges ||
			fs.IsAPrimitive != ss.IsAPrimitive || fs.IsAEConcept != ss.IsAEConcept ||
			fs.AvgPrimitivesPerItem != ss.AvgPrimitivesPerItem ||
			fs.AvgEConceptsPerItem != ss.AvgEConceptsPerItem ||
			fs.AvgItemsPerEConcept != ss.AvgItemsPerEConcept ||
			fs.AvgPrimsPerEConcept != ss.AvgPrimsPerEConcept {
			t.Fatalf("shards %d: stats differ:\nfrozen  %+v\nsharded %+v", count, fs, ss)
		}
		for _, pair := range []struct{ f, s map[string]int }{
			{fs.PerKind, ss.PerKind}, {fs.PrimitivesByDom, ss.PrimitivesByDom}, {fs.EdgesByKind, ss.EdgesByKind},
		} {
			if len(pair.f) != len(pair.s) {
				t.Fatalf("shards %d: stats map sizes differ", count)
			}
			for k, v := range pair.f {
				if pair.s[k] != v {
					t.Fatalf("shards %d: stats map key %q differs", count, k)
				}
			}
		}
	}
}

// TestShardIsShardLocal: one shard out of a partition knows the whole net's
// size and resolves only the nodes of its own ID range.
func TestShardIsShardLocal(t *testing.T) {
	n := buildRandomNet(t, 11)
	shards := n.FreezeShards(3)
	sh := shards[1]
	if sh.Base() == 0 || sh.NumNodes() == 0 {
		t.Fatalf("unexpected partition: base %d, %d nodes", sh.Base(), sh.NumNodes())
	}
	if sh.TotalNodes() != n.NumNodes() {
		t.Fatalf("TotalNodes %d, want %d", sh.TotalNodes(), n.NumNodes())
	}
	if _, ok := sh.Node(0); ok {
		t.Fatal("shard 1 resolved shard 0's node")
	}
	if _, ok := sh.Node(sh.Base()); !ok {
		t.Fatal("shard 1 did not resolve its own base node")
	}
}

// TestNewShardSetValidation: assemblies that are not the complete in-order
// output of one partition are rejected.
func TestNewShardSetValidation(t *testing.T) {
	n := buildRandomNet(t, 13)
	shards := n.FreezeShards(4)
	cases := []struct {
		name    string
		shards  []*FrozenNet
		errWant string
	}{
		{"empty", nil, "no shards"},
		{"nil shard", []*FrozenNet{shards[0], nil}, "nil"},
		{"missing shard", shards[:3], "covers"},
		{"out of order", []*FrozenNet{shards[1], shards[0], shards[2], shards[3]}, "covers"},
		{"duplicate shard", []*FrozenNet{shards[0], shards[0], shards[2], shards[3]}, "covers"},
		{"foreign total", []*FrozenNet{shards[0], buildRandomNet(t, 14).FreezeShards(4)[1], shards[2], shards[3]}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewShardSet(tc.shards)
			if err == nil {
				t.Fatal("invalid shard assembly accepted")
			}
			if tc.errWant != "" && !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
	if _, err := NewShardSet(shards); err != nil {
		t.Fatalf("valid assembly rejected: %v", err)
	}
}

// TestShardSaveLoadRoundTrip: each shard persists and reloads on its own
// (the shard format carries base/total), and the reloaded set still
// matches the unsharded net.
func TestShardSaveLoadRoundTrip(t *testing.T) {
	n := buildRandomNet(t, 21)
	f := n.Freeze()
	shards := n.FreezeShards(3)
	reloaded := make([]*FrozenNet, len(shards))
	for i, sh := range shards {
		var buf bytes.Buffer
		sum, err := sh.SaveSum(&buf)
		if err != nil {
			t.Fatalf("shard %d save: %v", i, err)
		}
		r, err := LoadFrozen(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shard %d load: %v", i, err)
		}
		if r.Checksum() != sum {
			t.Fatalf("shard %d: SaveSum returned %08x, loader recorded %08x", i, sum, r.Checksum())
		}
		if r.Base() != sh.Base() || r.NumNodes() != sh.NumNodes() || r.TotalNodes() != sh.TotalNodes() {
			t.Fatalf("shard %d: geometry changed across round trip", i)
		}
		reloaded[i] = r
	}
	s, err := NewShardSet(reloaded)
	if err != nil {
		t.Fatalf("NewShardSet(reloaded): %v", err)
	}
	for id := NodeID(0); int(id) < f.NumNodes(); id++ {
		if !edgesEqual(f.Out(id, -1), s.Out(id, -1)) || !edgesEqual(f.In(id, -1), s.In(id, -1)) {
			t.Fatalf("adjacency of %d differs after round trip", id)
		}
		if !idsEqual(f.Ancestors(id, 0), s.Ancestors(id, 0)) {
			t.Fatalf("Ancestors(%d) differ after round trip", id)
		}
	}
}

// TestShardedReadZeroAllocs is the scatter-gather alloc guard: every hot
// point lookup on an N=4 set must stay allocation-free, like the unsharded
// reads it routes to.
func TestShardedReadZeroAllocs(t *testing.T) {
	n := buildRandomNet(t, 5)
	s := newShardSet(t, n, 4)
	var ec, item NodeID = InvalidNode, InvalidNode
	if ids := s.NodesOfKind(KindEConcept); len(ids) > 0 {
		ec = ids[len(ids)/2]
	}
	if ids := s.NodesOfKind(KindItem); len(ids) > 0 {
		item = ids[len(ids)/2]
	}
	name := []byte("concept0")
	zeroAllocs(t, "ShardSet.Node", func() { s.Node(item) })
	zeroAllocs(t, "ShardSet.Out", func() { s.Out(ec, EdgeInterpretedBy) })
	zeroAllocs(t, "ShardSet.In", func() { s.In(ec, EdgeItemEConcept) })
	zeroAllocs(t, "ShardSet.ItemsForEConcept", func() { s.ItemsForEConcept(ec, 10) })
	zeroAllocs(t, "ShardSet.EConceptsForItem", func() { s.EConceptsForItem(item, 10) })
	zeroAllocs(t, "ShardSet.FirstByNameKindBytes", func() { s.FirstByNameKindBytes(name, KindEConcept) })
	zeroAllocs(t, "ShardSet.NodesOfKind", func() { s.NodesOfKind(KindItem) })
	zeroAllocs(t, "ShardSet.IsAncestor", func() { s.IsAncestor(item, ec) })
}

// TestShardSetConcurrentReads hammers the scatter-gather paths from many
// goroutines; run with -race (the shared visit pool and the per-shard pools
// are the parts that could regress).
func TestShardSetConcurrentReads(t *testing.T) {
	n := buildRandomNet(t, 99)
	s := newShardSet(t, n, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				id := NodeID((g*31 + i) % s.NumNodes())
				s.Out(id, EdgeIsA)
				s.In(id, -1)
				s.Ancestors(id, 0)
				s.Descendants(id, 2)
				s.IsAncestor(id, NodeID(i%s.NumNodes()))
				s.ItemsForEConcept(id, 5)
				s.EConceptsForItem(id, 5)
				s.NodesOfKind(KindItem)
				nd, _ := s.Node(id)
				s.FirstByNameKind(nd.Name, nd.Kind)
			}
		}(g)
	}
	wg.Wait()
}

// refAdjacencyReads runs the isA/instanceOf BFS of Ancestors (up) or
// Descendants on the live net and returns the nodes whose adjacency lists
// it reads, in order, stopping after the read that discovers target.
func refAdjacencyReads(n *Net, up bool, start NodeID, maxDepth int, target NodeID) []NodeID {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if !n.valid(start) {
		return nil
	}
	d := dirIn
	if up {
		d = dirOut
	}
	type entry struct {
		id    NodeID
		depth int
	}
	seen := map[NodeID]bool{start: true}
	queue := []entry{{start, 0}}
	var read []NodeID
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if maxDepth > 0 && cur.depth >= maxDepth {
			continue
		}
		read = append(read, cur.id)
		hes := n.adjacencyLocked(cur.id, d)
		for _, kind := range [2]EdgeKind{EdgeIsA, EdgeInstanceOf} {
			for _, he := range hes {
				if he.Kind != kind || seen[he.Peer] {
					continue
				}
				if he.Peer == target {
					return read
				}
				seen[he.Peer] = true
				queue = append(queue, entry{he.Peer, cur.depth + 1})
			}
		}
	}
	return read
}

// TestTraversalProbesEachAdjacencyReadOnce: a traversal crosses into a
// shard exactly when it reads one of that shard's adjacency lists. Range
// checks on the start and target nodes are not crossings, so a query fault
// armed on one shard fires once per list of that shard the BFS reads.
func TestTraversalProbesEachAdjacencyReadOnce(t *testing.T) {
	n := buildRandomNet(t, 17)
	s := newShardSet(t, n, 3)
	for shard := 0; shard < s.NumShards(); shard++ {
		restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: shard})
		check := func(what string, read []NodeID, query func()) {
			t.Helper()
			want := uint64(0)
			for _, id := range read {
				if int(id)/ShardStride(s.NumNodes(), s.NumShards()) == shard {
					want++
				}
			}
			before := faultfs.Injected()
			query()
			if got := faultfs.Injected() - before; got != want {
				restore()
				t.Fatalf("shard %d: %s probed the shard %d times, want %d (adjacency reads %v)", shard, what, got, want, read)
			}
		}
		for id := NodeID(-1); int(id) <= s.NumNodes(); id++ {
			for _, depth := range []int{0, 1, 2} {
				check(fmt.Sprintf("Ancestors(%d,%d)", id, depth), refAdjacencyReads(n, true, id, depth, InvalidNode),
					func() { s.Ancestors(id, depth) })
				check(fmt.Sprintf("Descendants(%d,%d)", id, depth), refAdjacencyReads(n, false, id, depth, InvalidNode),
					func() { s.Descendants(id, depth) })
			}
			for anc := NodeID(-1); int(anc) <= s.NumNodes(); anc += 2 {
				var read []NodeID
				if n.valid(anc) && id != anc {
					read = refAdjacencyReads(n, true, id, 0, anc)
				}
				check(fmt.Sprintf("IsAncestor(%d,%d)", id, anc), read, func() { s.IsAncestor(id, anc) })
			}
		}
		restore()
	}
}

// The values a FuzzShardSetMatchesReference input picks from: few enough
// that names repeat across kinds and domains and that weights tie, so
// postings order by Peer, with empty and non-ASCII strings among them. The
// relation names are a fixed set, so no input grows the process-wide
// intern table past them.
var (
	fuzzNames   = []string{"", "coat", "outdoor barbecue", "连衣裙", "café", "coat ", "a\x00b"}
	fuzzDomains = []string{"", "Category", "Color", "节日"}
	fuzzRels    = []string{"", "suitable_when", "has_property", "适用于"}
	fuzzWeights = []float64{0, 0.25, 0.5, 1, -1}
)

// fuzzNet decodes fuzz input into a net and a shard count. The first byte
// picks the count (1 to 8, so it may exceed the node count) and the second
// how many AddNode calls follow (up to 39), each reading a kind, a name and
// a domain. Every following group of six bytes, up to 192 of them, is one
// AddEdge call: an edge kind, a layer pair that kind allows, one end in
// each of those layers, a relation and a weight. A repeated node is the one
// AddNode returned before, and a repeated edge updates its weight. The
// bounds keep the check of one input to about a millisecond.
func fuzzNet(t *testing.T, data []byte) (*Net, int) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	count := 1 + next()%8
	n := NewNet()
	for i := next() % 40; i > 0; i-- {
		kind := NodeKind(next() % int(numKinds))
		n.AddNode(kind, fuzzNames[next()%len(fuzzNames)], fuzzDomains[next()%len(fuzzDomains)])
	}
	var byKind [numKinds][]NodeID
	for id := NodeID(0); int(id) < n.NumNodes(); id++ {
		nd, _ := n.Node(id)
		byKind[nd.Kind] = append(byKind[nd.Kind], id)
	}
	for edges := 0; len(data) > 0 && edges < 192; edges++ {
		kind := EdgeKind(next() % int(numEdgeKinds))
		rule := edgeRules[kind][next()%len(edgeRules[kind])]
		from, to := byKind[rule[0]], byKind[rule[1]]
		a, b := next(), next()
		rel, w := fuzzRels[next()%len(fuzzRels)], fuzzWeights[next()%len(fuzzWeights)]
		if len(from) == 0 || len(to) == 0 {
			continue
		}
		if err := n.AddEdge(from[a%len(from)], to[b%len(to)], kind, rel, w); err != nil {
			t.Fatalf("AddEdge: %v", err)
		}
	}
	return n, count
}

// checkMatchesReference compares every ShardSet query with the reference
// method of the same name on n, the net s was frozen from: on every node,
// on IDs, kinds, depths and limits out of range, and on names the net does
// not hold. Where the frozen store fixes an order the reference does not
// keep — edges grouped by kind, item<->e-commerce-concept postings sorted
// by weight — the expected slice is built in that order from the
// reference's own answers.
func checkMatchesReference(t *testing.T, view string, n *Net, s *ShardSet) {
	t.Helper()
	total := n.NumNodes()
	if s.NumNodes() != total || s.NumEdges() != n.NumEdges() {
		t.Fatalf("%s: %d nodes, %d edges; reference %d, %d", view, s.NumNodes(), s.NumEdges(), total, n.NumEdges())
	}
	ids := []NodeID{math.MinInt32, -2, InvalidNode}
	for id := NodeID(0); int(id) <= total+1; id++ {
		ids = append(ids, id)
	}
	ids = append(ids, math.MaxInt32)
	for _, id := range ids {
		want, wok := n.Node(id)
		if got, ok := s.Node(id); ok != wok || got != want {
			t.Fatalf("%s: Node(%d) = %+v, %v; reference %+v, %v", view, id, got, ok, want, wok)
		}
		for _, dir := range []struct {
			name     string
			ref, got func(NodeID, EdgeKind) []HalfEdge
			postings func(NodeID, int) []HalfEdge
		}{
			{"Out", n.Out, s.Out, n.EConceptsForItem},
			{"In", n.In, s.In, n.ItemsForEConcept},
		} {
			var grouped []HalfEdge
			for kind := EdgeKind(0); kind < numEdgeKinds; kind++ {
				want := dir.ref(id, kind)
				if kind == EdgeItemEConcept {
					want = dir.postings(id, 0)
				}
				if got := dir.got(id, kind); !edgesEqual(got, want) {
					t.Fatalf("%s: %s(%d, %v) = %v; reference %v", view, dir.name, id, kind, got, want)
				}
				grouped = append(grouped, want...)
			}
			for _, kind := range []EdgeKind{-2, -1} {
				if got := dir.got(id, kind); !edgesEqual(got, grouped) {
					t.Fatalf("%s: %s(%d, %d) = %v; reference, kind-grouped, %v", view, dir.name, id, kind, got, grouped)
				}
			}
			if got := dir.got(id, numEdgeKinds); len(got) != 0 {
				t.Fatalf("%s: %s(%d) of an invalid kind = %v", view, dir.name, id, got)
			}
		}
		for _, limit := range []int{-1, 0, 1, 2, 5} {
			if got, want := s.ItemsForEConcept(id, limit), n.ItemsForEConcept(id, limit); !edgesEqual(got, want) {
				t.Fatalf("%s: ItemsForEConcept(%d, %d) = %v; reference %v", view, id, limit, got, want)
			}
			if got, want := s.EConceptsForItem(id, limit), n.EConceptsForItem(id, limit); !edgesEqual(got, want) {
				t.Fatalf("%s: EConceptsForItem(%d, %d) = %v; reference %v", view, id, limit, got, want)
			}
		}
		if got, want := s.PrimitivesForEConcept(id), n.PrimitivesForEConcept(id); !edgesEqual(got, want) {
			t.Fatalf("%s: PrimitivesForEConcept(%d) = %v; reference %v", view, id, got, want)
		}
		for _, depth := range []int{-1, 0, 1, 2} {
			if got, want := s.Ancestors(id, depth), n.Ancestors(id, depth); !idsEqual(got, want) {
				t.Fatalf("%s: Ancestors(%d, %d) = %v; reference %v", view, id, depth, got, want)
			}
			if got, want := s.Descendants(id, depth), n.Descendants(id, depth); !idsEqual(got, want) {
				t.Fatalf("%s: Descendants(%d, %d) = %v; reference %v", view, id, depth, got, want)
			}
		}
		// The reference IsAncestor is membership in Ancestors(id, 0): one
		// walk per node serves every candidate ancestor.
		up := n.Ancestors(id, 0)
		for _, anc := range ids {
			if got, want := s.IsAncestor(id, anc), slices.Contains(up, anc); got != want {
				t.Fatalf("%s: IsAncestor(%d, %d) = %v; reference %v", view, id, anc, got, want)
			}
		}
	}
	for kind := NodeKind(-1); kind <= numKinds; kind++ {
		if got, want := s.NodesOfKind(kind), n.NodesOfKind(kind); !idsEqual(got, want) {
			t.Fatalf("%s: NodesOfKind(%v) = %v; reference %v", view, kind, got, want)
		}
	}
	for _, name := range append(fuzzNames, "no such name", "coa") {
		for kind := NodeKind(-1); kind <= numKinds; kind++ {
			want := n.FirstByNameKind(name, kind)
			if got := s.FirstByNameKind(name, kind); got != want {
				t.Fatalf("%s: FirstByNameKind(%q, %v) = %d; reference %d", view, name, kind, got, want)
			}
			if got := s.FirstByNameKindBytes([]byte(name), kind); got != want {
				t.Fatalf("%s: FirstByNameKindBytes(%q, %v) = %d; reference %d", view, name, kind, got, want)
			}
		}
	}
	if got, want := s.ComputeStats(), n.ComputeStats(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ComputeStats = %+v; reference %+v", view, got, want)
	}
}

// FuzzShardSetMatchesReference: freezing, partitioning and the shard codec
// together answer what the net holds. Each input is decoded into a net
// (fuzzNet) that the k-way partition freezes; the frozen shards, and the
// same shards saved and loaded back, each assemble into a ShardSet whose
// every query must match the reference (checkMatchesReference).
func FuzzShardSetMatchesReference(f *testing.F) {
	f.Add([]byte{})                                // an empty net
	f.Add([]byte{7, 3, 0, 1, 1, 1, 1, 1, 2, 2, 2}) // 8 shards over 3 nodes
	for seed := 1; seed <= 3; seed++ {
		// 12, 24 and 36 AddNode calls, then the rest of 384 bytes of
		// AddEdge calls: the fewer the nodes, the more edges repeat.
		data := make([]byte, 384)
		rand.New(rand.NewSource(int64(seed))).Read(data)
		data[1] = byte(12 * seed)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		n, count := fuzzNet(t, data)
		shards := n.FreezeShards(count)
		loaded := make([]*FrozenNet, count)
		for i, sh := range shards {
			g, err := LoadFrozen(bytes.NewReader(saveFrozen(t, sh)))
			if err != nil {
				t.Fatalf("shard %d of %d does not load back: %v", i, count, err)
			}
			loaded[i] = g
		}
		for view, set := range map[string][]*FrozenNet{"frozen": shards, "loaded": loaded} {
			s, err := NewShardSet(set)
			if err != nil {
				t.Fatalf("%s %d shards: %v", view, count, err)
			}
			checkMatchesReference(t, fmt.Sprintf("%s %d shards", view, count), n, s)
		}
	})
}
