package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"alicoco/internal/raceflag"
)

// --- zero-allocation guards --------------------------------------------
//
// These run in CI (see the alloc-guards step in ci.yml) so the property the
// serving path is built on — frozen point reads, name lookups and the
// pooled IsAncestor traversal allocate nothing — cannot silently regress.

func zeroAllocs(t *testing.T, what string, fn func()) {
	t.Helper()
	if raceflag.Enabled {
		// The race detector makes sync.Pool drop items at random to widen
		// its race coverage, so pooled paths legitimately allocate under
		// -race. CI runs these guards in a dedicated non-race step.
		t.Skip("allocation guards are not meaningful under -race")
	}
	if allocs := testing.AllocsPerRun(200, fn); allocs != 0 {
		t.Fatalf("%s allocates %.1f times per op, want 0", what, allocs)
	}
}

func TestFrozenReadsZeroAllocs(t *testing.T) {
	n := buildRandomNet(t, 5)
	f := n.Freeze()
	var ec, item NodeID = InvalidNode, InvalidNode
	if ids := f.NodesOfKind(KindEConcept); len(ids) > 0 {
		ec = ids[0]
	}
	if ids := f.NodesOfKind(KindItem); len(ids) > 0 {
		item = ids[0]
	}
	name := []byte("concept0")
	zeroAllocs(t, "Freeze().Node", func() { f.Node(item) })
	zeroAllocs(t, "Freeze().Out", func() { f.Out(ec, EdgeInterpretedBy) })
	zeroAllocs(t, "Freeze().In", func() { f.In(ec, EdgeItemEConcept) })
	zeroAllocs(t, "Freeze().ItemsForEConcept", func() { f.ItemsForEConcept(ec, 10) })
	zeroAllocs(t, "Freeze().EConceptsForItem", func() { f.EConceptsForItem(item, 10) })
	zeroAllocs(t, "Freeze().FirstByNameKindBytes", func() { f.FirstByNameKindBytes(name, KindEConcept) })
	zeroAllocs(t, "Freeze().NodesOfKind", func() { f.NodesOfKind(KindItem) })
	zeroAllocs(t, "Freeze().IsAncestor", func() { f.IsAncestor(item, ec) })
}

// addNetNodes adds count primitives to n, each named by a freshly
// allocated string, and edgesPer isA edges from each to the nodes after it
// (mod count). It returns the node IDs.
func addNetNodes(t *testing.T, n *Net, count, edgesPer int) []NodeID {
	t.Helper()
	ids := make([]NodeID, count)
	for i := range ids {
		ids[i] = n.AddNode(KindPrimitive, fmt.Sprintf("primitive %d", i), "Color")
	}
	for i := range ids {
		for j := 1; j <= edgesPer; j++ {
			if err := n.AddEdge(ids[i], ids[(i+j)%count], EdgeIsA, "", 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return ids
}

// TestNetHeapObjectsAllocIndependentOfSize: a live net is a handful of heap
// objects whatever its size, and its per-node and per-edge records hold no
// pointers. Twenty times the nodes and edges, each name a string of its
// own, leave at most a few more objects on the heap once the collector has
// run, so the net keeps no string, slice or map entry per node, per name or
// per edge.
func TestNetHeapObjectsAllocIndependentOfSize(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	for _, typ := range []reflect.Type{reflect.TypeOf(nodeLinks{}), reflect.TypeOf(edgeRec{})} {
		if path := pointerField(typ, typ.Name()); path != "" {
			t.Fatalf("%s holds a pointer at %s", typ.Name(), path)
		}
	}
	if size := unsafe.Sizeof(edgeRec{}); size > 20 {
		t.Fatalf("edgeRec is %d bytes, want at most 20", size)
	}
	kept := func(nodes int) (int64, *Net) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		n := NewNet()
		addNetNodes(t, n, nodes, 5)
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapObjects) - int64(before.HeapObjects), n
	}
	small, n1 := kept(1000)
	large, n2 := kept(20000)
	if n1.NumEdges() != 5000 || n2.NumEdges() != 100000 {
		t.Fatalf("nets hold %d and %d edges, want 5000 and 100000", n1.NumEdges(), n2.NumEdges())
	}
	if d := large - small; d > 16 || d < -16 {
		t.Fatalf("a net of 1,000 nodes keeps %d heap objects and one of 20,000 keeps %d: the net allocates per node, name or edge", small, large)
	}
}

// TestNetAddAfterGrowZeroAllocs: once Grow has reserved room for a build's
// nodes, adding them and about five edges each allocates nothing.
func TestNetAddAfterGrowZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	const count = 1000
	names := make([]string, count)
	for i := range names {
		names[i] = fmt.Sprintf("primitive %d", i)
	}
	n := NewNet()
	n.Grow(count)
	i := 0
	// AllocsPerRun makes one call more than it counts.
	if avg := testing.AllocsPerRun(count-1, func() {
		n.AddNode(KindPrimitive, names[i], "Color")
		i++
	}); avg != 0 {
		t.Fatalf("AddNode after Grow allocates %.2f times per call", avg)
	}
	i = 0
	if avg := testing.AllocsPerRun(5*count-1, func() {
		from := NodeID(i / 5)
		if err := n.AddEdge(from, (from+NodeID(i%5)+1)%count, EdgeIsA, "", 1); err != nil {
			t.Fatal(err)
		}
		i++
	}); avg != 0 {
		t.Fatalf("AddEdge after Grow allocates %.2f times per call", avg)
	}
	if n.NumNodes() != count || n.NumEdges() != 5*count {
		t.Fatalf("%d nodes and %d edges, want %d and %d", n.NumNodes(), n.NumEdges(), count, 5*count)
	}
}
