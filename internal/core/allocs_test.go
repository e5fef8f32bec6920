package core

import (
	"fmt"
	"testing"

	"alicoco/internal/raceflag"
)

// TestNetFindByNameSharedViewStable pins the contract that lets the locked
// store hand out its index slice without copying: ids already visible
// through a returned view never change, even as AddNode keeps growing the
// same name's entry.
func TestNetFindByNameSharedViewStable(t *testing.T) {
	n := NewNet()
	first := n.AddNode(KindPrimitive, "shared", "D0")
	view := n.FindByName("shared")
	if len(view) != 1 || view[0] != first {
		t.Fatalf("initial view %v", view)
	}
	for i := 0; i < 64; i++ {
		n.AddNode(KindPrimitive, "shared", fmt.Sprintf("D%d", i+1))
		if view[0] != first {
			t.Fatalf("view mutated after %d appends", i+1)
		}
	}
	if got := len(n.FindByName("shared")); got != 65 {
		t.Fatalf("index has %d entries, want 65", got)
	}
}

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

// TestNetFindByNameZeroAllocs covers the locked store's share of the hot
// path: the shared read-only view removed its per-call copy.
func TestNetFindByNameZeroAllocs(t *testing.T) {
	n := buildRandomNet(t, 5)
	zeroAllocs(t, "Net.FindByName", func() { n.FindByName("prim0") })
}
