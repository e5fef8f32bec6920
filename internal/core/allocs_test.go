package core

import (
	"testing"

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
