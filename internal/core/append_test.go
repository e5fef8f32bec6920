package core

import (
	"fmt"
	"math/rand"
	"testing"

	"alicoco/internal/raceflag"
)

// readers returns both Reader implementations over the same random net, so
// append-vs-allocate equivalence is proven for the locked store and the
// frozen snapshot alike.
func readers(t *testing.T, seed int64) map[string]Reader {
	n := buildRandomNet(t, seed)
	return map[string]Reader{"locked": n, "frozen": n.Freeze()}
}

// TestAppendVariantsMatchAllocating proves every Append* method returns
// exactly what its allocate-and-return counterpart does, both onto a nil
// dst and appended after an existing prefix (which must survive untouched).
// Run under -race in CI, with reused buffers shared across iterations the
// way a serving loop would hold them.
func TestAppendVariantsMatchAllocating(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	prefixIDs := []NodeID{-7, -8, -9}
	prefixEdges := []HalfEdge{{Peer: -7, Kind: EdgeIsA}}
	var idBuf []NodeID
	var edgeBuf []HalfEdge
	for seed := int64(1); seed <= 10; seed++ {
		for store, r := range readers(t, seed) {
			nn := r.NumNodes()
			checkIDs := func(what string, id NodeID, got, want []NodeID) {
				t.Helper()
				if len(got) != len(prefixIDs)+len(want) {
					t.Fatalf("seed %d %s: %s(%d) appended %d ids, want %d",
						seed, store, what, id, len(got)-len(prefixIDs), len(want))
				}
				for i, p := range prefixIDs {
					if got[i] != p {
						t.Fatalf("seed %d %s: %s(%d) clobbered prefix", seed, store, what, id)
					}
				}
				for i, w := range want {
					if got[len(prefixIDs)+i] != w {
						t.Fatalf("seed %d %s: %s(%d) element %d = %d, want %d",
							seed, store, what, id, i, got[len(prefixIDs)+i], w)
					}
				}
			}
			checkEdges := func(what string, id NodeID, got, want []HalfEdge) {
				t.Helper()
				if len(got) != len(prefixEdges)+len(want) {
					t.Fatalf("seed %d %s: %s(%d) appended %d edges, want %d",
						seed, store, what, id, len(got)-len(prefixEdges), len(want))
				}
				for i, p := range prefixEdges {
					if got[i] != p {
						t.Fatalf("seed %d %s: %s(%d) clobbered prefix", seed, store, what, id)
					}
				}
				for i := range want {
					// Posting ties may order arbitrarily between calls on the
					// locked store is not true — sortHalfEdgesByWeight is
					// total (weight, then peer) — so exact equality holds.
					if got[len(prefixEdges)+i] != want[i] {
						t.Fatalf("seed %d %s: %s(%d) element %d differs", seed, store, what, id, i)
					}
				}
			}
			for trial := 0; trial < 40; trial++ {
				id := NodeID(rng.Intn(nn+4) - 2) // includes invalid ids
				depth := rng.Intn(4)             // 0 = unlimited
				limit := rng.Intn(5) - 1         // includes <= 0
				idBuf = append(idBuf[:0], prefixIDs...)
				checkIDs("AppendAncestors", id, r.AppendAncestors(idBuf, id, depth), r.Ancestors(id, depth))
				idBuf = append(idBuf[:0], prefixIDs...)
				checkIDs("AppendDescendants", id, r.AppendDescendants(idBuf, id, depth), r.Descendants(id, depth))
				edgeBuf = append(edgeBuf[:0], prefixEdges...)
				checkEdges("AppendItemsForEConcept", id, r.AppendItemsForEConcept(edgeBuf, id, limit), r.ItemsForEConcept(id, limit))
				edgeBuf = append(edgeBuf[:0], prefixEdges...)
				checkEdges("AppendEConceptsForItem", id, r.AppendEConceptsForItem(edgeBuf, id, limit), r.EConceptsForItem(id, limit))
				if int(id) >= 0 && int(id) < nn {
					nd, _ := r.Node(id)
					idBuf = append(idBuf[:0], prefixIDs...)
					checkIDs("AppendFindByNameKind", id,
						r.AppendFindByNameKind(idBuf, nd.Name, nd.Kind), r.FindByNameKind(nd.Name, nd.Kind))
					if got, want := r.FirstByNameKindBytes([]byte(nd.Name), nd.Kind), r.FirstByNameKind(nd.Name, nd.Kind); got != want {
						t.Fatalf("seed %d %s: FirstByNameKindBytes(%q) = %d, want %d", seed, store, nd.Name, got, want)
					}
				}
			}
			if r.FirstByNameKindBytes([]byte("no such node"), KindItem) != InvalidNode {
				t.Fatalf("seed %d %s: FirstByNameKindBytes on unknown name", seed, store)
			}
		}
	}
}

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
// serving path is built on — frozen reads and buffer-reusing traversals
// allocate nothing — cannot silently regress.

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
	zeroAllocs(t, "FrozenNet.Node", func() { f.Node(item) })
	zeroAllocs(t, "FrozenNet.Out", func() { f.Out(ec, EdgeInterpretedBy) })
	zeroAllocs(t, "FrozenNet.In", func() { f.In(ec, EdgeItemEConcept) })
	zeroAllocs(t, "FrozenNet.ItemsForEConcept", func() { f.ItemsForEConcept(ec, 10) })
	zeroAllocs(t, "FrozenNet.EConceptsForItem", func() { f.EConceptsForItem(item, 10) })
	zeroAllocs(t, "FrozenNet.FindByName", func() { f.FindByName("concept0") })
	zeroAllocs(t, "FrozenNet.FirstByNameKindBytes", func() { f.FirstByNameKindBytes(name, KindEConcept) })
	zeroAllocs(t, "FrozenNet.NodesOfKind", func() { f.NodesOfKind(KindItem) })
	zeroAllocs(t, "FrozenNet.IsAncestor", func() { f.IsAncestor(item, ec) })

	// Append traversals into a recycled buffer: BFS state comes from the
	// pool, results land in dst, nothing escapes.
	dst := make([]NodeID, 0, f.NumNodes())
	zeroAllocs(t, "FrozenNet.AppendAncestors", func() { dst = f.AppendAncestors(dst[:0], item, 0) })
	zeroAllocs(t, "FrozenNet.AppendDescendants", func() { dst = f.AppendDescendants(dst[:0], ec, 0) })
	edges := make([]HalfEdge, 0, f.NumNodes())
	zeroAllocs(t, "FrozenNet.AppendItemsForEConcept", func() { edges = f.AppendItemsForEConcept(edges[:0], ec, 0) })
}

// TestNetFindByNameZeroAllocs covers the locked store's share of the hot
// path: the shared read-only view removed its per-call copy.
func TestNetFindByNameZeroAllocs(t *testing.T) {
	n := buildRandomNet(t, 5)
	zeroAllocs(t, "Net.FindByName", func() { n.FindByName("prim0") })
}
