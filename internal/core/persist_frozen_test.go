package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"
)

// saveFrozen freezes-and-saves a net, failing the test on error.
func saveFrozen(t testing.TB, f *FrozenNet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("frozen save: %v", err)
	}
	return buf.Bytes()
}

// TestFrozenSaveLoadRoundTripRandomized proves save -> load is the identity
// on the full Reader surface: every method of the loaded snapshot answers
// exactly like the original frozen net, across randomized nets that
// exercise all edge kinds and shared surface forms.
func TestFrozenSaveLoadRoundTripRandomized(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		n := buildRandomNet(t, seed)
		f := n.Freeze()
		g, err := LoadFrozen(bytes.NewReader(saveFrozen(t, f)))
		if err != nil {
			t.Fatalf("seed %d: load frozen: %v", seed, err)
		}
		if g.NumNodes() != f.NumNodes() || g.NumEdges() != f.NumEdges() {
			t.Fatalf("seed %d: counts differ: %d/%d nodes, %d/%d edges",
				seed, g.NumNodes(), f.NumNodes(), g.NumEdges(), f.NumEdges())
		}
		for id := NodeID(0); int(id) < f.NumNodes(); id++ {
			fn, _ := f.Node(id)
			gn, _ := g.Node(id)
			if fn != gn {
				t.Fatalf("seed %d: node %d differs: %+v vs %+v", seed, id, fn, gn)
			}
			for kind := EdgeKind(-1); kind < numEdgeKinds; kind++ {
				if !edgesEqual(f.Out(id, kind), g.Out(id, kind)) {
					t.Fatalf("seed %d: Out(%d,%v) differs", seed, id, kind)
				}
				if !edgesEqual(f.In(id, kind), g.In(id, kind)) {
					t.Fatalf("seed %d: In(%d,%v) differs", seed, id, kind)
				}
			}
			for _, depth := range []int{0, 1, 2} {
				if !idsEqual(f.Ancestors(id, depth), g.Ancestors(id, depth)) {
					t.Fatalf("seed %d: Ancestors(%d,%d) differ", seed, id, depth)
				}
				if !idsEqual(f.Descendants(id, depth), g.Descendants(id, depth)) {
					t.Fatalf("seed %d: Descendants(%d,%d) differ", seed, id, depth)
				}
			}
			for anc := NodeID(0); int(anc) < f.NumNodes(); anc += 3 {
				if f.IsAncestor(id, anc) != g.IsAncestor(id, anc) {
					t.Fatalf("seed %d: IsAncestor(%d,%d) differs", seed, id, anc)
				}
			}
			nd, _ := f.Node(id)
			if !idsEqual(f.FindByName(nd.Name), g.FindByName(nd.Name)) {
				t.Fatalf("seed %d: FindByName(%q) differs", seed, nd.Name)
			}
			if !idsEqual(f.FindByNameKind(nd.Name, nd.Kind), g.FindByNameKind(nd.Name, nd.Kind)) {
				t.Fatalf("seed %d: FindByNameKind(%q) differs", seed, nd.Name)
			}
			if f.FirstByNameKind(nd.Name, nd.Kind) != g.FirstByNameKind(nd.Name, nd.Kind) {
				t.Fatalf("seed %d: FirstByNameKind(%q) differs", seed, nd.Name)
			}
		}
		for kind := NodeKind(0); kind < numKinds; kind++ {
			if !idsEqual(f.NodesOfKind(kind), g.NodesOfKind(kind)) {
				t.Fatalf("seed %d: NodesOfKind(%v) differ", seed, kind)
			}
		}
		for _, ec := range f.NodesOfKind(KindEConcept) {
			for _, limit := range []int{0, 1, 3} {
				if !edgesEqual(f.ItemsForEConcept(ec, limit), g.ItemsForEConcept(ec, limit)) {
					t.Fatalf("seed %d: ItemsForEConcept(%d,%d) differs", seed, ec, limit)
				}
			}
			if !edgesEqual(f.PrimitivesForEConcept(ec), g.PrimitivesForEConcept(ec)) {
				t.Fatalf("seed %d: PrimitivesForEConcept(%d) differs", seed, ec)
			}
		}
		for _, it := range f.NodesOfKind(KindItem) {
			if !edgesEqual(f.EConceptsForItem(it, 5), g.EConceptsForItem(it, 5)) {
				t.Fatalf("seed %d: EConceptsForItem(%d) differs", seed, it)
			}
		}
		ls, gs := f.ComputeStats(), g.ComputeStats()
		if ls.Nodes != gs.Nodes || ls.Edges != gs.Edges || ls.IsAPrimitive != gs.IsAPrimitive {
			t.Fatalf("seed %d: stats differ", seed)
		}
	}
}

// TestFrozenSaveDeterministic: identical nets serialize to identical bytes
// (the name index is emitted in sorted order), so snapshot files diff
// cleanly and checksums are reproducible.
func TestFrozenSaveDeterministic(t *testing.T) {
	n := buildRandomNet(t, 3)
	f := n.Freeze()
	a, b := saveFrozen(t, f), saveFrozen(t, f)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same frozen net differ")
	}
}

// TestLoadFrozenPostingsStillSorted: the freeze-time weight sort survives
// the round trip without LoadFrozen re-sorting anything.
func TestLoadFrozenPostingsStillSorted(t *testing.T) {
	n := buildRandomNet(t, 42)
	g, err := LoadFrozen(bytes.NewReader(saveFrozen(t, n.Freeze())))
	if err != nil {
		t.Fatal(err)
	}
	for _, ec := range g.NodesOfKind(KindEConcept) {
		items := g.ItemsForEConcept(ec, 0)
		for i := 1; i < len(items); i++ {
			if items[i].Weight > items[i-1].Weight {
				t.Fatalf("postings of %d not weight-sorted after load", ec)
			}
		}
	}
}

// TestLoadFrozenTruncated: every proper prefix of a valid snapshot must
// error — never panic, never return a net.
func TestLoadFrozenTruncated(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze())
	for cut := 0; cut < len(full); cut++ {
		if _, err := LoadFrozen(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d bytes loaded successfully", cut, len(full))
		}
	}
}

// TestLoadTruncatedGob: a gob dump of the mutable net in the retired
// wire form (what `alicoco -out` used to write), whole or truncated, is
// rejected with an error instead of being decoded or panicking.
func TestLoadTruncatedGob(t *testing.T) {
	n, _ := buildToyNet(t)
	legacy := struct {
		Version int
		Nodes   []Node
		Out     [][]HalfEdge
		Edges   int
	}{1, n.nodes, n.outAdj, n.edges}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&legacy); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 1, len(full)} {
		if _, err := LoadFrozen(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("gob dump cut at %d/%d bytes loaded successfully", cut, len(full))
		}
	}
}

func TestLoadFrozenBadMagicAndVersion(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze())

	bad := append([]byte(nil), full...)
	copy(bad, "NOPE")
	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}

	bad = append([]byte(nil), full...)
	bad[4], bad[5] = 0xFF, 0xFF
	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("bad version: got %v", err)
	}
}

// TestLoadFrozenChecksum: a flipped payload byte that keeps the structure
// valid (a weight byte) is caught by the trailing CRC.
func TestLoadFrozenChecksum(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze())
	bad := append([]byte(nil), full...)
	// The last 4 bytes are the CRC; the byte just before them is the high
	// byte of the final in-CSR edge record's weight.
	bad[len(bad)-5] ^= 0x40
	_, err := LoadFrozen(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("checksum corruption: got %v", err)
	}
}

// corrupt cases built by mutating a freshly frozen net before saving: the
// file is internally consistent (valid CRC) but structurally wrong, so the
// structural validation itself must catch it.
func TestLoadFrozenStructuralCorruption(t *testing.T) {
	freshFrozen := func() *FrozenNet {
		n, _ := buildToyNet(t)
		return n.Freeze()
	}
	cases := []struct {
		name    string
		mutate  func(f *FrozenNet)
		errWant string
	}{
		{"edge kind out of range", func(f *FrozenNet) {
			f.out.edges[0].Kind = EdgeKind(99)
		}, "kind"},
		{"edge kind wrong CSR group", func(f *FrozenNet) {
			// Valid enum value, but disagrees with the group the edge sits in.
			f.out.edges[0].Kind = (f.out.edges[0].Kind + 1) % numEdgeKinds
		}, "disagrees with CSR group"},
		{"peer out of range", func(f *FrozenNet) {
			f.out.edges[0].Peer = NodeID(f.NumNodes() + 7)
		}, "peer"},
		{"name index id mismatch", func(f *FrozenNet) {
			for name, ids := range f.byName {
				other := (int(ids[0]) + 1) % f.NumNodes()
				if f.nodes[other].Name != name {
					f.byName[name] = []NodeID{NodeID(other)}
					return
				}
			}
		}, "name index"},
		{"kind index id mismatch", func(f *FrozenNet) {
			f.byKind[KindClass][0] = f.byKind[KindItem][0]
		}, "kind"},
		{"shard range exceeds declared total", func(f *FrozenNet) {
			f.total--
		}, "declared total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := freshFrozen()
			tc.mutate(f)
			_, err := LoadFrozen(bytes.NewReader(saveFrozen(t, f)))
			if err == nil {
				t.Fatal("corrupt snapshot loaded successfully")
			}
			if !strings.Contains(err.Error(), tc.errWant) {
				t.Fatalf("error %q does not mention %q", err, tc.errWant)
			}
		})
	}
}

// TestLoadFrozenHugeClaimedCounts: a tiny file whose header claims huge
// element counts must fail on the missing data without the claimed counts
// driving allocation (slices only grow as genuine bytes arrive).
func TestLoadFrozenHugeClaimedCounts(t *testing.T) {
	huge := []byte{0, 0, 0, 8} // 1<<27, exactly at the cap
	zero := []byte{0, 0, 0, 0}
	buf := append([]byte("ACFZ"), 2, 0) // magic + version
	buf = append(buf, 4, 6)             // numKinds, numEdgeKinds
	buf = append(buf, huge...)          // nodeCount
	buf = append(buf, zero...)          // base
	buf = append(buf, huge...)          // totalNodes
	buf = append(buf, huge...)          // outEdgeCount
	buf = append(buf, huge...)          // inEdgeCount
	buf = append(buf, huge...)          // relCount, then EOF
	if _, err := LoadFrozen(bytes.NewReader(buf)); err == nil {
		t.Fatal("truncated file with huge claimed counts loaded successfully")
	}
	// Above the cap the count itself is rejected.
	over := []byte{1, 0, 0, 8} // 1<<27 + 1
	buf = append([]byte("ACFZ"), 2, 0)
	buf = append(buf, 4, 6)
	buf = append(buf, over...)
	if _, err := LoadFrozen(bytes.NewReader(buf)); err == nil || !strings.Contains(err.Error(), "exceeds limit") {
		t.Fatalf("over-cap count: got %v", err)
	}
}

// TestFrozenSaveRejectsOversizedStrings: Save enforces the loader's string
// limit up front, so it never emits a snapshot LoadFrozen would reject.
func TestFrozenSaveRejectsOversizedStrings(t *testing.T) {
	n := NewNet()
	n.AddNode(KindPrimitive, strings.Repeat("x", maxFrozenStr+1), "d")
	if err := n.Freeze().Save(io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized node name: got %v", err)
	}
}

// --- targeted corruption: each file is internally consistent (valid CRC)
// but one field is wrong, so the structural validation must catch it.

// savedWith freezes the toy net, applies mutate, and saves the result.
func savedWith(t *testing.T, mutate func(f *FrozenNet)) []byte {
	t.Helper()
	n, _ := buildToyNet(t)
	f := n.Freeze()
	mutate(f)
	return saveFrozen(t, f)
}

func TestLoadRejectsCorruptEdgeKind(t *testing.T) {
	for _, kind := range []EdgeKind{99, -2} {
		data := savedWith(t, func(f *FrozenNet) { f.out.edges[0].Kind = kind })
		if _, err := LoadFrozen(bytes.NewReader(data)); err == nil {
			t.Fatalf("edge kind %d must be rejected", kind)
		}
	}
}

func TestLoadRejectsNodeKindOutOfRange(t *testing.T) {
	data := savedWith(t, func(f *FrozenNet) { f.nodes[0].Kind = NodeKind(42) })
	if _, err := LoadFrozen(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("node kind 42: got %v", err)
	}
}

func TestLoadRejectsAdjacencyShapeMismatch(t *testing.T) {
	data := savedWith(t, func(f *FrozenNet) { f.out.off = f.out.off[:len(f.out.off)-1] })
	if _, err := LoadFrozen(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "offset array length") {
		t.Fatalf("offsets shorter than the node list: got %v", err)
	}
}

// TestLoadRecomputesEdgeCounter: the loaded edge count comes from the CSR
// itself, and a header count that disagrees with it is rejected.
func TestLoadRecomputesEdgeCounter(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze())
	g, err := LoadFrozen(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != n.NumEdges() || g.ComputeStats().Edges != n.NumEdges() {
		t.Fatalf("loaded edge count %d, want %d", g.NumEdges(), n.NumEdges())
	}
	// The out-edge count sits after magic, version, the two kind counts,
	// nodeCount, base and totalNodes.
	const outEdgeCountAt = 4 + 2 + 1 + 1 + 4 + 4 + 4
	bad := append([]byte(nil), full...)
	putU32(bad[outEdgeCountAt:], getU32(bad[outEdgeCountAt:])+7)
	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "disagrees with header") {
		t.Fatalf("stale header edge count: got %v", err)
	}
}

// FuzzLoadFrozen: LoadFrozen must never panic, and whatever it accepts must
// round-trip — Save of the loaded net loads back with the checksum Save
// reported, and saving that again reproduces the same bytes.
func FuzzLoadFrozen(f *testing.F) {
	n, _ := buildToyNet(f)
	full := saveFrozen(f, n.Freeze())
	f.Add(full)
	f.Add(full[:len(full)/2])
	for _, sh := range buildRandomNet(f, 5).FreezeShards(3) {
		f.Add(saveFrozen(f, sh))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := LoadFrozen(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		sum, err := g.SaveSum(&buf)
		if err != nil {
			t.Fatalf("accepted input does not save: %v", err)
		}
		h, err := LoadFrozen(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("saved form does not load: %v", err)
		}
		if h.Checksum() != sum {
			t.Fatalf("round trip checksum %08x, Save reported %08x", h.Checksum(), sum)
		}
		again := saveFrozen(t, h)
		if !bytes.Equal(again, buf.Bytes()) {
			t.Fatal("second save differs from the first")
		}
	})
}
