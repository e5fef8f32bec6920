package core

import (
	"bytes"
	"encoding/gob"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"alicoco/internal/fzio"
)

// saveFrozen saves a shard, failing the test on error.
func saveFrozen(t testing.TB, f *FrozenNet) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatalf("frozen save: %v", err)
	}
	return buf.Bytes()
}

// loadFrozenSet loads the saved shard of a one-shard partition and serves
// it as a ShardSet, failing the test on error.
func loadFrozenSet(t testing.TB, data []byte) *ShardSet {
	t.Helper()
	g, err := LoadFrozen(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("load frozen: %v", err)
	}
	s, err := NewShardSet([]*FrozenNet{g})
	if err != nil {
		t.Fatalf("NewShardSet: %v", err)
	}
	return s
}

// TestFrozenSaveLoadRoundTripRandomized proves save -> load is the identity
// on the full query surface: every method of the loaded snapshot answers
// exactly like the original frozen net, across randomized nets that
// exercise all edge kinds and shared surface forms.
func TestFrozenSaveLoadRoundTripRandomized(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		n := buildRandomNet(t, seed)
		f := n.Freeze()
		g := loadFrozenSet(t, saveFrozen(t, f.Shard(0)))
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
			for kind := NodeKind(0); kind < numKinds; kind++ {
				if f.FirstByNameKind(nd.Name, kind) != g.FirstByNameKind(nd.Name, kind) {
					t.Fatalf("seed %d: FirstByNameKind(%q, %v) differs", seed, nd.Name, kind)
				}
				if f.FirstByNameKindBytes([]byte(nd.Name), kind) != g.FirstByNameKindBytes([]byte(nd.Name), kind) {
					t.Fatalf("seed %d: FirstByNameKindBytes(%q, %v) differs", seed, nd.Name, kind)
				}
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

// TestFrozenSaveDeterministic: identical nets serialize to identical bytes,
// so snapshot files diff cleanly and checksums are reproducible.
func TestFrozenSaveDeterministic(t *testing.T) {
	n := buildRandomNet(t, 3)
	f := n.Freeze().Shard(0)
	a, b := saveFrozen(t, f), saveFrozen(t, f)
	if !bytes.Equal(a, b) {
		t.Fatal("two saves of the same frozen net differ")
	}
}

// TestFrozenFileSize: fileSize, which sizes SaveSum's write buffer, is the
// size of the file Save writes, for every shard of a partition and for
// nets with empty names and no edges.
func TestFrozenFileSize(t *testing.T) {
	empty := NewNet()
	empty.AddNode(KindItem, "", "")
	shards := append(buildRandomNet(t, 5).FreezeShards(3), empty.FreezeShards(1)...)
	for i, f := range shards {
		table, err := buildFileLabels(&f.out, &f.in)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := f.fileSize(table), len(saveFrozen(t, f)); got != want {
			t.Fatalf("shard %d: fileSize says %d bytes, Save writes %d", i, got, want)
		}
	}
}

// TestLoadFrozenPostingsStillSorted: the freeze-time weight sort survives
// the round trip without LoadFrozen re-sorting anything.
func TestLoadFrozenPostingsStillSorted(t *testing.T) {
	n := buildRandomNet(t, 42)
	g := loadFrozenSet(t, saveFrozen(t, n.Freeze().Shard(0)))
	for _, ec := range g.NodesOfKind(KindEConcept) {
		items := g.ItemsForEConcept(ec, 0)
		for i := 1; i < len(items); i++ {
			if items[i].Weight() > items[i-1].Weight() {
				t.Fatalf("postings of %d not weight-sorted after load", ec)
			}
		}
	}
}

// TestLoadFrozenTruncated: every proper prefix of a valid snapshot must
// error — never panic, never return a net.
func TestLoadFrozenTruncated(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze().Shard(0))
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
	nodes, out, _ := n.lists()
	legacy := struct {
		Version int
		Nodes   []Node
		Out     [][]HalfEdge
		Edges   int
	}{1, nodes, out, n.NumEdges()}
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
	full := saveFrozen(t, n.Freeze().Shard(0))

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
	full := saveFrozen(t, n.Freeze().Shard(0))
	bad := append([]byte(nil), full...)
	// The label table ends with the last pair's weight bits; flip a bit
	// of its high byte.
	_, end, _ := labelTableSpan(full)
	bad[end-1] ^= 0x40
	_, err := LoadFrozen(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("checksum corruption: got %v", err)
	}
}

// corrupt cases built by mutating a freshly frozen net before saving, or by
// editing the saved bytes: the file is internally consistent (valid CRC)
// but wrong, so the validation itself must catch it.
func TestLoadFrozenStructuralCorruption(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(f *FrozenNet) // applied before saving
		edit    func(data []byte)  // applied to the saved bytes
		errWant string
	}{
		{name: "edge kind out of range", mutate: func(f *FrozenNet) {
			f.out.edges[0].Kind = EdgeKind(99)
		}, errWant: "kind"},
		{name: "edge kind wrong CSR group", mutate: func(f *FrozenNet) {
			// Valid kinds, but a node's run must ascend by kind: swap the
			// ends of the first run that holds two kinds.
			for id := range f.out.groups {
				if run := f.out.slice(NodeID(id), -1); len(run) > 1 && run[0].Kind != run[len(run)-1].Kind {
					run[0], run[len(run)-1] = run[len(run)-1], run[0]
					return
				}
			}
			panic("no node has out edges of two kinds")
		}, errWant: "kind order"},
		{name: "peer out of range", mutate: func(f *FrozenNet) {
			f.out.edges[0].Peer = NodeID(f.NumNodes() + 7)
		}, errWant: "peer"},
		{name: "shard range exceeds declared total", mutate: func(f *FrozenNet) {
			f.total--
		}, errWant: "declared total"},
		{name: "version 2 file", edit: func(data []byte) {
			data[4], data[5] = 2, 0
		}, errWant: "unsupported snapshot version 2"},
		{name: "version 3 file", edit: func(data []byte) {
			data[4], data[5] = 3, 0
		}, errWant: "unsupported snapshot version 3"},
		{name: "nonzero pad byte", edit: func(data []byte) {
			data[len(data)-4-frozenEdgeRecSize+5] = 1
		}, errWant: "pad byte"},
		{name: "label index out of range", edit: func(data []byte) {
			_, _, keys := labelTableSpan(data)
			copy(data, withLastLabelIndex(data, uint16(len(keys))))
		}, errWant: "label index"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n, _ := buildToyNet(t)
			f := n.Freeze().Shard(0)
			if tc.mutate != nil {
				tc.mutate(f)
			}
			data := saveFrozen(t, f)
			if tc.edit != nil {
				tc.edit(data)
				fzio.PutU32(data[len(data)-4:], crc32.ChecksumIEEE(data[FrozenHeaderLen:len(data)-4]))
			}
			_, err := LoadFrozen(bytes.NewReader(data))
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
	buf := append([]byte("ACFZ"), 4, 0) // magic + version
	buf = append(buf, 4, 6)             // numKinds, numEdgeKinds
	buf = append(buf, huge...)          // nodeCount
	buf = append(buf, zero...)          // base
	buf = append(buf, huge...)          // totalNodes
	buf = append(buf, huge...)          // outEdgeCount
	buf = append(buf, huge...)          // inEdgeCount
	buf = append(buf, huge...)          // labelCount, then EOF
	if _, err := LoadFrozen(bytes.NewReader(buf)); err == nil {
		t.Fatal("truncated file with huge claimed counts loaded successfully")
	}
	// Above the cap the count itself is rejected.
	over := []byte{1, 0, 0, 8} // 1<<27 + 1
	buf = append([]byte("ACFZ"), 4, 0)
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
	n.AddNode(KindPrimitive, strings.Repeat("x", fzio.MaxStr+1), "d")
	if err := n.Freeze().Shard(0).Save(io.Discard); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("oversized node name: got %v", err)
	}
}

// --- targeted corruption: each file is internally consistent (valid CRC)
// but one field is wrong, so the structural validation must catch it.

// savedWith freezes the toy net, applies mutate, and saves the result.
func savedWith(t *testing.T, mutate func(f *FrozenNet)) []byte {
	t.Helper()
	n, _ := buildToyNet(t)
	f := n.Freeze().Shard(0)
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
	data := savedWith(t, func(f *FrozenNet) { f.nodes.recs[0].kind = 42 })
	if _, err := LoadFrozen(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("node kind 42: got %v", err)
	}
}

// TestLoadRejectsAdjacencyShapeMismatch: out degrees that do not add up to
// the header's out-edge count are rejected before any edge record is read,
// whether one degree runs past the edges or the degrees leave edges over.
func TestLoadRejectsAdjacencyShapeMismatch(t *testing.T) {
	n, ids := buildToyNet(t)
	full := saveFrozen(t, n.Freeze().Shard(0))
	edges := uint32(n.NumEdges())
	for _, tc := range []struct {
		name   string
		node   NodeID
		degree uint32
	}{
		{"a degree overruns the edges", ids["clsCategory"], edges + 1},
		{"degrees leave edges over", ids["clsClothing"], 0}, // its one isA edge
	} {
		at := outDegreesAt(full) + 4*int(tc.node)
		bad := spliced(full, at, at+4, func(fw *fzio.Writer) { fw.U32(tc.degree) })
		if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "out degrees sum to") {
			t.Fatalf("%s: got %v", tc.name, err)
		}
	}
}

// outDegreesAt returns the offset of a saved snapshot's out degrees, which
// follow the label table and the node records.
func outDegreesAt(data []byte) int {
	_, at, _ := labelTableSpan(data)
	for i := fzio.GetU32(data[8:]); i > 0; i-- { // nodeCount follows the two kind counts
		at++                                  // kind
		at += 4 + int(fzio.GetU32(data[at:])) // name
		at += 4 + int(fzio.GetU32(data[at:])) // domain
	}
	return at
}

// TestLoadRecomputesEdgeCounter: the loaded edge count comes from the CSR
// itself, and a header count that disagrees with it is rejected.
func TestLoadRecomputesEdgeCounter(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze().Shard(0))
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
	fzio.PutU32(bad[outEdgeCountAt:], fzio.GetU32(bad[outEdgeCountAt:])+7)
	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "disagrees with header") {
		t.Fatalf("stale header edge count: got %v", err)
	}
}

// FuzzLoadFrozen: LoadFrozen must never panic, what it rejects must add no
// label to the intern table, and whatever it accepts must
// round-trip — Save of the loaded net loads back with the checksum Save
// reported, and saving that again reproduces the same bytes.
func FuzzLoadFrozen(f *testing.F) {
	n, _ := buildToyNet(f)
	full := saveFrozen(f, n.Freeze().Shard(0))
	f.Add(full)
	f.Add(full[:len(full)/2])
	for _, sh := range buildRandomNet(f, 5).FreezeShards(3) {
		f.Add(saveFrozen(f, sh))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		held := internedCount()
		g, err := LoadFrozen(bytes.NewReader(data))
		if err != nil {
			if grown := internedCount() - held; grown != 0 {
				t.Fatalf("rejected input interned %d labels: %v", grown, err)
			}
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

// TestFuzzLoadFrozenSeedsReachTheirChecks: each named seed of the
// FuzzLoadFrozen corpus loads, or fails at the check its name gives, so a
// format change that leaves a seed failing somewhere earlier shows here.
// The corpus keeps files of older format versions, each rejected by the
// version check.
func TestFuzzLoadFrozenSeedsReachTheirChecks(t *testing.T) {
	for name, want := range map[string]string{
		"seed-toy-net":                        "",
		"seed-toy-shard":                      "",
		"seed-empty-net":                      "",
		"seed-crc-fail-fresh-rel-name":        "checksum mismatch",
		"seed-label-table-beyond-label-space": "exceeds the 65536-label space",
		"seed-kinds-out-of-order":             "breaks kind order",
		"seed-degree-overruns-edges":          "out degrees sum to",
		"seed-pad-byte-nonzero":               "pad byte 0x1 is not zero",
		"seed-label-index-out-of-range":       "label index 3 out of range",
		"seed-v3-toy-net":                     "unsupported snapshot version 3",
		"seed-name-index-omits-entry":         "unsupported snapshot version 2",
		"seed-kind-index-lists-node-twice":    "unsupported snapshot version 2",
		"ea96d4e5ef79c1db":                    "unsupported snapshot version 2",
	} {
		raw, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzLoadFrozen", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(raw), "\n")
		if len(lines) < 2 || lines[0] != "go test fuzz v1" || !strings.HasPrefix(lines[1], "[]byte(") {
			t.Fatalf("%s: not a one-value corpus file", name)
		}
		quoted := strings.TrimPrefix(lines[1], "[]byte(")
		data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, err = LoadFrozen(strings.NewReader(data))
		switch {
		case want == "" && err != nil:
			t.Errorf("%s: %v", name, err)
		case want != "" && (err == nil || !strings.Contains(err.Error(), want)):
			t.Errorf("%s: got %v, want an error containing %q", name, err, want)
		}
	}
}

// TestLoadFrozenEdgeRecordsExactlySized: a direction with more records than
// the loader reserves up front (fzio's preallocation cap of 1<<16) grows
// as the records arrive, and is then cut to exactly its records, so a
// loaded shard's edge records cost 8 bytes a half-edge at any size.
func TestLoadFrozenEdgeRecordsExactlySized(t *testing.T) {
	const items = 1<<16 + 1
	n := NewNet()
	p := n.AddNode(KindPrimitive, "p", "d")
	for i := 0; i < items; i++ {
		if err := n.AddEdge(n.AddNode(KindItem, strconv.Itoa(i), "d"), p, EdgeItemPrimitive, "", 1); err != nil {
			t.Fatal(err)
		}
	}
	g, err := LoadFrozen(bytes.NewReader(saveFrozen(t, n.Freeze().Shard(0))))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.EdgeRecordBytes(), 8*2*items; got != want {
		t.Fatalf("edge records take %d bytes, want %d", got, want)
	}
}
