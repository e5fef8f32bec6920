package pipeline

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/fzio"
)

// TestArtifactsSnapshotRoundTrip: a one-shard generation loads back into a
// serving-only Artifacts with the serving metadata and the frozen net's
// answers intact, and without the build-time node maps.
func TestArtifactsSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 1)
	b, _, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Net != nil || b.World != nil || b.Corpus != nil {
		t.Fatal("loaded artifacts should be serving-only")
	}
	if len(b.Shards) != 1 {
		t.Fatalf("%d shards loaded, want 1", len(b.Shards))
	}
	f, err := core.NewShardSet(b.Shards)
	if err != nil {
		t.Fatal(err)
	}
	frozen := a.Net.Freeze()
	if f.NumNodes() != frozen.NumNodes() || f.NumEdges() != frozen.NumEdges() {
		t.Fatalf("frozen counts differ: %d/%d nodes, %d/%d edges",
			f.NumNodes(), frozen.NumNodes(), f.NumEdges(), frozen.NumEdges())
	}
	if b.PrimNode != nil || b.FrameNode != nil || b.ItemNode != nil || b.DomainCls != nil {
		t.Fatal("loaded artifacts carry build-time node maps; a snapshot does not persist them")
	}
	if !reflect.DeepEqual(a.Serving, b.Serving) {
		t.Fatal("serving metadata differs after round trip")
	}
	// Spot-check real queries answer identically on the loaded net.
	for _, ec := range frozen.NodesOfKind(core.KindEConcept)[:5] {
		la, lb := frozen.ItemsForEConcept(ec, 10), f.ItemsForEConcept(ec, 10)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
		}
	}
	for _, p := range frozen.NodesOfKind(core.KindPrimitive)[:5] {
		if !reflect.DeepEqual(frozen.Ancestors(p, 0), f.Ancestors(p, 0)) {
			t.Fatalf("Ancestors(%d) differs after round trip", p)
		}
	}
}

// TestLoadSnapshotRejectsCorruptHeader: meta.bin's magic, version and
// length are checked before its body is decoded.
func TestLoadSnapshotRejectsCorruptHeader(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 1)
	path := filepath.Join(dir, shardMetaName)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadShards(dir)
		return err
	}

	bad := append([]byte(nil), full...)
	copy(bad, "XXXX")
	if load(bad) == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if load(bad) == nil {
		t.Fatal("bad version accepted")
	}
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if load(full[:cut]) == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if err := load(full); err != nil {
		t.Fatalf("restored meta.bin: %v", err)
	}
}

// rewriteMeta replaces the meta body of the generation in dir with edit's
// result, recomputes its CRC and updates the manifest's MetaChecksum, so
// the file verifies and only its structure is wrong.
func rewriteMeta(t *testing.T, dir string, edit func(body []byte) []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, shardMetaName))
	if err != nil {
		t.Fatal(err)
	}
	body := edit(append([]byte(nil), raw[5:len(raw)-4]...))
	if err := writeMeta(dir, shardMetaName, body); err != nil {
		t.Fatal(err)
	}
	man, err := ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.MetaChecksum = crc32.ChecksumIEEE(body)
	manRaw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ShardManifestName), manRaw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// itemsAt returns the offset of a meta body's item count: past the
// stopword and category lists.
func itemsAt(t testing.TB, body []byte) int {
	t.Helper()
	r := bytes.NewReader(body)
	fr := fzio.Reader{R: r}
	for list := 0; list < 2; list++ {
		for n := fr.Count("list"); n > 0 && fr.Err == nil; n-- {
			fr.Str()
		}
	}
	if fr.Err != nil {
		t.Fatal(fr.Err)
	}
	return len(body) - r.Len()
}

// metaCorruptions turn a good meta body into one that must not load: the
// rows of TestLoadShardMetaStructuralCorruption and the seeds of
// FuzzLoadMeta. items is the offset of the item count, nonItem a node in
// range that is not an item, total the net's node count.
var metaCorruptions = []struct {
	name string
	want string // in the load error
	edit func(body []byte, items int, nonItem, total uint32) []byte
}{
	{"non-item node", "not an item node", func(b []byte, items int, nonItem, _ uint32) []byte {
		fzio.PutU32(b[items+4:], nonItem) // item 0's node
		return b
	}},
	{"node past total", "out of range [0,", func(b []byte, items int, _, total uint32) []byte {
		fzio.PutU32(b[items+4:], total)
		return b
	}},
	{"category out of range", "categories)", func(b []byte, items int, _, _ uint32) []byte {
		title := int(fzio.GetU32(b[items+8:])) // item 0's title length
		fzio.PutU32(b[items+12+title:], 1<<20)
		return b
	}},
	{"title past body", "unexpected EOF", func(b []byte, _ int, _, _ uint32) []byte {
		return b[:len(b)-6] // the last item's category and two bytes of its title
	}},
	{"bytes after last item", "after the last item", func(b []byte, _ int, _, _ uint32) []byte {
		return append(b, 0)
	}},
	{"item count above limit", "exceeds limit", func(b []byte, items int, _, _ uint32) []byte {
		fzio.PutU32(b[items:], fzio.MaxElems+1)
		return b
	}},
}

// TestLoadShardMetaStructuralCorruption: a meta body that verifies against
// its CRC and the manifest but breaks the format's structure never loads —
// in particular an item on a node that is not an item, which would hand
// that node to the recommend engine as a viewed item.
func TestLoadShardMetaStructuralCorruption(t *testing.T) {
	a := buildTiny(t)
	nonItem := uint32(a.Net.Freeze().NodesOfKind(core.KindEConcept)[0])
	total := uint32(a.Net.NumNodes())
	for _, row := range metaCorruptions {
		t.Run(row.name, func(t *testing.T) {
			dir, _ := saveShardDir(t, a, 2)
			rewriteMeta(t, dir, func(body []byte) []byte {
				return row.edit(body, itemsAt(t, body), nonItem, total)
			})
			if _, _, err := LoadShards(dir); err == nil || !strings.Contains(err.Error(), row.want) {
				t.Fatalf("got %v, want an error containing %q", err, row.want)
			}
		})
	}

	// An over-limit count is rejected from the count alone, before anything
	// is allocated: with the body's first count over the limit, a decode
	// allocates its error and no buffer, which would take the body's size.
	body, err := a.Serving.encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(body) < 8<<10 {
		t.Fatalf("body of %d bytes is too small to tell a buffer from an error", len(body))
	}
	fzio.PutU32(body, fzio.MaxElems+1)
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := decodeMeta(body, int(total)); err == nil {
			t.Fatal("over-limit stopword count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 2<<10 {
		t.Fatalf("rejecting an over-limit count allocated %d bytes", perRun)
	}
}

// TestItemOfNodeSharedNode: when several world items share a node, the
// node index maps it to the last of them in world order; nodes without an
// item, and IDs outside the net, map to none.
func TestItemOfNodeSharedNode(t *testing.T) {
	m := &ServingMeta{Items: []ItemMeta{
		{WorldID: 0, Node: 2, Title: "first on node 2"},
		{WorldID: 1, Node: 2, Title: "second on node 2"},
		{WorldID: 2, Node: 0, Title: "alone on node 0"},
	}}
	m.indexNodes(4)
	if it, ok := m.ItemOfNode(2); !ok || it.WorldID != 1 {
		t.Fatalf("node 2 maps to %+v (%v), want world item 1", it, ok)
	}
	if it, ok := m.ItemOfNode(0); !ok || it.WorldID != 2 {
		t.Fatalf("node 0 maps to %+v (%v), want world item 2", it, ok)
	}
	for _, id := range []core.NodeID{-1, 1, 3, 4} {
		if it, ok := m.ItemOfNode(id); ok {
			t.Fatalf("node %d maps to %+v, want no item", id, it)
		}
	}
}

// syntheticMeta returns a meta of n items on nodes 0..n-1, in seven
// categories.
func syntheticMeta(n int) *ServingMeta {
	m := &ServingMeta{Stopwords: []string{"for", "the", "with"}}
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, ItemMeta{
			WorldID:  i,
			Node:     core.NodeID(i),
			Title:    fmt.Sprintf("item number %d", i),
			Category: fmt.Sprintf("category %d", i%7),
		})
	}
	return m
}

// TestLoadShardMetaAllocsIndependentOfItemCount: reading and decoding
// meta.bin costs a fixed number of allocations, none per item and none
// per title, so ten times the items make at most a few more.
func TestLoadShardMetaAllocsIndependentOfItemCount(t *testing.T) {
	loadAllocs := func(items int) float64 {
		body, err := syntheticMeta(items).encode()
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := writeMeta(dir, shardMetaName, body); err != nil {
			t.Fatal(err)
		}
		man := &ShardManifest{MetaFile: shardMetaName, MetaChecksum: crc32.ChecksumIEEE(body), TotalNodes: items}
		return testing.AllocsPerRun(5, func() {
			if _, err := loadShardMeta(dir, man); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := loadAllocs(300), loadAllocs(3000)
	if large > small+2 {
		t.Fatalf("loading 3000 items takes %.0f allocations, 300 items %.0f: the loader allocates per item or per title", large, small)
	}
}

// fuzzTotal is the node count FuzzLoadMeta decodes against.
const fuzzTotal = 8

// fuzzMeta is the metadata FuzzLoadMeta's seeds are made from.
func fuzzMeta() *ServingMeta {
	return &ServingMeta{
		Stopwords: []string{"for", "the", "with"},
		Items: []ItemMeta{
			{WorldID: 0, Node: 5, Title: "ribonix polka-dot green pants", Category: "pants"},
			{WorldID: 1, Node: 6, Title: "zorella elegant dress", Category: "dress"},
			{WorldID: 2, Node: 6, Title: "zorella silk dress", Category: "dress"},
			{WorldID: 3, Node: 7, Title: "emberline charcoal grill", Category: "grill"},
		},
	}
}

// FuzzLoadMeta: the meta body decoder, which runs once the body's CRC has
// verified, must never panic, and any body it accepts must re-encode to
// the same bytes. The committed seeds (testdata/fuzz/FuzzLoadMeta) are
// fuzzMeta's body under each of metaCorruptions, with node 1 as the
// non-item node.
func FuzzLoadMeta(f *testing.F) {
	body, err := fuzzMeta().encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	f.Fuzz(func(t *testing.T, body []byte) {
		m, err := decodeMeta(body, fuzzTotal)
		if err != nil {
			return
		}
		again, err := m.encode()
		if err != nil {
			t.Fatalf("accepted body does not encode: %v", err)
		}
		if !bytes.Equal(again, body) {
			t.Fatalf("accepted body re-encodes differently:\n%q\n%q", body, again)
		}
	})
}
