package snapstore

import (
	"bytes"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"alicoco/internal/core"
	"alicoco/internal/fzio"
)

// TestItemOfNodeSharedNode: when several world items share a node, the
// node index maps it to the last of them in world order; nodes without an
// item, and IDs outside the net, map to none.
func TestItemOfNodeSharedNode(t *testing.T) {
	m := &ServingMeta{Items: []ItemMeta{
		{WorldID: 0, Node: 2}, // first on node 2
		{WorldID: 1, Node: 2}, // second on node 2
		{WorldID: 2, Node: 0}, // alone on node 0
	}}
	m.IndexNodes(4)
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
// categories on nodes 0..6.
func syntheticMeta(n int) *ServingMeta {
	m := &ServingMeta{Stopwords: []string{"for", "the", "with"}}
	for i := 0; i < n; i++ {
		m.Items = append(m.Items, ItemMeta{WorldID: i, Node: core.NodeID(i), Category: core.NodeID(i % 7)})
	}
	return m
}

// TestItemMetaHoldsNoPointer: an item table entry is 16 bytes with no
// pointer in it, so the item table is one allocation the collector never
// scans, whatever its length; the names it stands for live in the shards.
func TestItemMetaHoldsNoPointer(t *testing.T) {
	if size := unsafe.Sizeof(ItemMeta{}); size != 16 {
		t.Fatalf("ItemMeta is %d bytes, want 16", size)
	}
	typ := reflect.TypeOf(ItemMeta{})
	for i := 0; i < typ.NumField(); i++ {
		switch f := typ.Field(i); f.Type.Kind() {
		case reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint32:
		default:
			t.Fatalf("ItemMeta.%s is a %s, which may hold a pointer", f.Name, f.Type)
		}
	}
}

// TestLoadShardMetaRejectsVersion2: a version-2 meta.bin, which held the
// titles and categories as strings, fails to load with "unsupported
// version 2" even though its CRC and the manifest's checksum verify, so a
// store saved before format 3 must be saved again.
func TestLoadShardMetaRejectsVersion2(t *testing.T) {
	// A version-2 body: no stopwords, one category "pants", one item on
	// node 5 titled "green pants" in category 0.
	var v2 bytes.Buffer
	fw := fzio.Writer{W: &v2}
	fw.U32(0)
	fw.U32(1)
	fw.Str("pants")
	fw.U32(1)
	fw.U32(5)
	fw.Str("green pants")
	fw.U32(0)
	body := v2.Bytes()
	var file bytes.Buffer
	if err := emitMeta(body)(&file); err != nil {
		t.Fatal(err)
	}
	file.Bytes()[4] = 2 // the version byte
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, shardMetaName), file.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	man := &ShardManifest{MetaFile: shardMetaName, MetaChecksum: crc32.ChecksumIEEE(body), TotalNodes: 8}
	if _, err := loadShardMeta(dir, man); err == nil || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 meta.bin: got %v, want an error containing %q", err, "unsupported version 2")
	}
}

// TestLoadShardMetaAllocsIndependentOfItemCount: reading and decoding
// meta.bin costs a fixed number of allocations, none per item and none
// per stopword, so ten times the items make at most a few more.
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

// TestDecodeMetaOverLimitCount: an over-limit count is rejected from the
// count alone, before anything is allocated: with the body's first count
// over the limit, a decode allocates its error and no buffer, which would
// take the body's size.
func TestDecodeMetaOverLimitCount(t *testing.T) {
	const total = 2000
	body, err := syntheticMeta(total).encode()
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
		if _, err := decodeMeta(body, total); err == nil {
			t.Fatal("over-limit stopword count accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if perRun := (after.TotalAlloc - before.TotalAlloc) / runs; perRun > 2<<10 {
		t.Fatalf("rejecting an over-limit count allocated %d bytes", perRun)
	}
}

// fuzzTotal is the node count FuzzLoadMeta decodes against.
const fuzzTotal = 8

// fuzzMeta is the metadata FuzzLoadMeta's v3 seeds are made from: four
// items on nodes 5-7 in categories on nodes 2-4.
func fuzzMeta() *ServingMeta {
	return &ServingMeta{
		Stopwords: []string{"for", "the", "with"},
		Items: []ItemMeta{
			{WorldID: 0, Node: 5, Category: 2},
			{WorldID: 1, Node: 6, Category: 3},
			{WorldID: 2, Node: 6, Category: 3},
			{WorldID: 3, Node: 7, Category: 4},
		},
	}
}

// FuzzLoadMeta: the meta body decoder, which runs once the body's CRC has
// verified, must never panic, and any body it accepts must re-encode to
// the same bytes. The committed seeds (testdata/fuzz/FuzzLoadMeta) named
// v3-* are fuzzMeta's body under each of the corruptions that
// TestLoadShardMetaStructuralCorruption (internal/pipeline) loads, with
// node 1 as the non-item node, node 0 as the non-primitive and node 5 as
// the primitive outside the Category domain. The seeds named seed-* are
// version-2 bodies, which held titles and category names: each must be
// rejected or round-trip like any other input.
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
