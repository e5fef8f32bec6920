package snapstore

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"runtime"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/fzio"
)

// TestItemOfNodeSharedNode: when several world items share a node, the
// node index maps it to the last of them in world order; nodes without an
// item, and IDs outside the net, map to none.
func TestItemOfNodeSharedNode(t *testing.T) {
	m := &ServingMeta{Items: []ItemMeta{
		{WorldID: 0, Node: 2, Title: "first on node 2"},
		{WorldID: 1, Node: 2, Title: "second on node 2"},
		{WorldID: 2, Node: 0, Title: "alone on node 0"},
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

// TestDecodeMetaOverLimitCount: an over-limit count is rejected from the
// count alone, before anything is allocated: with the body's first count
// over the limit, a decode allocates its error and no buffer, which would
// take the body's size.
func TestDecodeMetaOverLimitCount(t *testing.T) {
	const total = 1000
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
// fuzzMeta's body under each of the corruptions that
// TestLoadShardMetaStructuralCorruption (internal/pipeline) loads, with
// node 1 as the non-item node.
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
