package pipeline

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alicoco/internal/core"
)

// TestArtifactsSnapshotRoundTrip: a one-shard generation loads back into a
// serving-only Artifacts with the node maps, the serving metadata and the
// frozen net's answers intact.
func TestArtifactsSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 1)
	b, _, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if b.Net != nil || b.World != nil || b.Corpus != nil || b.Frozen != nil {
		t.Fatal("loaded artifacts should be serving-only")
	}
	if len(b.Shards) != 1 {
		t.Fatalf("%d shards loaded, want 1", len(b.Shards))
	}
	f := b.Shards[0]
	if f.NumNodes() != a.Frozen.NumNodes() || f.NumEdges() != a.Frozen.NumEdges() {
		t.Fatalf("frozen counts differ: %d/%d nodes, %d/%d edges",
			f.NumNodes(), a.Frozen.NumNodes(), f.NumEdges(), a.Frozen.NumEdges())
	}
	if !reflect.DeepEqual(a.PrimNode, b.PrimNode) || !reflect.DeepEqual(a.FrameNode, b.FrameNode) ||
		!reflect.DeepEqual(a.ItemNode, b.ItemNode) || !reflect.DeepEqual(a.DomainCls, b.DomainCls) {
		t.Fatal("node maps differ after round trip")
	}
	if !reflect.DeepEqual(a.Serving, b.Serving) {
		t.Fatal("serving metadata differs after round trip")
	}
	// Spot-check real queries answer identically on the loaded net.
	for _, ec := range a.Frozen.NodesOfKind(core.KindEConcept)[:5] {
		la, lb := a.Frozen.ItemsForEConcept(ec, 10), f.ItemsForEConcept(ec, 10)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
		}
	}
	for _, p := range a.Frozen.NodesOfKind(core.KindPrimitive)[:5] {
		if !reflect.DeepEqual(a.Frozen.Ancestors(p, 0), f.Ancestors(p, 0)) {
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
