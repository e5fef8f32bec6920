package pipeline

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/snapstore"
)

// saveShardDir commits one generation into a fresh store and returns the
// committed generation's directory (where the shard files actually live),
// which the corruption tests mutate directly.
func saveShardDir(t *testing.T, a *Artifacts, count int) (string, *ShardManifest) {
	t.Helper()
	root := t.TempDir()
	man, err := a.SaveShards(root, count)
	if err != nil {
		t.Fatalf("SaveShards(%d): %v", count, err)
	}
	dir, _, err := snapstore.ResolveDir(root)
	if err != nil {
		t.Fatalf("ResolveDir: %v", err)
	}
	return dir, man
}

// TestSaveShardsDeterministic: saving the same net twice must produce
// byte-identical manifests — every checksum, including MetaChecksum, is a
// pure content hash. ReloadShards treats a changed MetaChecksum as a shape
// change (full reload), so a nondeterministic meta encoding would defeat
// per-shard diffing on every re-save of unchanged content.
func TestSaveShardsDeterministic(t *testing.T) {
	a := buildTiny(t)
	_, man1 := saveShardDir(t, a, 3)
	_, man2 := saveShardDir(t, a, 3)
	if !reflect.DeepEqual(man1, man2) {
		t.Fatalf("re-save of identical content produced a different manifest:\n%+v\n%+v", man1, man2)
	}
}

// TestShardDirRoundTrip: a sharded save loads back into a serving-only
// Artifacts whose assembled ShardSet answers exactly like the unsharded
// frozen net, and whose metadata survives the gob round trip.
func TestShardDirRoundTrip(t *testing.T) {
	a := buildTiny(t)
	for _, count := range []int{1, 3, 4} {
		dir, man := saveShardDir(t, a, count)
		if man.NumShards() != count || man.TotalNodes != a.Frozen.NumNodes() || man.TotalEdges != a.Frozen.NumEdges() {
			t.Fatalf("count %d: manifest geometry %+v does not match net", count, man)
		}
		b, man2, err := LoadShards(dir)
		if err != nil {
			t.Fatalf("LoadShards: %v", err)
		}
		if !reflect.DeepEqual(man, man2) {
			t.Fatal("manifest changed across round trip")
		}
		if b.Net != nil || b.World != nil || b.Frozen != nil {
			t.Fatal("loaded artifacts should be serving-only with Shards set")
		}
		if len(b.Shards) != count {
			t.Fatalf("loaded %d shards, want %d", len(b.Shards), count)
		}
		if !reflect.DeepEqual(a.Serving, b.Serving) || !reflect.DeepEqual(a.ItemNode, b.ItemNode) {
			t.Fatal("serving metadata differs after round trip")
		}
		s, err := core.NewShardSet(b.Shards)
		if err != nil {
			t.Fatalf("NewShardSet: %v", err)
		}
		if s.NumNodes() != a.Frozen.NumNodes() || s.NumEdges() != a.Frozen.NumEdges() {
			t.Fatal("shard set counts differ from unsharded net")
		}
		for _, ec := range a.Frozen.NodesOfKind(core.KindEConcept)[:5] {
			if !reflect.DeepEqual(a.Frozen.ItemsForEConcept(ec, 10), s.ItemsForEConcept(ec, 10)) {
				t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
			}
		}
		for _, p := range a.Frozen.NodesOfKind(core.KindPrimitive)[:5] {
			if !reflect.DeepEqual(a.Frozen.Ancestors(p, 0), s.Ancestors(p, 0)) {
				t.Fatalf("Ancestors(%d) differs after round trip", p)
			}
		}
	}
}

// TestLoadShardVerifiesManifest: a shard file swapped for another valid
// shard — or a checksum edit in the manifest — is rejected with a
// *ShardLoadError naming the failing shard.
func TestLoadShardVerifiesManifest(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 3)

	// Swap shard 1's file for shard 2's: loads fine as a frozen net, but
	// its checksum and geometry do not match the manifest entry.
	orig, err := os.ReadFile(filepath.Join(dir, shardFileName(2)))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, shardFileName(1)), orig, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = LoadShards(dir)
	var sle *ShardLoadError
	if err == nil || !errors.As(err, &sle) {
		t.Fatalf("swapped shard file: got %v, want *ShardLoadError", err)
	}
	if sle.Index != 1 {
		t.Fatalf("failure attributed to shard %d, want 1", sle.Index)
	}
}

// TestLoadShardsRejectsCorruption: flipped bytes in a shard file, the meta
// file, or the manifest never load.
func TestLoadShardsRejectsCorruption(t *testing.T) {
	a := buildTiny(t)
	flip := func(t *testing.T, dir, name string, off int) {
		t.Helper()
		path := filepath.Join(dir, name)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if off < 0 {
			off = len(raw) + off
		}
		raw[off] ^= 0x40
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("shard body", func(t *testing.T) {
		dir, _ := saveShardDir(t, a, 3)
		flip(t, dir, shardFileName(1), -5)
		if _, _, err := LoadShards(dir); err == nil {
			t.Fatal("corrupt shard file loaded")
		}
	})
	t.Run("meta body", func(t *testing.T) {
		dir, _ := saveShardDir(t, a, 3)
		flip(t, dir, shardMetaName, 16)
		if _, _, err := LoadShards(dir); err == nil {
			t.Fatal("corrupt meta file loaded")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir, _ := saveShardDir(t, a, 3)
		if err := os.Remove(filepath.Join(dir, shardFileName(2))); err != nil {
			t.Fatal(err)
		}
		_, _, err := LoadShards(dir)
		var sle *ShardLoadError
		if err == nil || !errors.As(err, &sle) || sle.Index != 2 {
			t.Fatalf("missing shard file: got %v, want *ShardLoadError for shard 2", err)
		}
	})
	t.Run("manifest garbage", func(t *testing.T) {
		dir, _ := saveShardDir(t, a, 3)
		if err := os.WriteFile(filepath.Join(dir, ShardManifestName), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := LoadShards(dir); err == nil {
			t.Fatal("garbage manifest accepted")
		}
	})
	t.Run("manifest stride lie", func(t *testing.T) {
		dir, man := saveShardDir(t, a, 3)
		man.Stride++
		raw, err := json.Marshal(man)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, ShardManifestName), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ReadManifest(dir); err == nil {
			t.Fatal("manifest with wrong stride accepted")
		}
	})
}

// TestLoadShardSingle: LoadShard re-reads exactly one shard, which is what
// the serving layer's single-shard reload path builds on.
func TestLoadShardSingle(t *testing.T) {
	a := buildTiny(t)
	dir, man := saveShardDir(t, a, 4)
	sh, err := LoadShard(dir, man, 2)
	if err != nil {
		t.Fatal(err)
	}
	if int(sh.Base()) != man.Shards[2].Base || sh.NumNodes() != man.Shards[2].Nodes {
		t.Fatal("LoadShard returned the wrong range")
	}
	if _, err := LoadShard(dir, man, 99); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestSaveShardsRequiresLiveNet: serving-only artifacts cannot partition.
func TestSaveShardsRequiresLiveNet(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 2)
	b, _, err := LoadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.SaveShards(t.TempDir(), 2); err == nil {
		t.Fatal("SaveShards on serving-only artifacts should fail")
	}
}

// TestSaveSnapshotRequiresFrozen: artifacts without a net to freeze, or
// without serving metadata, commit no generation.
func TestSaveSnapshotRequiresFrozen(t *testing.T) {
	empty := t.TempDir()
	if _, err := (&Artifacts{}).SaveShards(empty, 1); err == nil {
		t.Fatal("snapshot of artifacts without a net should error")
	}
	a := buildTiny(t)
	noMeta := *a
	noMeta.Serving = nil
	bare := t.TempDir()
	if _, err := noMeta.SaveShards(bare, 2); err == nil {
		t.Fatal("SaveShards without serving metadata should fail")
	}
	for _, dir := range []string{empty, bare} {
		if _, err := os.Stat(filepath.Join(dir, snapstore.CatalogName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: failed save left a catalog behind (stat err %v)", dir, err)
		}
	}
}
