package pipeline

import (
	"encoding/json"
	"errors"
	"hash/crc32"
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
func saveShardDir(t *testing.T, a *Artifacts, count int) (string, *snapstore.ShardManifest) {
	t.Helper()
	root := t.TempDir()
	man, _, err := a.SaveShardsRetain(root, count, 0)
	if err != nil {
		t.Fatalf("SaveShardsRetain(%d): %v", count, err)
	}
	g, err := snapstore.Lookup(root, nil)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	return filepath.Join(root, g.Dir), man
}

// loadShards loads the generation in dir in full, as a first load does:
// its manifest, then every shard and the serving metadata through
// snapstore.LoadGen with nothing served.
func loadShards(dir string) ([]*core.FrozenNet, *snapstore.ServingMeta, *snapstore.ShardManifest, error) {
	man, err := snapstore.ReadManifest(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	shards, meta, _, err := snapstore.LoadGen(dir, man, nil, nil, nil, -1)
	if err != nil {
		return nil, nil, nil, err
	}
	return shards, meta, man, nil
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

// TestShardDirRoundTrip: a sharded save loads back into shards whose
// assembled ShardSet answers exactly like the one-shard freeze of the net,
// and serving metadata that survives the round trip.
func TestShardDirRoundTrip(t *testing.T) {
	a := buildTiny(t)
	frozen := a.Net.Freeze()
	for _, count := range []int{1, 3, 4} {
		dir, man := saveShardDir(t, a, count)
		if man.NumShards() != count || man.TotalNodes != frozen.NumNodes() || man.TotalEdges != frozen.NumEdges() {
			t.Fatalf("count %d: manifest geometry %+v does not match net", count, man)
		}
		shards, meta, man2, err := loadShards(dir)
		if err != nil {
			t.Fatalf("loadShards: %v", err)
		}
		if !reflect.DeepEqual(man, man2) {
			t.Fatal("manifest changed across round trip")
		}
		if len(shards) != count {
			t.Fatalf("loaded %d shards, want %d", len(shards), count)
		}
		if !reflect.DeepEqual(a.Serving, meta) {
			t.Fatal("serving metadata differs after round trip")
		}
		s, err := core.NewShardSet(shards)
		if err != nil {
			t.Fatalf("NewShardSet: %v", err)
		}
		if s.NumNodes() != frozen.NumNodes() || s.NumEdges() != frozen.NumEdges() {
			t.Fatal("shard set counts differ from the one-shard freeze")
		}
		for _, ec := range frozen.NodesOfKind(core.KindEConcept)[:5] {
			if !reflect.DeepEqual(frozen.ItemsForEConcept(ec, 10), s.ItemsForEConcept(ec, 10)) {
				t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
			}
		}
		for _, p := range frozen.NodesOfKind(core.KindPrimitive)[:5] {
			if !reflect.DeepEqual(frozen.Ancestors(p, 0), s.Ancestors(p, 0)) {
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
	dir, man := saveShardDir(t, a, 3)

	// Swap shard 1's file for shard 2's: loads fine as a frozen net, but
	// its checksum and geometry do not match the manifest entry.
	orig, err := os.ReadFile(filepath.Join(dir, man.Shards[2].File))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, man.Shards[1].File), orig, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, err = loadShards(dir)
	var sle *snapstore.ShardLoadError
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
		dir, man := saveShardDir(t, a, 3)
		flip(t, dir, man.Shards[1].File, -5)
		if _, _, _, err := loadShards(dir); err == nil {
			t.Fatal("corrupt shard file loaded")
		}
	})
	t.Run("meta body", func(t *testing.T) {
		dir, man := saveShardDir(t, a, 3)
		flip(t, dir, man.MetaFile, 16)
		if _, _, _, err := loadShards(dir); err == nil {
			t.Fatal("corrupt meta file loaded")
		}
	})
	t.Run("missing shard file", func(t *testing.T) {
		dir, man := saveShardDir(t, a, 3)
		if err := os.Remove(filepath.Join(dir, man.Shards[2].File)); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := loadShards(dir)
		var sle *snapstore.ShardLoadError
		if err == nil || !errors.As(err, &sle) || sle.Index != 2 {
			t.Fatalf("missing shard file: got %v, want *ShardLoadError for shard 2", err)
		}
	})
	t.Run("manifest garbage", func(t *testing.T) {
		dir, _ := saveShardDir(t, a, 3)
		if err := os.WriteFile(filepath.Join(dir, snapstore.ShardManifestName), []byte("{"), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := loadShards(dir); err == nil {
			t.Fatal("garbage manifest accepted")
		}
	})
	for _, c := range []struct {
		name string
		lie  func(man *snapstore.ShardManifest)
	}{
		{"manifest stride lie", func(man *snapstore.ShardManifest) { man.Stride++ }},
		{"manifest meta file escapes", func(man *snapstore.ShardManifest) { man.MetaFile = "../../victim.txt" }},
		{"manifest meta file is the parent", func(man *snapstore.ShardManifest) { man.MetaFile = ".." }},
		{"manifest shard file escapes", func(man *snapstore.ShardManifest) { man.Shards[1].File = "../gen-000009/shard-0001.fz" }},
		{"manifest names a file twice", func(man *snapstore.ShardManifest) { man.Shards[2].File = man.Shards[0].File }},
		{"manifest meta file is a shard", func(man *snapstore.ShardManifest) { man.MetaFile = man.Shards[1].File }},
		{"manifest names itself", func(man *snapstore.ShardManifest) { man.MetaFile = snapstore.ShardManifestName }},
		{"manifest shard names the manifest", func(man *snapstore.ShardManifest) { man.Shards[0].File = snapstore.ShardManifestName }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir, man := saveShardDir(t, a, 3)
			c.lie(man)
			writeManifest(t, dir, man)
			if _, err := snapstore.ReadManifest(dir); err == nil {
				t.Fatalf("manifest accepted: %+v", man)
			}
		})
	}
}

// writeManifest overwrites dir's manifest with man and returns the CRC-32
// of the bytes written, which a catalog entry vouching for it would carry.
func writeManifest(t *testing.T, dir string, man *snapstore.ShardManifest) uint32 {
	t.Helper()
	raw, err := json.Marshal(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapstore.ShardManifestName), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return crc32.ChecksumIEEE(raw)
}

// TestScrubStaysInsideGeneration: a manifest naming a file outside its
// generation fails to read, so the scrubber neither hashes nor
// quarantines that file. The catalog's manifest checksum is no guard when
// the catalog entry vouches for the bad manifest.
func TestScrubStaysInsideGeneration(t *testing.T) {
	a := buildTiny(t)
	tmp := t.TempDir()
	store := filepath.Join(tmp, "store")
	if _, _, err := a.SaveShardsRetain(store, 2, 0); err != nil {
		t.Fatal(err)
	}
	g, err := snapstore.Lookup(store, nil)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(store, g.Dir)
	victim := filepath.Join(tmp, "victim.txt")
	if err := os.WriteFile(victim, []byte("not part of any generation\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := snapstore.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.MetaFile = "../../victim.txt"
	g.ManifestChecksum = writeManifest(t, dir, man)

	if _, err := snapstore.ScrubGen(store, g, nil, a.Serving); err == nil {
		t.Fatal("scrub accepted a manifest naming a file outside its generation")
	}
	got, err := os.ReadFile(victim)
	if err != nil || string(got) != "not part of any generation\n" {
		t.Fatalf("file outside the generation was touched: %q, %v", got, err)
	}
	if _, err := os.Stat(victim + ".quarantined"); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("file outside the generation was quarantined: %v", err)
	}
}

// TestLoadShardSingle: LoadShard re-reads exactly one shard, which is what
// the serving layer's single-shard reload path builds on.
func TestLoadShardSingle(t *testing.T) {
	a := buildTiny(t)
	dir, man := saveShardDir(t, a, 4)
	sh, err := snapstore.LoadShard(dir, man, 2)
	if err != nil {
		t.Fatal(err)
	}
	if int(sh.Base()) != man.Shards[2].Base || sh.NumNodes() != man.Shards[2].Nodes {
		t.Fatal("LoadShard returned the wrong range")
	}
	if _, err := snapstore.LoadShard(dir, man, 99); err == nil {
		t.Fatal("out-of-range shard index accepted")
	}
}

// TestSaveShardsRequiresLiveNet: serving-only artifacts — a loaded
// generation's shards and metadata, as a loaded facade's Internal holds
// them — cannot partition.
func TestSaveShardsRequiresLiveNet(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 2)
	shards, meta, _, err := loadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := &Artifacts{Shards: shards, Serving: meta}
	if _, _, err := b.SaveShardsRetain(t.TempDir(), 2, 0); err == nil {
		t.Fatal("SaveShards on serving-only artifacts should fail")
	}
}

// TestSaveSnapshotRequiresFrozen: artifacts without a net to freeze, or
// without serving metadata, commit no generation.
func TestSaveSnapshotRequiresFrozen(t *testing.T) {
	empty := t.TempDir()
	if _, _, err := (&Artifacts{}).SaveShardsRetain(empty, 1, 0); err == nil {
		t.Fatal("snapshot of artifacts without a net should error")
	}
	a := buildTiny(t)
	noMeta := *a
	noMeta.Serving = nil
	bare := t.TempDir()
	if _, _, err := noMeta.SaveShardsRetain(bare, 2, 0); err == nil {
		t.Fatal("SaveShards without serving metadata should fail")
	}
	for _, dir := range []string{empty, bare} {
		if _, err := os.Stat(filepath.Join(dir, snapstore.CatalogName)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: failed save left a catalog behind (stat err %v)", dir, err)
		}
	}
}
