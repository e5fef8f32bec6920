package snapstore

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/par"
)

// Snapshot persistence: a snapshot is one generation of the catalog, and a
// generation directory holds N independently written, independently
// reloadable shard files plus the shared serving metadata, tied together
// by a manifest:
//
//	manifest.json   shard count, partition spec, per-file checksums (commit point)
//	meta.bin        stopwords and item table (see meta.go)
//	shard-0000.fz … frozen-format shard files (see core/persist_frozen.go)
//
// The files are written into the store's temp generation directory and the
// catalog update commits it (Commit) — a crashed save never leaves a
// generation that parses as complete. LoadGen is the one way a
// generation's shards reach serving, for a first load as for a reload: it
// keeps what serving already holds — the item table when the meta checksum
// and node total match, and, in a partition of the same shape, every shard
// whose checksum matches — and reads and verifies only the rest.

const (
	// ShardManifestName is the manifest's file name inside a shard
	// directory; its rename is the save's commit point.
	ShardManifestName = "manifest.json"
	// shardMetaName holds the serving metadata shared by all shards.
	shardMetaName = "meta.bin"

	shardManifestVersion = 1
	shardPartitionRange  = "range"
)

// ShardEntry describes one shard file in the manifest.
type ShardEntry struct {
	// File is the shard's file name relative to the manifest's directory.
	File string `json:"file"`
	// Checksum is the frozen-format body CRC-32 the file must load with.
	Checksum uint32 `json:"checksum"`
	// Base and Nodes are the global-ID range [Base, Base+Nodes) the shard
	// owns; Edges is its out-half-edge count.
	Base  int `json:"base"`
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
}

// ShardManifest is the on-disk description of one sharded snapshot: the
// partition spec plus per-file checksums, so a loader can verify it is
// assembling exactly the files one save produced — and a reloader can tell
// which shards actually changed.
type ShardManifest struct {
	Version      int          `json:"version"`
	Partition    string       `json:"partition"`
	Stride       int          `json:"stride"`
	TotalNodes   int          `json:"total_nodes"`
	TotalEdges   int          `json:"total_edges"`
	MetaFile     string       `json:"meta_file"`
	MetaChecksum uint32       `json:"meta_checksum"`
	Shards       []ShardEntry `json:"shards"`
}

// NumShards returns the partition's shard count.
func (m *ShardManifest) NumShards() int { return len(m.Shards) }

// SameShape reports whether two manifests describe the same partition
// (count, stride, node total) of the same serving metadata — the
// precondition for keeping served shards across a reload.
func (m *ShardManifest) SameShape(o *ShardManifest) bool {
	return m.NumShards() == o.NumShards() && m.Stride == o.Stride &&
		m.TotalNodes == o.TotalNodes && m.MetaChecksum == o.MetaChecksum
}

// ShardLoadError attributes a sharded-load failure to one file, so callers
// (the serving layer's per-shard failure counts) can act on the shard
// that failed instead of the directory as a whole.
type ShardLoadError struct {
	Index int
	File  string
	Err   error
}

func (e *ShardLoadError) Error() string {
	return fmt.Sprintf("shard %d (%s): %v", e.Index, e.File, e.Err)
}

func (e *ShardLoadError) Unwrap() error { return e.Err }

// shardFileName is the canonical name of shard i.
func shardFileName(i int) string { return fmt.Sprintf("shard-%04d.fz", i) }

// Commit writes frozen shards and the serving metadata served with them
// as a new generation of the store at root (creating the store, and its
// catalog, if root is new). The shard files are written in parallel into a
// temp generation directory; the catalog update is the single commit point,
// so a crashed commit leaves only debris the next open sweeps away. The
// commit drops the generations past the newest retain (<= 0 means
// DefaultRetain) that no live process holds, so a generation a reader
// serves stays. It returns the manifest and the committed generation.
func Commit(root string, shards []*core.FrozenNet, meta *ServingMeta, retain int) (*ShardManifest, Gen, error) {
	store, err := Open(root, Options{Retain: retain})
	if err != nil {
		return nil, Gen{}, fmt.Errorf("snapstore: save shards: %w", err)
	}
	tx, err := store.Begin()
	if err != nil {
		return nil, Gen{}, fmt.Errorf("snapstore: save shards: %w", err)
	}
	defer tx.Abort()
	man, err := writeShardDir(tx.Dir(), shards, meta)
	if err != nil {
		return nil, Gen{}, err
	}
	gen, err := tx.Commit(ShardManifestName)
	if err != nil {
		return nil, Gen{}, fmt.Errorf("snapstore: save shards: %w", err)
	}
	return man, gen, nil
}

// writeShardDir persists already-frozen shards plus the serving metadata
// into one generation directory.
func writeShardDir(dir string, shards []*core.FrozenNet, meta *ServingMeta) (*ShardManifest, error) {
	man := &ShardManifest{
		Version:    shardManifestVersion,
		Partition:  shardPartitionRange,
		Stride:     core.ShardStride(shards[0].TotalNodes(), len(shards)),
		TotalNodes: shards[0].TotalNodes(),
		MetaFile:   shardMetaName,
		Shards:     make([]ShardEntry, len(shards)),
	}
	errs := make([]error, len(shards))
	par.For(0, len(shards), func(i int) {
		sh := shards[i]
		name := shardFileName(i)
		var sum uint32
		err := WriteFileAtomic(dir, name, func(w io.Writer) error {
			var err error
			sum, err = sh.SaveSum(w)
			return err
		})
		if err != nil {
			errs[i] = &ShardLoadError{Index: i, File: name, Err: err}
			return
		}
		man.Shards[i] = ShardEntry{
			File:     name,
			Checksum: sum,
			Base:     int(sh.Base()),
			Nodes:    sh.NumNodes(),
			Edges:    sh.NumEdges(),
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("snapstore: save shards: %w", err)
		}
	}
	for i := range man.Shards {
		man.TotalEdges += man.Shards[i].Edges
	}

	body, err := meta.encode()
	if err != nil {
		return nil, fmt.Errorf("snapstore: save shards: meta: %w", err)
	}
	man.MetaChecksum = crc32.ChecksumIEEE(body)
	if err := writeMeta(dir, shardMetaName, body); err != nil {
		return nil, fmt.Errorf("snapstore: save shards: meta: %w", err)
	}

	err = WriteFileAtomic(dir, ShardManifestName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
	if err != nil {
		return nil, fmt.Errorf("snapstore: save shards: manifest: %w", err)
	}
	return man, nil
}

// ReadManifest reads and structurally validates a shard directory's
// manifest. It does not open the shard files.
func ReadManifest(dir string) (*ShardManifest, error) {
	f, err := faultfs.Open(filepath.Join(dir, ShardManifestName))
	if err != nil {
		return nil, fmt.Errorf("snapstore: read manifest: %w", err)
	}
	defer f.Close()
	return decodeManifest(f)
}

// decodeManifest decodes a manifest and validates its structure: the
// partition geometry, the edge totals, and the file names. Every file it
// names is a distinct bare name inside the generation directory other
// than the manifest itself, so nothing that reads, verifies, quarantines
// or repairs a manifest's files can reach outside its generation.
func decodeManifest(r io.Reader) (*ShardManifest, error) {
	var man ShardManifest
	if err := json.NewDecoder(r).Decode(&man); err != nil {
		return nil, fmt.Errorf("snapstore: read manifest: %w", err)
	}
	if man.Version != shardManifestVersion {
		return nil, fmt.Errorf("snapstore: read manifest: unsupported version %d", man.Version)
	}
	if man.Partition != shardPartitionRange {
		return nil, fmt.Errorf("snapstore: read manifest: unsupported partition %q", man.Partition)
	}
	if len(man.Shards) == 0 {
		return nil, errors.New("snapstore: read manifest: no shards")
	}
	if man.TotalNodes < 0 || man.Stride != core.ShardStride(man.TotalNodes, len(man.Shards)) {
		return nil, fmt.Errorf("snapstore: read manifest: stride %d does not fit %d nodes over %d shards",
			man.Stride, man.TotalNodes, len(man.Shards))
	}
	edges := 0
	for i := range man.Shards {
		e := &man.Shards[i]
		wantBase := min(i*man.Stride, man.TotalNodes)
		wantNodes := min(wantBase+man.Stride, man.TotalNodes) - wantBase
		if e.Base != wantBase || e.Nodes != wantNodes {
			return nil, fmt.Errorf("snapstore: read manifest: shard %d covers [%d,%d), want [%d,%d)",
				i, e.Base, e.Base+e.Nodes, wantBase, wantBase+wantNodes)
		}
		if e.Edges < 0 {
			return nil, fmt.Errorf("snapstore: read manifest: shard %d has negative edge count", i)
		}
		edges += e.Edges
	}
	if edges != man.TotalEdges {
		return nil, fmt.Errorf("snapstore: read manifest: shard edges sum to %d, manifest claims %d",
			edges, man.TotalEdges)
	}
	names := make(map[string]bool, len(man.Shards)+1)
	for _, c := range man.FileChecks() {
		if !isGenFileName(c.Name) {
			return nil, fmt.Errorf("snapstore: read manifest: invalid file name %q", c.Name)
		}
		if names[c.Name] {
			return nil, fmt.Errorf("snapstore: read manifest: file %q is named twice", c.Name)
		}
		names[c.Name] = true
	}
	return &man, nil
}

// isGenFileName reports whether name may be one of a manifest's files: a
// bare name of a file inside the generation directory, other than the
// manifest.
func isGenFileName(name string) bool {
	return name != "" && name != "." && name != ".." && name == filepath.Base(name) && name != ShardManifestName
}

// LoadShard loads shard i of a manifest from dir and verifies it is exactly
// the file the manifest describes: matching checksum, ID range, and totals.
// Failures are *ShardLoadError so callers can attribute them.
func LoadShard(dir string, man *ShardManifest, i int) (*core.FrozenNet, error) {
	if i < 0 || i >= len(man.Shards) {
		return nil, fmt.Errorf("snapstore: load shard: index %d out of range (%d shards)", i, len(man.Shards))
	}
	entry := &man.Shards[i]
	fail := func(err error) (*core.FrozenNet, error) {
		return nil, &ShardLoadError{Index: i, File: entry.File, Err: err}
	}
	f, err := faultfs.Open(filepath.Join(dir, entry.File))
	if err != nil {
		return fail(err)
	}
	defer f.Close()
	// LoadFrozen decodes field by field; the buffer turns that into a few
	// large reads.
	sh, err := core.LoadFrozen(bufio.NewReaderSize(f, 64<<10))
	if err != nil {
		return fail(err)
	}
	if sh.Checksum() != entry.Checksum {
		return fail(fmt.Errorf("checksum %08x does not match manifest %08x", sh.Checksum(), entry.Checksum))
	}
	if int(sh.Base()) != entry.Base || sh.NumNodes() != entry.Nodes || sh.NumEdges() != entry.Edges {
		return fail(fmt.Errorf("shard covers [%d,%d) with %d edges, manifest says [%d,%d) with %d",
			sh.Base(), int(sh.Base())+sh.NumNodes(), sh.NumEdges(), entry.Base, entry.Base+entry.Nodes, entry.Edges))
	}
	if sh.TotalNodes() != man.TotalNodes {
		return fail(fmt.Errorf("shard declares total %d, manifest says %d", sh.TotalNodes(), man.TotalNodes))
	}
	return sh, nil
}

// LoadGen loads the generation in dir, whose manifest is man: its shards
// and its serving metadata. served and servedMeta, loaded under servedMan
// (all nil for none), are what serving holds; LoadGen keeps of them the
// item table when the meta checksum and node total match (across a
// shard-count change too) and, in a partition of the same shape, every
// shard whose checksum matches except shard force (-1 forces none). It
// reads and verifies the rest in parallel, each against its manifest
// entry, and checks once that the partition holds every item on an item
// node. read counts the shard files read; at 0 the result is the served
// partition and table, checked when they were loaded. A per-file failure
// is a *ShardLoadError (the first failing shard).
func LoadGen(dir string, man *ShardManifest, served []*core.FrozenNet, servedMeta *ServingMeta, servedMan *ShardManifest, force int) (shards []*core.FrozenNet, meta *ServingMeta, read int, err error) {
	keepMeta := servedMan != nil && servedMan.MetaChecksum == man.MetaChecksum && servedMan.TotalNodes == man.TotalNodes
	if keepMeta {
		meta = servedMeta
	} else if meta, err = loadShardMeta(dir, man); err != nil {
		return nil, nil, 0, err
	}
	keepShards := servedMan != nil && servedMan.SameShape(man)
	shards = make([]*core.FrozenNet, man.NumShards())
	var todo []int
	for i := range shards {
		if keepShards && i != force && man.Shards[i].Checksum == servedMan.Shards[i].Checksum {
			shards[i] = served[i]
		} else {
			todo = append(todo, i)
		}
	}
	if len(todo) == 0 {
		return shards, meta, 0, nil
	}
	errs := make([]error, len(todo))
	par.For(0, len(todo), func(j int) {
		shards[todo[j]], errs[j] = LoadShard(dir, man, todo[j])
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, 0, fmt.Errorf("snapstore: load shards: %w", err)
		}
	}
	// Every shard now matches its manifest entry, whose layout the manifest
	// decoder checked, so the partition assembles; only now is the node
	// total verified: the item kinds are checked, and a fresh table's node
	// index sized, against shards that delivered that many nodes.
	if err := meta.CheckItemKinds(shards); err != nil {
		return nil, nil, 0, fmt.Errorf("snapstore: load shards: %w", err)
	}
	if !keepMeta {
		meta.IndexNodes(man.TotalNodes)
	}
	return shards, meta, len(todo), nil
}
