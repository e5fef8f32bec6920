package pipeline

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/par"
	"alicoco/internal/snapstore"
	"alicoco/internal/world"
)

// Snapshot persistence: a snapshot is one generation of a snapstore
// catalog, and a generation directory holds N independently written,
// independently reloadable shard files plus the shared serving metadata,
// tied together by a manifest:
//
//	manifest.json   shard count, partition spec, per-file checksums (commit point)
//	meta.bin        gob snapshotExtras ("ACSM" magic + version + CRC-32 trailer)
//	shard-0000.fz … frozen-format v2 shard files (see core/persist_frozen.go)
//
// The files are written into the store's temp generation directory and the
// catalog update commits it — a crashed save never leaves a generation that
// parses as complete. Reloading one shard means re-reading the manifest,
// loading only the files whose checksums changed, and reassembling the
// ShardSet around the untouched in-memory shards.

const (
	// ShardManifestName is the manifest's file name inside a shard
	// directory; its rename is the save's commit point.
	ShardManifestName = "manifest.json"
	// shardMetaName holds the gob serving metadata shared by all shards.
	shardMetaName = "meta.bin"

	shardManifestVersion = 1
	shardPartitionRange  = "range"
)

var shardMetaMagic = [4]byte{'A', 'C', 'S', 'M'}

const shardMetaVersion = 1

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

// shardMetaWire is the deterministic gob wire form of snapshotExtras used
// by the meta file. Encoding the extras' maps directly would make gob emit
// different bytes for identical content (Go map iteration order), and
// MetaChecksum must be a pure content hash: ReloadShards treats a changed
// MetaChecksum as a shape change and falls back to a full reload, so a
// nondeterministic encoding would defeat per-shard diffing on every
// re-save.
type shardMetaWire struct {
	PrimNode  []nodePair
	FrameNode []nodePair
	ItemNode  []nodePair
	DomainCls []domainPair
	Serving   ServingMeta
}

// Gob numbers wire types process-wide in the order it first meets them and
// writes those numbers into the stream, so meta.bin's bytes would depend on
// what else the process had gob-encoded before.
// Meeting shardMetaWire first, at init, gives it the same numbers in every
// process, which keeps MetaChecksum a function of content alone.
func init() {
	if err := gob.NewEncoder(io.Discard).Encode(shardMetaWire{}); err != nil {
		panic(err)
	}
}

type nodePair struct {
	Key  int
	Node core.NodeID
}

type domainPair struct {
	Domain world.Domain
	Node   core.NodeID
}

func sortedPairs(m map[int]core.NodeID) []nodePair {
	ps := make([]nodePair, 0, len(m))
	for k, v := range m {
		ps = append(ps, nodePair{Key: k, Node: v})
	}
	slices.SortFunc(ps, func(a, b nodePair) int { return cmp.Compare(a.Key, b.Key) })
	return ps
}

func pairsMap(ps []nodePair) map[int]core.NodeID {
	m := make(map[int]core.NodeID, len(ps))
	for _, p := range ps {
		m[p.Key] = p.Node
	}
	return m
}

// wire converts the extras to their canonical (sorted) encodable form.
func (e *snapshotExtras) wire() shardMetaWire {
	w := shardMetaWire{
		PrimNode:  sortedPairs(e.PrimNode),
		FrameNode: sortedPairs(e.FrameNode),
		ItemNode:  sortedPairs(e.ItemNode),
		Serving:   e.Serving,
	}
	for d, id := range e.DomainCls {
		w.DomainCls = append(w.DomainCls, domainPair{Domain: d, Node: id})
	}
	slices.SortFunc(w.DomainCls, func(a, b domainPair) int { return cmp.Compare(a.Domain, b.Domain) })
	return w
}

// extras converts the wire form back to the map-based in-memory form.
func (w *shardMetaWire) extras() snapshotExtras {
	e := snapshotExtras{
		PrimNode:  pairsMap(w.PrimNode),
		FrameNode: pairsMap(w.FrameNode),
		ItemNode:  pairsMap(w.ItemNode),
		DomainCls: make(map[world.Domain]core.NodeID, len(w.DomainCls)),
		Serving:   w.Serving,
	}
	for _, p := range w.DomainCls {
		e.DomainCls[p.Domain] = p.Node
	}
	return e
}

// writeFileAtomic writes bytes produced by emit to a temp file in dir and
// renames it to name, with snapstore's full durability discipline (fsync
// file, checked close, rename, fsync parent dir) — a crash mid-write never
// leaves a half-written file under the real name, and a power loss right
// after the rename cannot lose the contents either.
func writeFileAtomic(dir, name string, emit func(w io.Writer) error) error {
	return snapstore.WriteFileAtomic(dir, name, emit)
}

// SaveShards partitions the live net into count shards and commits them as
// a new generation in the snapshot store at dir (creating the store, and
// its catalog, if dir is new). The shard
// files are frozen and written in parallel into a temp generation
// directory; the catalog update is the single commit point, so a crashed
// save leaves only debris the next open sweeps away. Retention defaults to
// snapstore.DefaultRetain; use SaveShardsRetain to choose. Requires a live
// Net — a serving-only Artifacts has nothing to partition.
func (a *Artifacts) SaveShards(dir string, count int) (*ShardManifest, error) {
	man, _, err := a.SaveShardsRetain(dir, count, 0)
	return man, err
}

// SaveShardsRetain is SaveShards with an explicit retention count
// (<= 0 means snapstore.DefaultRetain); it also returns the committed
// generation.
func (a *Artifacts) SaveShardsRetain(dir string, count, retain int) (*ShardManifest, snapstore.Gen, error) {
	if a.Net == nil {
		return nil, snapstore.Gen{}, errors.New("pipeline: save shards: no live net (serving-only artifacts)")
	}
	if a.Serving == nil {
		return nil, snapstore.Gen{}, errors.New("pipeline: save shards: no serving metadata")
	}
	if count < 1 {
		count = 1
	}
	store, err := snapstore.Open(dir, snapstore.Options{Retain: retain})
	if err != nil {
		return nil, snapstore.Gen{}, fmt.Errorf("pipeline: save shards: %w", err)
	}
	tx, err := store.Begin()
	if err != nil {
		return nil, snapstore.Gen{}, fmt.Errorf("pipeline: save shards: %w", err)
	}
	defer tx.Abort()
	shards := a.Net.FreezeShards(count)
	man, err := writeShardDir(tx.Dir(), shards, a.servingExtras())
	if err != nil {
		return nil, snapstore.Gen{}, err
	}
	gen, err := tx.Commit(ShardManifestName, nil)
	if err != nil {
		return nil, snapstore.Gen{}, fmt.Errorf("pipeline: save shards: %w", err)
	}
	return man, gen, nil
}

// writeShardDir persists already-frozen shards plus the serving extras into
// one generation directory.
func writeShardDir(dir string, shards []*core.FrozenNet, extras snapshotExtras) (*ShardManifest, error) {
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
		err := writeFileAtomic(dir, name, func(w io.Writer) error {
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
			return nil, fmt.Errorf("pipeline: save shards: %w", err)
		}
	}
	for i := range man.Shards {
		man.TotalEdges += man.Shards[i].Edges
	}

	var metaBody bytes.Buffer
	metaWire := extras.wire()
	if err := gob.NewEncoder(&metaBody).Encode(&metaWire); err != nil {
		return nil, fmt.Errorf("pipeline: save shards: meta: %w", err)
	}
	metaSum := crc32.ChecksumIEEE(metaBody.Bytes())
	man.MetaChecksum = metaSum
	err := writeFileAtomic(dir, shardMetaName, func(w io.Writer) error {
		if _, err := w.Write(shardMetaMagic[:]); err != nil {
			return err
		}
		if _, err := w.Write([]byte{shardMetaVersion}); err != nil {
			return err
		}
		if _, err := w.Write(metaBody.Bytes()); err != nil {
			return err
		}
		var crc [4]byte
		crc[0], crc[1], crc[2], crc[3] = byte(metaSum), byte(metaSum>>8), byte(metaSum>>16), byte(metaSum>>24)
		_, err := w.Write(crc[:])
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: save shards: meta: %w", err)
	}

	err = writeFileAtomic(dir, ShardManifestName, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(man)
	})
	if err != nil {
		return nil, fmt.Errorf("pipeline: save shards: manifest: %w", err)
	}
	return man, nil
}

// ReadManifest reads and structurally validates a shard directory's
// manifest. It does not open the shard files.
func ReadManifest(dir string) (*ShardManifest, error) {
	f, err := faultfs.Open(filepath.Join(dir, ShardManifestName))
	if err != nil {
		return nil, fmt.Errorf("pipeline: read manifest: %w", err)
	}
	defer f.Close()
	var man ShardManifest
	if err := json.NewDecoder(f).Decode(&man); err != nil {
		return nil, fmt.Errorf("pipeline: read manifest: %w", err)
	}
	if man.Version != shardManifestVersion {
		return nil, fmt.Errorf("pipeline: read manifest: unsupported version %d", man.Version)
	}
	if man.Partition != shardPartitionRange {
		return nil, fmt.Errorf("pipeline: read manifest: unsupported partition %q", man.Partition)
	}
	if len(man.Shards) == 0 {
		return nil, errors.New("pipeline: read manifest: no shards")
	}
	if man.TotalNodes < 0 || man.Stride != core.ShardStride(man.TotalNodes, len(man.Shards)) {
		return nil, fmt.Errorf("pipeline: read manifest: stride %d does not fit %d nodes over %d shards",
			man.Stride, man.TotalNodes, len(man.Shards))
	}
	edges := 0
	for i := range man.Shards {
		e := &man.Shards[i]
		wantBase := min(i*man.Stride, man.TotalNodes)
		wantNodes := min(wantBase+man.Stride, man.TotalNodes) - wantBase
		if e.Base != wantBase || e.Nodes != wantNodes {
			return nil, fmt.Errorf("pipeline: read manifest: shard %d covers [%d,%d), want [%d,%d)",
				i, e.Base, e.Base+e.Nodes, wantBase, wantBase+wantNodes)
		}
		if e.File == "" || e.File != filepath.Base(e.File) {
			return nil, fmt.Errorf("pipeline: read manifest: shard %d has invalid file name %q", i, e.File)
		}
		if e.Edges < 0 {
			return nil, fmt.Errorf("pipeline: read manifest: shard %d has negative edge count", i)
		}
		edges += e.Edges
	}
	if edges != man.TotalEdges {
		return nil, fmt.Errorf("pipeline: read manifest: shard edges sum to %d, manifest claims %d",
			edges, man.TotalEdges)
	}
	return &man, nil
}

// LoadShard loads shard i of a manifest from dir and verifies it is exactly
// the file the manifest describes: matching checksum, ID range, and totals.
// Failures are *ShardLoadError so callers can attribute them.
func LoadShard(dir string, man *ShardManifest, i int) (*core.FrozenNet, error) {
	if i < 0 || i >= len(man.Shards) {
		return nil, fmt.Errorf("pipeline: load shard: index %d out of range (%d shards)", i, len(man.Shards))
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

// loadShardMeta reads and validates the gob serving-metadata file.
func loadShardMeta(dir string, man *ShardManifest) (*snapshotExtras, error) {
	f, err := faultfs.Open(filepath.Join(dir, man.MetaFile))
	if err != nil {
		return nil, fmt.Errorf("pipeline: load shard meta: %w", err)
	}
	defer f.Close()
	raw, err := io.ReadAll(f)
	if err != nil {
		return nil, fmt.Errorf("pipeline: load shard meta: %w", err)
	}
	if len(raw) < 9 {
		return nil, errors.New("pipeline: load shard meta: file too short")
	}
	if [4]byte{raw[0], raw[1], raw[2], raw[3]} != shardMetaMagic {
		return nil, fmt.Errorf("pipeline: load shard meta: bad magic %q", raw[:4])
	}
	if raw[4] != shardMetaVersion {
		return nil, fmt.Errorf("pipeline: load shard meta: unsupported version %d", raw[4])
	}
	body, crc := raw[5:len(raw)-4], raw[len(raw)-4:]
	stored := uint32(crc[0]) | uint32(crc[1])<<8 | uint32(crc[2])<<16 | uint32(crc[3])<<24
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("pipeline: load shard meta: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	if stored != man.MetaChecksum {
		return nil, fmt.Errorf("pipeline: load shard meta: checksum %08x does not match manifest %08x", stored, man.MetaChecksum)
	}
	var wire shardMetaWire
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&wire); err != nil {
		return nil, fmt.Errorf("pipeline: load shard meta: %w", err)
	}
	extras := wire.extras()
	if err := extras.validate(man.TotalNodes); err != nil {
		return nil, fmt.Errorf("pipeline: load shard meta: %w", err)
	}
	return &extras, nil
}

// LoadShards loads one committed generation: the manifest, the serving
// metadata, and all shard files (in parallel), verified against the
// manifest's checksums. dir is the generation's directory; a store root
// resolves to its newest one through snapstore.ResolveDir. It returns a
// serving-only Artifacts — Shards holds the loaded partition and Net,
// World and Frozen are nil. Per-file failures come back as
// *ShardLoadError (the first failing shard).
func LoadShards(dir string) (*Artifacts, *ShardManifest, error) {
	man, err := ReadManifest(dir)
	if err != nil {
		return nil, nil, err
	}
	extras, err := loadShardMeta(dir, man)
	if err != nil {
		return nil, nil, err
	}
	shards := make([]*core.FrozenNet, len(man.Shards))
	errs := make([]error, len(man.Shards))
	par.For(0, len(man.Shards), func(i int) {
		shards[i], errs[i] = LoadShard(dir, man, i)
	})
	for _, err := range errs {
		if err != nil {
			return nil, nil, fmt.Errorf("pipeline: load shards: %w", err)
		}
	}
	// NewShardSet re-validates geometry; run it here so a bad assembly is
	// caught at load time, not first request.
	if _, err := core.NewShardSet(shards); err != nil {
		return nil, nil, fmt.Errorf("pipeline: load shards: %w", err)
	}
	return &Artifacts{
		Shards:    shards,
		PrimNode:  extras.PrimNode,
		FrameNode: extras.FrameNode,
		ItemNode:  extras.ItemNode,
		DomainCls: extras.DomainCls,
		Serving:   &extras.Serving,
	}, man, nil
}
