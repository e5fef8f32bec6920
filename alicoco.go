// Package alicoco is the public API of the AliCoCo reproduction: build (or
// load) the e-commerce cognitive concept net, inspect it, and run the two
// flagship applications — semantic search with concept cards and cognitive
// recommendation (Luo et al., SIGMOD 2020).
//
// Quick start:
//
//	coco, err := alicoco.Build(alicoco.Small())
//	res := coco.Search("outdoor barbecue", 10)
//	fmt.Println(res.Cards[0].Name, res.Cards[0].Items)
package alicoco

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/core"
	"alicoco/internal/inference"
	"alicoco/internal/par"
	"alicoco/internal/pipeline"
	"alicoco/internal/qcache"
	"alicoco/internal/snapstore"
	"alicoco/internal/world"
)

// DefaultQueryCacheCapacity is the per-cache entry budget (one cache for
// search, one for recommendation) a Build- or LoadShardedFrozen-constructed CoCo
// starts with; SetQueryCacheCapacity adjusts it at runtime.
const DefaultQueryCacheCapacity = 4096

// Options sizes the net construction. Use Small or Default and tweak.
type Options struct {
	// Seed makes the whole build deterministic.
	Seed int64
	// ItemsPerCategory controls the item layer size.
	ItemsPerCategory int
	// Scenarios controls how many shopping scenarios beyond the
	// handcrafted set are generated.
	Scenarios int
	// CorpusSentences controls the synthetic corpus size per source.
	CorpusSentences int
}

// Small returns a fast, test-sized configuration.
func Small() Options {
	return Options{Seed: 7, ItemsPerCategory: 3, Scenarios: 20, CorpusSentences: 300}
}

// Default returns the laptop-scale configuration used by the experiment
// harness.
func Default() Options {
	return Options{Seed: 42, ItemsPerCategory: 12, Scenarios: 120, CorpusSentences: 2000}
}

// CoCo is a built (or snapshot-loaded) concept net plus its application
// engines.
//
// All query methods read one servingState loaded atomically, so they are
// safe to call concurrently with InferImplicitRelations, Refreeze, and
// ReloadShards (each publishes a fresh snapshot by swapping the pointer,
// never by mutating one in place).
type CoCo struct {
	arts       atomic.Pointer[pipeline.Artifacts]
	offline    sync.Mutex // serializes offline mutation + republish cycles
	serving    atomic.Pointer[servingState]
	generation atomic.Uint64 // counts published serving snapshots

	// shardCount is the partition size live refreezes maintain: a CoCo
	// built with BuildSharded re-partitions into the same number of shards
	// on every refreeze (inference, Refreeze). 0 or 1 means one shard.
	// Written only at construction, before the CoCo escapes.
	shardCount int

	// The query caches outlive individual serving snapshots: every entry
	// is stamped with the generation (and checksum) of the snapshot it was
	// computed from, so publishing a new snapshot — reload, refreeze,
	// inference — invalidates the whole cache for free (stale generations
	// simply stop matching). One cache per engine keeps the /stats
	// counters attributable.
	searchCache *qcache.Cache
	recCache    *qcache.Cache
}

// newCoCo returns an empty facade with its query caches allocated.
func newCoCo() *CoCo {
	return &CoCo{
		searchCache: qcache.New(DefaultQueryCacheCapacity),
		recCache:    qcache.New(DefaultQueryCacheCapacity),
	}
}

// servingReader is the store surface a serving state queries: the full
// Reader plus snapshot statistics. Both the single frozen net and the
// sharded set satisfy it.
type servingReader interface {
	core.Reader
	ComputeStats() core.Stats
}

// servingState bundles a frozen store with the engines and item index
// built on it, so everything a query touches swaps together atomically. A
// request loads the pointer once and keeps it for its whole lifetime —
// that per-request pinning is what makes a concurrent reload (of the whole
// net or of a single shard) invisible mid-request: the old state, with all
// its shard pointers, stays reachable until the last pinned request
// finishes.
type servingState struct {
	reader servingReader

	// shards is the partition being served. reader is the scatter-gather
	// set for N>1; for N=1 it is the sole shard, so one shard stays on the
	// unsharded fast path.
	shards *core.ShardSet

	// Snapshot bookkeeping: the store root the partition was loaded from,
	// the generation directory under it, the committed generation served
	// (what RollbackTo and the scrubber anchor on) and the manifest the
	// shards were verified against — all zero for in-process freezes —
	// plus per-shard serving metadata.
	shardDir   string
	shardRoot  string
	catalogGen uint64
	manifest   *pipeline.ShardManifest
	shardInfo  []ShardServingInfo

	search     *search.Engine
	rec        *recommend.Engine
	items      []Item               // world order, for deterministic listings
	itemByNode map[core.NodeID]Item // net node -> facade item
	itemNode   map[int]core.NodeID  // world item ID -> net node
	stamp      qcache.Stamp         // cache stamp of this snapshot (see stamps below)
	info       ServingInfo
}

// ShardServingInfo is the per-shard slice of ServingInfo: which file
// content the shard serves and since when. Generation/PublishedAt are
// carried over across republishes that reuse the shard's in-memory
// pointer, so they describe when this shard's content last changed — not
// when the set around it was reassembled.
type ShardServingInfo struct {
	Index       int       // shard position in the partition
	Checksum    string    // CRC-32 (hex) of the shard file; "" for in-process freezes
	Generation  uint64    // facade generation at which this shard's content was published
	PublishedAt time.Time // when this shard's content went live
	Nodes       int
	Edges       int
}

// ServingInfo identifies the snapshot queries are currently served from:
// where it came from, how many times serving has been republished, the
// content checksum of the generation (when loaded from disk), and when it
// went live — the operational metadata a fleet needs to tell which net version
// each replica is answering with.
type ServingInfo struct {
	Source      string    // "build", "shards", "refreeze", or "rollback"
	Generation  uint64    // increments with every published serving state
	Checksum    string    // CRC-32 (hex) of the loaded snapshot content; "" for in-process freezes
	PublishedAt time.Time // when this serving state was swapped in
	Nodes       int
	Edges       int
	Shards      int    // partition size
	CatalogGen  uint64 // snapshot-store generation being served; 0 when not catalog-backed
}

// ServingInfo describes the currently published serving snapshot.
func (c *CoCo) ServingInfo() ServingInfo { return c.serving.Load().info }

// Build constructs the net end-to-end from a synthetic corpus.
func Build(opts Options) (*CoCo, error) {
	popts := pipeline.DefaultOptions()
	popts.World.Seed = opts.Seed
	popts.World.ItemsPerLeaf = opts.ItemsPerCategory
	popts.World.GeneratedFrames = opts.Scenarios
	popts.Queries = opts.CorpusSentences
	popts.Reviews = opts.CorpusSentences
	popts.Guides = opts.CorpusSentences
	arts, err := pipeline.Build(popts)
	if err != nil {
		return nil, err
	}
	// Serving always runs on the frozen snapshot: lock-free, zero-alloc
	// reads, postings pre-sorted at freeze time.
	arts.Shards = []*core.FrozenNet{arts.Frozen}
	c := newCoCo()
	c.arts.Store(arts)
	return c, c.publishShards(arts, "build", shardLoc{}, nil)
}

// Refreeze republishes the live net's current state to the serving engines,
// preserving the configured partition (a BuildSharded CoCo re-freezes all
// shards). It errors on a snapshot-loaded CoCo, which has no live net.
func (c *CoCo) Refreeze() error {
	c.offline.Lock()
	defer c.offline.Unlock()
	if c.arts.Load().Net == nil {
		return errors.New("alicoco: refreeze: snapshot-loaded net has no live store")
	}
	return c.refreeze()
}

// BuildSharded is Build with the frozen store partitioned into shards:
// point lookups route to the owning shard, traversals and search
// scatter-gather across the set, and each shard can be re-frozen and
// reloaded independently. Every subsequent refreeze (inference, Refreeze)
// maintains the same partition. shards <= 1 behaves exactly like Build.
func BuildSharded(opts Options, shards int) (*CoCo, error) {
	c, err := Build(opts)
	if err != nil || shards <= 1 {
		return c, err
	}
	c.shardCount = shards
	arts := c.arts.Load()
	arts.Shards = arts.Net.FreezeShards(shards)
	arts.Frozen = nil // the partition is now the serving truth; see SaveShards
	return c, c.publishShards(arts, "build", shardLoc{}, nil)
}

// NumShards reports the partition size of the published serving state.
func (c *CoCo) NumShards() int { return c.serving.Load().info.Shards }

// ShardInfos describes each shard of the published serving partition. The
// slice is a copy.
func (c *CoCo) ShardInfos() []ShardServingInfo {
	return append([]ShardServingInfo(nil), c.serving.Load().shardInfo...)
}

// SaveShards partitions the live net into count shards and commits them as
// a new generation in the snapshot store at dir — per-shard files plus a
// checksummed manifest in a gen-%06d directory, named by the store's
// catalog — that LoadShardedFrozen and ReloadShards restore. Shards are
// frozen and written in parallel into a temp generation directory; the
// atomic catalog update is the single commit point, so a crashed save
// leaves only debris the next open sweeps away. It errors on a
// snapshot-loaded CoCo (no live net to partition).
func (c *CoCo) SaveShards(dir string, count int) (*pipeline.ShardManifest, error) {
	man, _, err := c.SaveShardsRetain(dir, count, 0)
	return man, err
}

// SaveShardsRetain is SaveShards with an explicit retention count — how
// many committed generations the store keeps as the rollback window
// (<= 0 means snapstore.DefaultRetain). It also returns the committed
// generation.
func (c *CoCo) SaveShardsRetain(dir string, count, retain int) (*pipeline.ShardManifest, snapstore.Gen, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	return c.arts.Load().SaveShardsRetain(dir, count, retain)
}

// LoadShardedFrozen builds a CoCo from the newest committed generation of
// the snapshot store at dir (written by SaveShards), skipping world and
// corpus generation, net construction and freezing. Anything other than a
// store root is an error. Shards load and verify in parallel; the CoCo
// serves every query path, while the offline paths that need the live net
// or the world (InferImplicitRelations, SampleSessions, Glosses) report
// that they are unavailable.
func LoadShardedFrozen(dir string) (*CoCo, error) {
	loc, err := resolveShardDir(dir)
	if err != nil {
		return nil, err
	}
	arts, man, err := pipeline.LoadShards(loc.dir)
	if err != nil {
		return nil, err
	}
	c := newCoCo()
	c.arts.Store(arts)
	if err := c.publishShards(arts, "shards", loc, man); err != nil {
		return nil, err
	}
	return c, nil
}

// shardLoc names where a snapshot lives: the generation directory holding
// its files, the store root, and the committed generation ID.
type shardLoc struct {
	dir  string
	root string
	gen  uint64
}

// resolveShardDir maps a store root to its newest committed generation.
func resolveShardDir(dir string) (shardLoc, error) {
	resolved, gen, err := snapstore.ResolveDir(dir)
	if err != nil {
		return shardLoc{}, err
	}
	return shardLoc{dir: resolved, root: dir, gen: gen}, nil
}

// ReloadShards re-reads the newest generation of the snapshot store at dir
// and hot-swaps the changed parts into serving. It diffs that generation's
// manifest against the partition currently served: shards whose checksums
// match keep their in-memory form (and, via the content stamp, their cache
// entries); only changed shards are read from disk — so a new catalog
// generation that touched one shard reloads
// one shard, even though it lives in a fresh gen-%06d directory. It
// returns how many shards were (re)loaded — 0 means the snapshot holds
// exactly what is already being served; when it is also the same directory
// nothing is republished at all, and when it is a newer generation with
// identical content only the location bookkeeping is republished (the
// content stamp, and with it every warm cache entry, carries over). A
// partition-shape change (shard count, stride, node total, or serving
// metadata) falls back to a full load. Queries running concurrently keep
// answering from the old partition until the single atomic swap, so no
// request ever sees a mix of generations.
func (c *CoCo) ReloadShards(dir string) (int, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	loc, err := resolveShardDir(dir)
	if err != nil {
		return 0, err
	}
	man, err := pipeline.ReadManifest(loc.dir)
	if err != nil {
		return 0, err
	}
	prev := c.serving.Load()
	if prev.manifest == nil || !sameShape(prev.manifest, man) {
		arts, man, err := pipeline.LoadShards(loc.dir)
		if err != nil {
			return 0, err
		}
		c.arts.Store(arts)
		return man.NumShards(), c.publishShards(arts, "shards", loc, man)
	}
	shards := make([]*core.FrozenNet, man.NumShards())
	changed := 0
	for i := range shards {
		if man.Shards[i].Checksum == prev.manifest.Shards[i].Checksum {
			shards[i] = prev.shards.Shard(i)
			continue
		}
		sh, err := pipeline.LoadShard(loc.dir, man, i)
		if err != nil {
			return 0, err
		}
		shards[i] = sh
		changed++
	}
	if changed == 0 && prev.shardDir == loc.dir {
		return 0, nil
	}
	arts := *c.arts.Load()
	arts.Shards = shards
	c.arts.Store(&arts)
	return changed, c.publishShards(&arts, "shards", loc, man)
}

// ReloadShard force-reloads one shard from the newest generation of the
// snapshot store at dir, regardless of whether its checksum changed; the
// rest of the partition keeps serving its in-memory shards. The manifest is
// re-read first so the shard is verified against the store's current
// commit point; if the partition shape on disk no longer matches serving,
// the reload is refused (use ReloadShards, which handles shape changes).
func (c *CoCo) ReloadShard(dir string, i int) error {
	c.offline.Lock()
	defer c.offline.Unlock()
	prev := c.serving.Load()
	if prev.manifest == nil {
		return errors.New("alicoco: reload shard: serving is not backed by a snapshot store")
	}
	loc, err := resolveShardDir(dir)
	if err != nil {
		return err
	}
	man, err := pipeline.ReadManifest(loc.dir)
	if err != nil {
		return err
	}
	if i < 0 || i >= man.NumShards() {
		return fmt.Errorf("alicoco: reload shard: index %d out of range [0,%d)", i, man.NumShards())
	}
	if !sameShape(prev.manifest, man) {
		return errors.New("alicoco: reload shard: partition shape on disk changed; use ReloadShards")
	}
	sh, err := pipeline.LoadShard(loc.dir, man, i)
	if err != nil {
		return err
	}
	shards := append([]*core.FrozenNet(nil), prev.shards.Shards()...)
	shards[i] = sh
	// Publish under an *effective* manifest: the served manifest with only
	// entry i replaced. The directory's manifest may already describe newer
	// content for shards this reload did not touch (an operator rolling the
	// partition one shard at a time); recording it verbatim would stamp the
	// query caches with content that is not being served yet and make a
	// later ReloadShards diff believe those shards are already current.
	eff := *prev.manifest
	eff.Shards = append([]pipeline.ShardEntry(nil), prev.manifest.Shards...)
	eff.TotalEdges += man.Shards[i].Edges - eff.Shards[i].Edges
	eff.Shards[i] = man.Shards[i]
	arts := *c.arts.Load()
	arts.Shards = shards
	c.arts.Store(&arts)
	return c.publishShards(&arts, "shards", loc, &eff)
}

// RollbackTo republishes an earlier committed generation of the snapshot
// store serving was loaded from: the named generation (0 means the newest
// committed generation older than the one being served) is fully loaded
// and verified, then swapped in atomically — the recovery path for a
// generation that loads clean but misbehaves once live. It returns the
// generation actually published.
func (c *CoCo) RollbackTo(gen uint64) (snapstore.Gen, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	prev := c.serving.Load()
	if prev.shardRoot == "" {
		return snapstore.Gen{}, errors.New("alicoco: rollback: serving is not backed by a snapshot store")
	}
	store, err := snapstore.Open(prev.shardRoot, snapstore.Options{})
	if err != nil {
		return snapstore.Gen{}, err
	}
	var g snapstore.Gen
	if gen != 0 {
		if g, err = store.Find(gen); err != nil {
			return snapstore.Gen{}, err
		}
	} else {
		gens, err := store.Generations()
		if err != nil {
			return snapstore.Gen{}, err
		}
		for i := len(gens) - 1; i >= 0; i-- {
			if gens[i].ID < prev.catalogGen {
				g = gens[i]
				break
			}
		}
		if g.ID == 0 {
			return snapstore.Gen{}, fmt.Errorf("alicoco: rollback: no committed generation older than %d", prev.catalogGen)
		}
	}
	loc := shardLoc{dir: store.GenDir(g), root: prev.shardRoot, gen: g.ID}
	arts, man, err := pipeline.LoadShards(loc.dir)
	if err != nil {
		return snapstore.Gen{}, err
	}
	c.arts.Store(arts)
	return g, c.publishShards(arts, "rollback", loc, man)
}

// ScrubOnce runs one integrity pass over the generation directory serving
// was loaded from: every file is re-hashed against the on-disk manifest
// (itself verified against the catalog entry), mismatches are quarantined,
// and each quarantined file
// is repaired from the newest clean source — another catalog generation
// with matching content first, the served in-memory shard second. Repair
// touches only the disk copy; serving reads the in-memory shards
// throughout, so traffic keeps answering byte-identically and warm cache
// entries survive. Holding the offline lock serializes the pass with
// saves and reloads.
func (c *CoCo) ScrubOnce() (*snapstore.ScrubReport, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	s := c.serving.Load()
	if s.shardRoot == "" {
		return nil, errors.New("alicoco: scrub: serving is not backed by a snapshot store")
	}
	store, err := snapstore.Open(s.shardRoot, snapstore.Options{})
	if err != nil {
		return nil, err
	}
	opts := pipeline.ScrubOptions{Store: store, InMem: s.shards.Shards(), Gen: s.catalogGen}
	if g, err := store.Find(s.catalogGen); err == nil {
		opts.ManifestChecksum = g.ManifestChecksum
	}
	return pipeline.ScrubShardDir(s.shardDir, opts)
}

func buildItemIndex(meta *pipeline.ServingMeta) ([]Item, map[core.NodeID]Item, map[int]core.NodeID) {
	items := make([]Item, 0, len(meta.Items))
	rev := make(map[core.NodeID]Item, len(meta.Items))
	fwd := make(map[int]core.NodeID, len(meta.Items))
	for _, im := range meta.Items {
		it := Item{ID: im.WorldID, Title: im.Title, Category: im.Category}
		items = append(items, it)
		rev[im.Node] = it
		fwd[im.WorldID] = im.Node
	}
	return items, rev, fwd
}

// shardContentStamp derives the cache stamp of a disk-loaded shard
// partition from the manifest's content checksums (meta plus every shard)
// instead of from the publish counter: republishing the same bytes — a
// no-op ReloadShards, or a reload that pulled one changed shard and kept
// the rest — yields the same stamp, so cache entries computed from
// unchanged content stay live across the swap. Bit 63 of Gen is set so a
// content stamp can never collide with a counter stamp.
func shardContentStamp(man *pipeline.ShardManifest) qcache.Stamp {
	buf := make([]byte, 0, 4*(len(man.Shards)+1))
	put := func(v uint32) {
		buf = append(buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	put(man.MetaChecksum)
	for _, e := range man.Shards {
		put(e.Checksum)
	}
	h := uint64(14695981039346656037) // FNV-1a 64
	for _, b := range buf {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return qcache.Stamp{Gen: h | 1<<63, Sum: crc32.ChecksumIEEE(buf)}
}

// sameShape reports whether two manifests describe the same partition
// (count, stride, node total) of the same serving metadata — the
// precondition for reusing in-memory shards across a reload.
func sameShape(a, b *pipeline.ShardManifest) bool {
	return a.NumShards() == b.NumShards() && a.Stride == b.Stride &&
		a.TotalNodes == b.TotalNodes && a.MetaChecksum == b.MetaChecksum
}

// publishShards swaps in a serving state backed by the shard partition
// arts.Shards — the one publish path for builds, loads, reloads, refreezes
// and rollbacks. For a single-shard partition the engines run directly on
// the sole shard — a whole frozen net — so N=1 stays on the unpartitioned
// fast path; for N>1 they run on the scatter-gather ShardSet. loc and man
// identify the generation the partition was verified against; both are
// zero for in-process freezes. The fresh engines carry the new cache
// stamp, so everything the query caches hold for other content becomes
// unreachable in the same atomic pointer store that publishes the state.
func (c *CoCo) publishShards(arts *pipeline.Artifacts, source string, loc shardLoc, man *pipeline.ShardManifest) error {
	set, err := core.NewShardSet(arts.Shards)
	if err != nil {
		return err
	}
	var reader servingReader = set
	if set.NumShards() == 1 {
		reader = set.Shard(0)
	}
	items, rev, fwd := buildItemIndex(arts.Serving)
	gen := c.generation.Add(1)
	stamp := qcache.Stamp{Gen: gen}
	checksum := ""
	if man != nil {
		stamp = shardContentStamp(man)
		checksum = fmt.Sprintf("%08x", stamp.Sum)
	}
	prev := c.serving.Load()
	now := time.Now()
	shardInfo := make([]ShardServingInfo, set.NumShards())
	for i := range shardInfo {
		sh := set.Shard(i)
		si := ShardServingInfo{
			Index:       i,
			Generation:  gen,
			PublishedAt: now,
			Nodes:       sh.NumNodes(),
			Edges:       sh.NumEdges(),
		}
		if man != nil {
			si.Checksum = fmt.Sprintf("%08x", man.Shards[i].Checksum)
		}
		// A shard whose in-memory pointer survived the republish did not
		// change content; keep its original publication metadata.
		if prev != nil && i < prev.shards.NumShards() && prev.shards.Shard(i) == sh {
			si.Generation = prev.shardInfo[i].Generation
			si.PublishedAt = prev.shardInfo[i].PublishedAt
		}
		shardInfo[i] = si
	}
	se := search.NewEngine(reader, arts.Serving.Stopwords)
	se.UseCache(c.searchCache, stamp)
	re := recommend.NewEngine(reader)
	re.UseCache(c.recCache, stamp)
	c.serving.Store(&servingState{
		reader:     reader,
		shards:     set,
		shardDir:   loc.dir,
		shardRoot:  loc.root,
		catalogGen: loc.gen,
		manifest:   man,
		shardInfo:  shardInfo,
		search:     se,
		rec:        re,
		items:      items,
		itemByNode: rev,
		itemNode:   fwd,
		stamp:      stamp,
		info: ServingInfo{
			Source:      source,
			Generation:  gen,
			Checksum:    checksum,
			PublishedAt: now,
			Nodes:       set.NumNodes(),
			Edges:       set.NumEdges(),
			Shards:      set.NumShards(),
			CatalogGen:  loc.gen,
		},
	})
	return nil
}

// CacheStamp returns the generation+checksum stamp of the published
// serving snapshot — the stamp callers layering their own caches on top
// (e.g. cocoserve's encoded-response cache) must write entries under, so
// a reload invalidates those layers the same way it invalidates the
// built-in query caches.
func (c *CoCo) CacheStamp() qcache.Stamp { return c.serving.Load().stamp }

// QueryCacheStats reports the hit/miss/eviction counters of the two query
// caches.
func (c *CoCo) QueryCacheStats() (searchStats, recommendStats qcache.Stats) {
	return c.searchCache.Stats(), c.recCache.Stats()
}

// SetQueryCacheCapacity resizes both query caches in place (entries each;
// n <= 0 disables result caching). Safe to call while serving.
func (c *CoCo) SetQueryCacheCapacity(n int) {
	c.searchCache.Resize(n)
	c.recCache.Resize(n)
}

// refreeze publishes the live net's current state to the serving engines
// after an offline mutation, re-partitioning into the configured shard
// count (each shard frozen in parallel). Callers hold c.offline.
func (c *CoCo) refreeze() error {
	arts := c.arts.Load()
	if c.shardCount > 1 {
		arts.Shards = arts.Net.FreezeShards(c.shardCount)
	} else {
		arts.Shards = []*core.FrozenNet{arts.Refreeze()}
	}
	return c.publishShards(arts, "refreeze", shardLoc{}, nil)
}

// Stats summarizes the net (the Table 2 shape).
type Stats struct {
	Classes, Primitives, EConcepts, Items int
	Relations                             int
	PrimitivesByDomain                    map[string]int
	IsAPrimitive, IsAEConcept             int
	AvgPrimitivesPerItem                  float64
	AvgEConceptsPerItem                   float64
	AvgItemsPerEConcept                   float64
}

// Stats computes statistics of the published serving snapshot, so its
// counts always describe a state that queries actually served (never a
// half-materialized net mid-inference).
func (c *CoCo) Stats() Stats {
	s := c.serving.Load().reader.ComputeStats()
	return Stats{
		Classes:              s.PerKind["class"],
		Primitives:           s.PerKind["primitive"],
		EConcepts:            s.PerKind["econcept"],
		Items:                s.PerKind["item"],
		Relations:            s.Edges,
		PrimitivesByDomain:   s.PrimitivesByDom,
		IsAPrimitive:         s.IsAPrimitive,
		IsAEConcept:          s.IsAEConcept,
		AvgPrimitivesPerItem: s.AvgPrimitivesPerItem,
		AvgEConceptsPerItem:  s.AvgEConceptsPerItem,
		AvgItemsPerEConcept:  s.AvgItemsPerEConcept,
	}
}

// Render formats the stats as a Table-2-style block.
func (s Stats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "# Primitive concepts   %d\n", s.Primitives)
	fmt.Fprintf(&b, "# E-commerce concepts  %d\n", s.EConcepts)
	fmt.Fprintf(&b, "# Items                %d\n", s.Items)
	fmt.Fprintf(&b, "# Relations            %d\n", s.Relations)
	fmt.Fprintf(&b, "# IsA (primitive)      %d\n", s.IsAPrimitive)
	fmt.Fprintf(&b, "# IsA (e-commerce)     %d\n", s.IsAEConcept)
	fmt.Fprintf(&b, "avg primitives/item    %.1f\n", s.AvgPrimitivesPerItem)
	fmt.Fprintf(&b, "avg e-concepts/item    %.1f\n", s.AvgEConceptsPerItem)
	fmt.Fprintf(&b, "avg items/e-concept    %.1f\n", s.AvgItemsPerEConcept)
	return b.String()
}

// Item is a sellable unit in the net.
type Item struct {
	ID       int
	Title    string
	Category string
}

// Items lists every item.
func (c *CoCo) Items() []Item {
	return append([]Item(nil), c.serving.Load().items...)
}

// ConceptCard is a shopping-scenario card: the concept name and the titles
// of its top associated items (Figure 2 of the paper).
type ConceptCard struct {
	Name  string
	Items []Item
}

// SearchResult is the response to a query.
type SearchResult struct {
	Cards []ConceptCard
	Items []Item
}

// Search answers a free-text query with concept cards and item hits.
func (c *CoCo) Search(query string, maxItems int) SearchResult {
	return c.serving.Load().searchOne(query, maxItems)
}

// batchTokens bounds the total fan-out worker count across all concurrent
// batch calls: each call takes as many tokens as are free (always at least
// its calling goroutine), so one batch alone uses every core while many
// concurrent batches degrade toward one worker each instead of spawning
// GOMAXPROCS goroutines apiece and oversubscribing the scheduler.
var batchTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// batchFor fans fn over [0, n) with an admission-controlled worker count.
func batchFor(n int, fn func(i int)) {
	workers := 1 // the calling goroutine always works
	defer func() {
		for ; workers > 1; workers-- {
			<-batchTokens
		}
	}()
	for workers < n {
		select {
		case batchTokens <- struct{}{}:
			workers++
			continue
		default:
		}
		break
	}
	par.For(workers, n, fn)
}

// SearchBatch answers a page of queries in one call, all pinned to the
// same serving snapshot (a concurrent reload cannot split a batch across
// net versions) and fanned out across a bounded worker pool into
// index-addressed slots, so results line up with queries.
func (c *CoCo) SearchBatch(queries []string, maxItems int) []SearchResult {
	s := c.serving.Load()
	out := make([]SearchResult, len(queries))
	batchFor(len(queries), func(i int) {
		out[i] = s.searchOne(queries[i], maxItems)
	})
	return out
}

func (s *servingState) searchOne(query string, maxItems int) SearchResult {
	return s.compose(s.search.Search(query, maxItems))
}

func (s *servingState) searchOneCtx(ctx context.Context, query string, maxItems int) (SearchResult, error) {
	resp, err := s.search.SearchCtx(ctx, query, maxItems)
	if err != nil {
		return SearchResult{}, err
	}
	return s.compose(resp), nil
}

func (s *servingState) searchOneBytes(query []byte, maxItems int) SearchResult {
	return s.compose(s.search.SearchBytes(query, maxItems))
}

func (s *servingState) searchOneBytesCtx(ctx context.Context, query []byte, maxItems int) (SearchResult, error) {
	resp, err := s.search.SearchBytesCtx(ctx, query, maxItems)
	if err != nil {
		return SearchResult{}, err
	}
	return s.compose(resp), nil
}

func (s *servingState) compose(resp search.Response) SearchResult {
	var out SearchResult
	for _, card := range resp.Cards {
		out.Cards = append(out.Cards, ConceptCard{Name: card.Name, Items: s.itemsOf(card.Items)})
	}
	out.Items = s.itemsOf(resp.Items)
	return out
}

func (s *servingState) itemsOf(ids []core.NodeID) []Item {
	var out []Item
	for _, id := range ids {
		if it, ok := s.itemByNode[id]; ok {
			out = append(out, it)
		}
	}
	return out
}

// Recommendation is a concept card with its user-facing reason string.
type Recommendation struct {
	Reason string
	Card   ConceptCard
}

// Recommend infers the user's scenario from viewed item IDs and returns a
// concept card of unseen items, with the concept name as the reason.
func (c *CoCo) Recommend(viewedItemIDs []int, k int) (Recommendation, bool) {
	return c.serving.Load().recommendOne(viewedItemIDs, k)
}

// BatchRecommendation is one session's outcome in a RecommendBatch: Found
// reports whether the session produced a recommendation.
type BatchRecommendation struct {
	Found bool
	Recommendation
}

// RecommendBatch recommends for a page of sessions in one call, pinned to
// one serving snapshot and fanned across the same bounded worker pool as
// SearchBatch; results line up with sessions.
func (c *CoCo) RecommendBatch(sessions [][]int, k int) []BatchRecommendation {
	s := c.serving.Load()
	out := make([]BatchRecommendation, len(sessions))
	batchFor(len(sessions), func(i int) {
		rec, ok := s.recommendOne(sessions[i], k)
		out[i] = BatchRecommendation{Found: ok, Recommendation: rec}
	})
	return out
}

func (s *servingState) recommendOne(viewedItemIDs []int, k int) (Recommendation, bool) {
	rec, ok, _ := s.recommendOneCtx(context.Background(), viewedItemIDs, k)
	return rec, ok
}

func (s *servingState) recommendOneCtx(ctx context.Context, viewedItemIDs []int, k int) (Recommendation, bool, error) {
	viewed := make([]core.NodeID, 0, len(viewedItemIDs))
	for _, id := range viewedItemIDs {
		if node, ok := s.itemNode[id]; ok {
			viewed = append(viewed, node)
		}
	}
	rec, ok, err := s.rec.RecommendCtx(ctx, viewed, k)
	if err != nil {
		return Recommendation{}, false, err
	}
	if !ok {
		return Recommendation{}, false, nil
	}
	nd, _ := s.reader.Node(rec.Concept)
	return Recommendation{
		Reason: rec.Reason,
		Card:   ConceptCard{Name: nd.Name, Items: s.itemsOf(rec.Items)},
	}, true, nil
}

// Deadline-aware entry points: the *Ctx variants refuse to start engine
// work once ctx is canceled or past its deadline, and the deadline
// propagates all the way into the engines — ctx is checked between batch
// items, between engine phases, and per work unit just after each shard
// crossing, so admitted-but-doomed work (one slow shard, an expired
// budget) is abandoned at the next shard boundary instead of stalling the
// whole scatter-gather. They never return partial results as success — a
// query or batch cut short by the deadline reports the context error and
// the caller must discard the result. Cache hits never consult ctx (they
// are one in-memory copy), which preserves the degraded cache-hits-only
// mode under overload.

// SearchCtx is Search guarded by a context; see above for the
// propagation contract.
func (c *CoCo) SearchCtx(ctx context.Context, query string, maxItems int) (SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	return c.serving.Load().searchOneCtx(ctx, query, maxItems)
}

// RecommendCtx is Recommend guarded by a context; see above for the
// propagation contract.
func (c *CoCo) RecommendCtx(ctx context.Context, viewedItemIDs []int, k int) (Recommendation, bool, error) {
	if err := ctx.Err(); err != nil {
		return Recommendation{}, false, err
	}
	return c.serving.Load().recommendOneCtx(ctx, viewedItemIDs, k)
}

// SearchBatchCtx is SearchBatch guarded by a context: workers stop picking
// up new queries once ctx is done, and the call reports ctx's error (the
// partially filled results must not be served).
func (c *CoCo) SearchBatchCtx(ctx context.Context, queries []string, maxItems int) ([]SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.serving.Load()
	out := make([]SearchResult, len(queries))
	var stopped atomic.Bool
	batchFor(len(queries), func(i int) {
		if stopped.Load() {
			return
		}
		res, err := s.searchOneCtx(ctx, queries[i], maxItems)
		if err != nil {
			stopped.Store(true)
			return
		}
		out[i] = res
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// SearchBatchBytesCtx is SearchBatchCtx for queries held as raw bytes —
// the serving path for batch bodies decoded without materializing one
// string per query. Equal query bytes produce byte-identical results and
// hit the same cache entries as the string entry points.
func (c *CoCo) SearchBatchBytesCtx(ctx context.Context, queries [][]byte, maxItems int) ([]SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.serving.Load()
	out := make([]SearchResult, len(queries))
	var stopped atomic.Bool
	batchFor(len(queries), func(i int) {
		if stopped.Load() {
			return
		}
		res, err := s.searchOneBytesCtx(ctx, queries[i], maxItems)
		if err != nil {
			stopped.Store(true)
			return
		}
		out[i] = res
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// RecommendBatchCtx is RecommendBatch guarded by a context, with the same
// stop-on-deadline contract as SearchBatchCtx.
func (c *CoCo) RecommendBatchCtx(ctx context.Context, sessions [][]int, k int) ([]BatchRecommendation, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.serving.Load()
	out := make([]BatchRecommendation, len(sessions))
	var stopped atomic.Bool
	batchFor(len(sessions), func(i int) {
		if stopped.Load() {
			return
		}
		rec, ok, err := s.recommendOneCtx(ctx, sessions[i], k)
		if err != nil {
			stopped.Store(true)
			return
		}
		out[i] = BatchRecommendation{Found: ok, Recommendation: rec}
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// Concept describes one e-commerce concept: its interpreting primitive
// concepts (domain:name) and its associated item count.
type Concept struct {
	Name       string
	Primitives []string
	ItemCount  int
}

// Concepts lists every e-commerce concept.
func (c *CoCo) Concepts() []Concept {
	var out []Concept
	net := c.serving.Load().reader
	for _, id := range net.NodesOfKind(core.KindEConcept) {
		nd, _ := net.Node(id)
		cpt := Concept{Name: nd.Name}
		for _, he := range net.PrimitivesForEConcept(id) {
			p, _ := net.Node(he.Peer)
			cpt.Primitives = append(cpt.Primitives, p.Domain+":"+p.Name)
		}
		cpt.ItemCount = len(net.ItemsForEConcept(id, 0))
		out = append(out, cpt)
	}
	return out
}

// LookupConcept returns one concept by name.
func (c *CoCo) LookupConcept(name string) (Concept, bool) {
	net := c.serving.Load().reader
	id := net.FirstByNameKind(strings.ToLower(name), core.KindEConcept)
	if id == core.InvalidNode {
		return Concept{}, false
	}
	nd, _ := net.Node(id)
	cpt := Concept{Name: nd.Name}
	for _, he := range net.PrimitivesForEConcept(id) {
		p, _ := net.Node(he.Peer)
		cpt.Primitives = append(cpt.Primitives, p.Domain+":"+p.Name)
	}
	cpt.ItemCount = len(net.ItemsForEConcept(id, 0))
	return cpt, true
}

// SampleSessions exposes simulated shopping sessions (viewed item IDs and
// the latent scenario), useful for recommendation demos.
func (c *CoCo) SampleSessions(n int) [][]int {
	arts := c.arts.Load()
	if arts.World == nil {
		return nil
	}
	log := arts.World.ClickLog(n)
	out := make([][]int, 0, n)
	for _, s := range log {
		out = append(out, append([]int(nil), s.Viewed...))
	}
	return out
}

// Hypernyms returns the isA ancestors of a primitive concept surface.
func (c *CoCo) Hypernyms(name string) []string {
	net := c.serving.Load().reader
	id := net.FirstByNameKind(strings.ToLower(name), core.KindPrimitive)
	if id == core.InvalidNode {
		return nil
	}
	var out []string
	seen := map[string]bool{strings.ToLower(name): true}
	for _, a := range net.Ancestors(id, 0) {
		nd, _ := net.Node(a)
		if (nd.Kind == core.KindPrimitive || nd.Kind == core.KindClass) && !seen[nd.Name] {
			seen[nd.Name] = true
			out = append(out, nd.Name)
		}
	}
	return out
}

// Glosses exposes the knowledge-base gloss of a primitive concept.
func (c *CoCo) Glosses(name string) []string {
	arts := c.arts.Load()
	if arts.World == nil {
		return nil
	}
	var out []string
	for _, pid := range arts.World.BySurface[strings.ToLower(name)] {
		out = append(out, arts.World.Glosses[pid])
	}
	return out
}

// ImpliedRelation is a commonsense relation mined from item statistics
// (the paper's Section 10 future work): the concept's items concentrate on a
// primitive far above base rate, e.g. a "keep warm for kids" concept implies
// Function:warm even when not stated.
type ImpliedRelation struct {
	Concept   string
	Primitive string // "Domain:name"
	Lift      float64
	Coverage  float64
}

// InferImplicitRelations mines implied concept-primitive relations from the
// frozen snapshot, materializes them into the live net as weighted
// "implied" interpretation edges, and re-freezes so the serving engines see
// the new knowledge.
func (c *CoCo) InferImplicitRelations() ([]ImpliedRelation, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	arts := c.arts.Load()
	if arts.Net == nil {
		return nil, errors.New("alicoco: infer: snapshot-loaded net has no live store to materialize into")
	}
	m := inference.NewMiner(c.serving.Load().reader, inference.DefaultConfig())
	rels := m.InferAll()
	if _, err := m.Materialize(arts.Net, rels); err != nil {
		return nil, err
	}
	if err := c.refreeze(); err != nil {
		return nil, err
	}
	out := make([]ImpliedRelation, 0, len(rels))
	for _, r := range rels {
		cn, _ := arts.Net.Node(r.Concept)
		pn, _ := arts.Net.Node(r.Primitive)
		out = append(out, ImpliedRelation{
			Concept:   cn.Name,
			Primitive: pn.Domain + ":" + pn.Name,
			Lift:      r.Lift,
			Coverage:  r.Coverage,
		})
	}
	return out, nil
}

// Internal exposes the underlying artifacts for the cmd/ and examples/
// binaries in this module that need lower-level access (experiments,
// serving). External users should treat CoCo as the API.
func (c *CoCo) Internal() *pipeline.Artifacts { return c.arts.Load() }

// WorldDomains lists the 20 taxonomy domains.
func WorldDomains() []string { return world.DomainNames() }
