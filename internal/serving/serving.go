// Package serving is the serving core of the AliCoCo facade: it loads
// committed generations of a snapshot store (internal/snapstore), answers
// every query over the one it publishes, and owns the generation
// lifecycle of that store — startup, reloads, rollbacks and scrubs, with
// their policy and state (lifecycle.go). It links no build or model code;
// the root alicoco package embeds a Core and adds the build on top.
package serving

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/core"
	"alicoco/internal/par"
	"alicoco/internal/qcache"
	"alicoco/internal/resilience"
	"alicoco/internal/snapstore"
)

// DefaultQueryCacheCapacity is the per-cache entry budget (one cache for
// search, one for recommendation) a Core from New or Load starts with;
// SetQueryCacheCapacity adjusts it at runtime. Once a cache shard is an
// eighth full, a query is cached from its second miss, so queries that
// never repeat fill at most that eighth.
const DefaultQueryCacheCapacity = 4096

// Core serves one published state: a generation or an in-process freeze.
// All query methods read one servingState loaded atomically, so they are
// safe to call concurrently with Publish, the reloads, RollbackTo and
// ScrubOnce (each publishes a fresh snapshot by swapping the pointer,
// never by mutating one in place). It is also the one owner of the
// generation lifecycle of the store it was loaded from (lifecycle.go).
type Core struct {
	// offline serializes loads, scrubs, publishes and every lifecycle
	// operation with the lifecycle state below it.
	offline    sync.Mutex
	serving    atomic.Pointer[servingState]
	generation atomic.Uint64 // counts published serving snapshots
	closed     bool          // set by Close; guarded by offline

	// The query caches outlive individual serving snapshots: every entry
	// is stamped with the generation (and checksum) of the snapshot it was
	// computed from, so publishing a new snapshot — reload, refreeze,
	// inference — invalidates the whole cache for free (stale generations
	// simply stop matching). One cache per engine keeps the per-layer
	// cache counters attributable. A zero Core has none and caches
	// nothing.
	searchCache *qcache.Cache
	recCache    *qcache.Cache

	lifecycle
}

// New returns a Core with its query caches allocated and the lifecycle
// policy at its production values; it serves once a state is published.
func New() *Core {
	return &Core{
		searchCache: qcache.New(DefaultQueryCacheCapacity),
		recCache:    qcache.New(DefaultQueryCacheCapacity),
		lifecycle: lifecycle{
			validate: validServing,
			breaker:  resilience.NewBreaker(breakerThreshold, breakerCooldown),
			backoff:  resilience.NewBackoff(backoffBase, backoffMax, time.Now().UnixNano()),
		},
	}
}

// Serving returns c itself: the one method internal/serve needs of a
// facade, which the root alicoco.CoCo has by embedding a Core.
func (c *Core) Serving() *Core { return c }

// errClosed is what the store operations return after Close.
var errClosed = errors.New("alicoco: serving core is closed")

// Close releases the hold on the generation serving was loaded from, so
// the next commit may drop it once it falls out of the retention window.
// Queries keep answering from memory; ReloadShards, ReloadShard,
// RollbackTo and ScrubOnce fail from then on. A second Close does nothing.
func (c *Core) Close() {
	c.offline.Lock()
	defer c.offline.Unlock()
	if c.closed {
		return
	}
	c.closed = true
	if s := c.serving.Load(); s != nil {
		s.hold.Release()
	}
}

// ShardSet returns the published partition.
func (c *Core) ShardSet() *core.ShardSet { return c.serving.Load().shards }

// Meta returns the serving metadata (stopwords and item table) published
// with the partition.
func (c *Core) Meta() *snapstore.ServingMeta { return c.serving.Load().meta }

// servingState bundles a frozen store with the engines and item table
// served with it, so everything a query touches swaps together atomically. A
// request loads the pointer once and keeps it for its whole lifetime —
// that per-request pinning is what makes a concurrent reload (of the whole
// net or of a single shard) invisible mid-request: the old state, with all
// its shard pointers, stays reachable until the last pinned request
// finishes.
type servingState struct {
	// shards is the partition being served, one shard or many: every query
	// reads it through the one frozen read path, core.ShardSet.
	shards *core.ShardSet

	// Snapshot bookkeeping: the store root the partition was loaded from,
	// the catalog entry of the generation served (what RollbackTo and the
	// scrubber anchor on), the manifest the shards were verified against
	// and the hold that keeps the generation's directory from retention
	// until the next publish or Close — all zero for in-process freezes —
	// plus per-shard serving metadata.
	root      string
	gen       snapstore.Gen
	manifest  *snapstore.ShardManifest
	hold      *snapstore.Hold
	shardInfo []ShardServingInfo

	search *search.Engine
	rec    *recommend.Engine
	meta   *snapstore.ServingMeta // stopwords and item table, with its node index
	stamp  qcache.Stamp           // cache stamp of this snapshot (see stamps below)
	info   ServingInfo
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
func (c *Core) ServingInfo() ServingInfo { return c.serving.Load().info }

// ShardInfos describes each shard of the published serving partition. The
// slice is a copy.
func (c *Core) ShardInfos() []ShardServingInfo {
	return append([]ShardServingInfo(nil), c.serving.Load().shardInfo...)
}

// Load builds a Core from the snapshot store at dir (written by alicoco's
// SaveShards or pipeline.SaveShardsRetain) the way a breaker trip rolls
// back: it publishes the newest committed generation that loads and
// validates, and marks every newer one bad, so reloads hold until a newer
// commit lands (see Reload). It fails only when no generation loads, with
// the newest one's failure. Anything other than a store root is an error.
// Shards load and verify in parallel.
func Load(dir string) (*Core, error) {
	c := New()
	if err := c.start(dir); err != nil {
		c.Close() // releases a hold a generation that failed validation took
		return nil, err
	}
	return c, nil
}

// load reads generation g of the store at root through snapstore.LoadGen
// and publishes it: the one path by which a generation reaches serving. A
// nil man is read from g's directory; a shard reload passes the effective
// manifest it publishes under. load holds g (snapstore.HoldGen) before it
// reads g's files, so no commit drops the generation while it is loaded or
// served; when serving holds g already, that hold covers the read, and
// load takes its own only once it knows it publishes. With reuse the
// loader keeps what serving holds (see LoadGen); without, it reads and
// verifies every file. A reload that reads no shard from the generation
// already served publishes nothing. It returns how many shards were read.
// Callers hold c.offline or own a Core that has not escaped yet, so the
// served state and its hold stay in place until load returns. A closed
// Core loads nothing.
func (c *Core) load(root string, g snapstore.Gen, man *snapstore.ShardManifest, source string, reuse bool, force int) (int, error) {
	if c.closed {
		return 0, errClosed
	}
	if man == nil {
		var err error
		if man, err = snapstore.ReadManifest(filepath.Join(root, g.Dir)); err != nil {
			return 0, err
		}
	}
	prev := c.serving.Load()
	held := prev != nil && prev.root == root && prev.gen.ID == g.ID
	var hold *snapstore.Hold
	if !held {
		var err error
		if hold, err = snapstore.HoldGen(root, g); err != nil {
			return 0, err
		}
	}
	var served []*core.FrozenNet
	var servedMeta *snapstore.ServingMeta
	var servedMan *snapstore.ShardManifest
	if reuse {
		served, servedMeta, servedMan = prev.shards.Shards(), prev.meta, prev.manifest
	}
	shards, meta, read, err := snapstore.LoadGen(filepath.Join(root, g.Dir), man, served, servedMeta, servedMan, force)
	if err != nil {
		hold.Release()
		return 0, err
	}
	if held {
		if reuse && read == 0 {
			return 0, nil
		}
		if hold, err = snapstore.HoldGen(root, g); err != nil {
			return 0, err
		}
	}
	return read, c.publishShards(shards, meta, source, root, g, man, hold)
}

// ReloadShards re-reads the newest generation of the snapshot store at dir
// and hot-swaps the changed parts into serving. Shards whose checksums
// match the partition served keep their in-memory form (and, via the
// content stamp, their cache entries), and so does the item table while
// its checksum and node total hold; only changed shards are read from
// disk — so a new catalog generation that touched one shard reloads one
// shard, even though it lives in a fresh gen-%06d directory. It returns
// how many shards were (re)loaded — 0 means the snapshot holds exactly
// what is already being served; when it is also the same generation
// nothing is republished at all, and when it is a newer generation with
// identical content only the location bookkeeping is republished (the
// content stamp, and with it every warm cache entry, carries over). A
// partition-shape change (shard count, stride, node total, or serving
// metadata) reads every shard. Queries running concurrently keep
// answering from the old partition until the single atomic swap, so no
// request ever sees a mix of generations. It applies no lifecycle policy:
// Reload does, on the store serving was loaded from.
func (c *Core) ReloadShards(dir string) (int, error) {
	c.offline.Lock()
	defer c.offline.Unlock()
	g, err := snapstore.Lookup(dir, nil)
	if err != nil {
		return 0, err
	}
	return c.reloadGen(dir, g, -1)
}

// ReloadShard force-reloads one shard from the newest generation of the
// snapshot store at dir, regardless of whether its checksum changed; the
// rest of the partition keeps serving its in-memory shards. The shard is
// verified against the store's current commit point; if the partition
// shape on disk no longer matches serving, the reload is refused (use
// ReloadShards, which handles shape changes).
func (c *Core) ReloadShard(dir string, i int) error {
	c.offline.Lock()
	defer c.offline.Unlock()
	g, err := snapstore.Lookup(dir, nil)
	if err == nil && i < 0 {
		err = fmt.Errorf("alicoco: reload shard: index %d out of range", i)
	}
	if err != nil {
		return err
	}
	_, err = c.reloadGen(dir, g, i)
	return err
}

// reloadGen reloads generation g of the store at root: the whole
// partition, reading only the shards that changed, or with shard >= 0
// that one shard. It returns how many shards were read. Callers hold
// c.offline.
func (c *Core) reloadGen(root string, g snapstore.Gen, shard int) (int, error) {
	if shard < 0 {
		return c.load(root, g, nil, "shards", true, -1)
	}
	prev := c.serving.Load()
	if prev.manifest == nil {
		return 0, errors.New("alicoco: reload shard: serving is not backed by a snapshot store")
	}
	man, err := snapstore.ReadManifest(filepath.Join(root, g.Dir))
	if err != nil {
		return 0, err
	}
	if shard >= man.NumShards() {
		return 0, fmt.Errorf("alicoco: reload shard: index %d out of range [0,%d)", shard, man.NumShards())
	}
	if !prev.manifest.SameShape(man) {
		return 0, errors.New("alicoco: reload shard: partition shape on disk changed; use ReloadShards")
	}
	// Publish under an *effective* manifest: the served manifest with only
	// entry shard replaced. The directory's manifest may already describe
	// newer content for shards this reload did not touch (an operator
	// rolling the partition one shard at a time); recording it verbatim
	// would stamp the query caches with content that is not being served
	// yet and make a later ReloadShards diff believe those shards are
	// already current.
	eff := *prev.manifest
	eff.Shards = append([]snapstore.ShardEntry(nil), prev.manifest.Shards...)
	eff.TotalEdges += man.Shards[shard].Edges - eff.Shards[shard].Edges
	eff.Shards[shard] = man.Shards[shard]
	return c.load(root, g, &eff, "shards", true, shard)
}

// shardContentStamp derives the cache stamp of a disk-loaded shard
// partition from the manifest's content checksums (meta plus every shard)
// instead of from the publish counter: republishing the same bytes — a
// no-op ReloadShards, or a reload that pulled one changed shard and kept
// the rest — yields the same stamp, so cache entries computed from
// unchanged content stay live across the swap. Bit 63 of Gen is set so a
// content stamp can never collide with a counter stamp.
func shardContentStamp(man *snapstore.ShardManifest) qcache.Stamp {
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

// publishShards swaps in a serving state backed by the shard partition
// shards, served with meta — the one publish path for builds, loads,
// reloads, refreezes and rollbacks. The engines run on the partition's
// ShardSet whatever its shard count. root, g, man and hold identify the
// store, the catalog entry, the manifest the partition was verified
// against and the hold on g, which publishShards takes over; all are zero
// for in-process freezes. Once the state is published, the previous
// state's hold is released. The fresh engines carry the new cache stamp,
// so everything the query caches hold for other content becomes
// unreachable in the same atomic pointer store that publishes the state.
func (c *Core) publishShards(shards []*core.FrozenNet, meta *snapstore.ServingMeta, source, root string, g snapstore.Gen, man *snapstore.ShardManifest, hold *snapstore.Hold) error {
	set, err := core.NewShardSet(shards)
	if err != nil {
		hold.Release()
		return err
	}
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
	se := search.NewEngine(set, meta.Stopwords)
	se.UseCache(c.searchCache, stamp)
	re := recommend.NewEngine(set)
	re.UseCache(c.recCache, stamp)
	c.serving.Store(&servingState{
		shards:    set,
		root:      root,
		gen:       g,
		manifest:  man,
		hold:      hold,
		shardInfo: shardInfo,
		search:    se,
		rec:       re,
		meta:      meta,
		stamp:     stamp,
		info: ServingInfo{
			Source:      source,
			Generation:  gen,
			Checksum:    checksum,
			PublishedAt: now,
			Nodes:       set.NumNodes(),
			Edges:       set.NumEdges(),
			Shards:      set.NumShards(),
			CatalogGen:  g.ID,
		},
	})
	if prev != nil {
		prev.hold.Release()
	}
	return nil
}

// Publish serves shards, a partition frozen in process, with meta, the
// serving metadata built with them; source names the cause in ServingInfo.
// The caches are stamped by the publish counter, as no manifest names the
// content.
func (c *Core) Publish(shards []*core.FrozenNet, meta *snapstore.ServingMeta, source string) error {
	c.offline.Lock()
	defer c.offline.Unlock()
	return c.publishShards(shards, meta, source, "", snapstore.Gen{}, nil, nil)
}

// CacheStamp returns the generation+checksum stamp of the published
// serving snapshot — the stamp callers layering their own caches on top
// (e.g. cocoserve's encoded-response cache) must write entries under, so
// a reload invalidates those layers the same way it invalidates the
// built-in query caches.
func (c *Core) CacheStamp() qcache.Stamp { return c.serving.Load().stamp }

// QueryCacheStats reports the hit/miss/eviction counters of the two query
// caches.
func (c *Core) QueryCacheStats() (searchStats, recommendStats qcache.Stats) {
	return c.searchCache.Stats(), c.recCache.Stats()
}

// SetQueryCacheCapacity resizes both query caches in place (entries each;
// n <= 0 disables result caching). Safe to call while serving.
func (c *Core) SetQueryCacheCapacity(n int) {
	c.searchCache.Resize(n)
	c.recCache.Resize(n)
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
func (c *Core) Stats() Stats {
	s := c.serving.Load().shards.ComputeStats()
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

// Item is a sellable unit in the net. Its Title and Category are the
// names of its node and of its leaf category's node, views of the served
// shards' name arenas as core.Node names are: a caller that keeps one
// keeps those shards' names alive.
type Item struct {
	ID       int
	Title    string
	Category string
}

// Items lists every item, in world order.
func (c *Core) Items() []Item {
	s := c.serving.Load()
	out := make([]Item, len(s.meta.Items))
	for i, im := range s.meta.Items {
		out[i] = s.itemOf(im)
	}
	return out
}

// itemOf returns the Item of an item table entry: its title and category
// are the names of its node and of its category node, views of the served
// shards' name arenas read with no fault-injection probe (ShardSet.Name).
func (s *servingState) itemOf(im snapstore.ItemMeta) Item {
	return Item{ID: im.WorldID, Title: s.shards.Name(im.Node), Category: s.shards.Name(im.Category)}
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

// SearchCtx answers a free-text query with concept cards and item hits.
//
// Every query method takes a context. It refuses to start engine work once
// ctx is canceled or past its deadline, and the deadline propagates all
// the way into the engines — ctx is checked between batch items, between
// engine phases, and per work unit just after each shard crossing, so
// admitted-but-doomed work (one slow shard, an expired budget) is
// abandoned at the next shard boundary instead of stalling the whole
// scatter-gather. No query method returns partial results as success — a
// query or batch cut short by the deadline reports the context error and
// the caller must discard the result. Cache hits never consult ctx (they
// are one in-memory copy), which preserves the degraded cache-hits-only
// mode under overload.
func (c *Core) SearchCtx(ctx context.Context, query string, maxItems int) (SearchResult, error) {
	if err := ctx.Err(); err != nil {
		return SearchResult{}, err
	}
	s := c.serving.Load()
	resp, err := s.search.SearchCtx(ctx, query, maxItems)
	if err != nil {
		return SearchResult{}, err
	}
	return s.compose(resp), nil
}

// SearchBatchBytesCtx answers a page of queries held as raw bytes — the
// serving path for batch bodies decoded without materializing one string
// per query. The whole page reads one serving snapshot (a concurrent
// reload cannot split a batch across net versions) and fans across a
// bounded worker pool; workers stop picking up queries once ctx is done.
// Results line up with queries; equal query bytes produce byte-identical
// results and hit the same cache entries as SearchCtx.
func (c *Core) SearchBatchBytesCtx(ctx context.Context, queries [][]byte, maxItems int) ([]SearchResult, error) {
	out := make([]SearchResult, len(queries))
	err := c.batch(ctx, len(queries), func(s *servingState, i int) error {
		resp, err := s.search.SearchBytesCtx(ctx, queries[i], maxItems)
		if err != nil {
			return err
		}
		out[i] = s.compose(resp)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
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
		if im, ok := s.meta.ItemOfNode(id); ok {
			out = append(out, s.itemOf(im))
		}
	}
	return out
}

// Recommendation is a concept card with its user-facing reason string.
type Recommendation struct {
	Reason string
	Card   ConceptCard
}

// RecommendCtx infers the user's scenario from viewed item IDs and returns
// a concept card of unseen items, with the concept name as the reason.
// The bool reports whether the session produced a recommendation; see
// SearchCtx for the context contract.
func (c *Core) RecommendCtx(ctx context.Context, viewedItemIDs []int, k int) (Recommendation, bool, error) {
	if err := ctx.Err(); err != nil {
		return Recommendation{}, false, err
	}
	return c.serving.Load().recommend(ctx, viewedItemIDs, k)
}

// BatchRecommendation is one session's outcome in a RecommendBatchCtx:
// Found reports whether the session produced a recommendation.
type BatchRecommendation struct {
	Found bool
	Recommendation
}

// RecommendBatchCtx recommends for a page of sessions in one call, pinned
// to one serving snapshot and fanned across the same bounded worker pool
// as SearchBatchBytesCtx; results line up with sessions.
func (c *Core) RecommendBatchCtx(ctx context.Context, sessions [][]int, k int) ([]BatchRecommendation, error) {
	out := make([]BatchRecommendation, len(sessions))
	err := c.batch(ctx, len(sessions), func(s *servingState, i int) error {
		rec, ok, err := s.recommend(ctx, sessions[i], k)
		out[i] = BatchRecommendation{Found: ok, Recommendation: rec}
		return err
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

func (s *servingState) recommend(ctx context.Context, viewedItemIDs []int, k int) (Recommendation, bool, error) {
	items := s.meta.Items // item i has world ID i
	viewed := make([]core.NodeID, 0, len(viewedItemIDs))
	for _, id := range viewedItemIDs {
		if id >= 0 && id < len(items) {
			viewed = append(viewed, items[id].Node)
		}
	}
	rec, ok, err := s.rec.RecommendCtx(ctx, viewed, k)
	if err != nil || !ok {
		return Recommendation{}, false, err
	}
	nd, _ := s.shards.Node(rec.Concept)
	return Recommendation{
		Reason: rec.Reason,
		Card:   ConceptCard{Name: nd.Name, Items: s.itemsOf(rec.Items)},
	}, true, nil
}

// batchTokens bounds the total fan-out worker count across all concurrent
// batch calls: each call takes as many tokens as are free (always at least
// its calling goroutine), so one batch alone uses every core while many
// concurrent batches degrade toward one worker each instead of spawning
// GOMAXPROCS goroutines apiece and oversubscribing the scheduler.
var batchTokens = make(chan struct{}, runtime.GOMAXPROCS(0))

// batch runs fn for every index in [0, n), all against one pinned serving
// snapshot (a concurrent reload cannot split a batch across net versions)
// and fanned across the admission-controlled worker pool of batchTokens.
// Workers stop picking up items after the first error, and the call
// reports ctx's error, so a batch cut short by its deadline is never
// served partially.
func (c *Core) batch(ctx context.Context, n int, fn func(s *servingState, i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := c.serving.Load()
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
	var stopped atomic.Bool
	par.For(workers, n, func(i int) {
		if !stopped.Load() && fn(s, i) != nil {
			stopped.Store(true)
		}
	})
	return ctx.Err()
}

// Concept describes one e-commerce concept: its interpreting primitive
// concepts (domain:name) and its associated item count.
type Concept struct {
	Name       string
	Primitives []string
	ItemCount  int
}

// Concepts lists every e-commerce concept.
func (c *Core) Concepts() []Concept {
	var out []Concept
	net := c.serving.Load().shards
	for _, id := range net.NodesOfKind(core.KindEConcept) {
		out = append(out, conceptOf(net, id))
	}
	return out
}

// LookupConcept returns one concept by name.
func (c *Core) LookupConcept(name string) (Concept, bool) {
	net := c.serving.Load().shards
	id := net.FirstByNameKind(strings.ToLower(name), core.KindEConcept)
	if id == core.InvalidNode {
		return Concept{}, false
	}
	return conceptOf(net, id), true
}

// conceptOf assembles the Concept of an e-commerce concept node.
func conceptOf(net *core.ShardSet, id core.NodeID) Concept {
	nd, _ := net.Node(id)
	cpt := Concept{Name: nd.Name}
	for _, he := range net.PrimitivesForEConcept(id) {
		p, _ := net.Node(he.Peer)
		cpt.Primitives = append(cpt.Primitives, p.Domain+":"+p.Name)
	}
	cpt.ItemCount = len(net.ItemsForEConcept(id, 0))
	return cpt
}

// Hypernyms returns the isA ancestors of a primitive concept surface.
func (c *Core) Hypernyms(name string) []string {
	net := c.serving.Load().shards
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
