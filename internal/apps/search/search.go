// Package search implements the Section 8.1 applications on top of the
// concept net: semantic search with concept cards (Figure 2a), coverage
// measurement against a CPV-only ontology (Section 7.1), and isA-expanded
// relevance (Section 8.1.1).
package search

import (
	"context"
	"encoding/binary"
	"slices"
	"sync"

	"alicoco/internal/core"
	"alicoco/internal/qcache"
	"alicoco/internal/text"
	"alicoco/internal/topk"
)

// ConceptCard is the Figure 2 card: a concept with its associated items.
type ConceptCard struct {
	Concept core.NodeID
	Name    string
	Items   []core.NodeID
}

// Response is a search result: zero or more concept cards plus plain item
// hits. A Response can be reused across queries via SearchInto, which
// recycles the Cards/Items backing arrays — the zero-allocation serving
// configuration.
type Response struct {
	Cards []ConceptCard
	Items []core.NodeID
}

// maxVotedCards bounds how many primitive-voted concept cards one query can
// trigger; the ranking keeps only this many concepts, so voting is
// O(concepts·log maxVotedCards) with no full sort.
const maxVotedCards = 3

// scratch is the per-request working memory of one query. Engines
// recycle scratches through a sync.Pool, so steady-state queries reuse the
// token buffer, the name-join buffer, the vote map, and the top-k heap of
// an earlier request instead of allocating their own.
type scratch struct {
	raw    []byte               // copy of a string query (the bytes core's input)
	low    []byte               // lower-cased query bytes
	tokens [][]byte             // token views into low
	name   []byte               // space-joined tokens, the exact-match key
	key    []byte               // query-cache key (maxItems + raw query bytes)
	val    []byte               // packed answer handed to the query cache
	match  text.MatchScratch    // max-match DP table and phrase-key buffer
	segs   []text.Segment       // max-match segmentation buffer
	prims  []core.NodeID        // matched primitive concepts
	votes  map[core.NodeID]int  // concept -> primitive votes
	seen   map[core.NodeID]bool // item dedup for plain hits
	heap   topk.Heap
}

// Engine answers queries against a frozen net, a *core.ShardSet, whose
// reads are lock-free and allocation-free. All Engine methods are safe for
// concurrent use; concurrent queries each draw their own pooled scratch.
type Engine struct {
	net *core.ShardSet
	// lexicon holds the concept surfaces queries are segmented against,
	// each under its own node's name (text.PhraseKey), so on a frozen net
	// a key is a view of its shard's name arena, not a copy. maxLen is the
	// longest surface in tokens. The segmenter probes only this set, never
	// the net's name index, so a probe never crosses shards.
	lexicon   map[string]struct{}
	maxLen    int
	stopwords map[string]bool
	pool      sync.Pool // *scratch
	// cache, when attached, memoizes composed query results keyed on the
	// raw query bytes and stamped with the serving snapshot's generation;
	// see UseCache.
	cache *qcache.Cache
	stamp qcache.Stamp
}

func newEngine(net *core.ShardSet, stopwords []string, phrases int) *Engine {
	e := &Engine{net: net, lexicon: make(map[string]struct{}, phrases), stopwords: make(map[string]bool)}
	for _, w := range stopwords {
		e.stopwords[w] = true
	}
	e.pool.New = func() any {
		return &scratch{
			votes: make(map[core.NodeID]int),
			seen:  make(map[core.NodeID]bool),
		}
	}
	return e
}

// NewEngine indexes the net's primitive and e-commerce concept surfaces.
// The lexicon is sized once and keyed by the nodes' own names, so building
// an engine costs no allocation per surface.
func NewEngine(net *core.ShardSet, stopwords []string) *Engine {
	prims, ecpts := net.NodesOfKind(core.KindPrimitive), net.NodesOfKind(core.KindEConcept)
	e := newEngine(net, stopwords, len(prims)+len(ecpts))
	for _, ids := range [2][]core.NodeID{prims, ecpts} {
		for _, id := range ids {
			nd, _ := net.Node(id)
			e.addPhrase(nd.Name)
		}
	}
	return e
}

// addPhrase adds a concept surface to the lexicon.
func (e *Engine) addPhrase(name string) {
	key, tokens := text.PhraseKey(name)
	e.lexicon[key] = struct{}{}
	e.maxLen = max(e.maxLen, tokens)
}

// hasPhrase is the segmenter's lexicon probe.
func (e *Engine) hasPhrase(key []byte) bool {
	_, ok := e.lexicon[string(key)] // alloc-free map key form
	return ok
}

// UseCache attaches a shared query-result cache. Every entry is stamped
// with stamp — the publish generation (and snapshot checksum) of the net
// this engine serves — so entries written by an engine on an older
// snapshot can never satisfy this engine's lookups: a reload or refreeze
// invalidates the whole cache for free. An entry holds the answer packed
// as node IDs (see appendResponse); a hit decodes it into the caller's
// reused Response, so the zero-allocation SearchInto contract survives
// caching.
func (e *Engine) UseCache(c *qcache.Cache, stamp qcache.Stamp) {
	e.cache = c
	e.stamp = stamp
}

// SearchCtx resolves a query to concept cards and items: an exact
// e-commerce concept match triggers its card (the "baking" flow of Figure
// 2a); otherwise matched primitives vote for the concepts they interpret.
// The engine checks ctx at every phase boundary and per matched primitive
// on the uncached path, so one slow shard (or an expired deadline)
// abandons the query at the next shard crossing instead of stalling the
// whole scatter-gather. A cache hit never consults ctx — it is a single
// in-memory copy. On error the Response must be discarded. The returned
// Response owns fresh slices; hot callers should reuse one through
// SearchInto instead.
func (e *Engine) SearchCtx(ctx context.Context, query string, maxItems int) (Response, error) {
	sc := e.pool.Get().(*scratch)
	defer e.pool.Put(sc)
	sc.raw = append(sc.raw[:0], query...)
	var resp Response
	err := e.searchInto(ctx, sc, &resp, sc.raw, maxItems)
	return resp, err
}

// SearchBytesCtx is SearchCtx for a query held as raw bytes (e.g. decoded
// straight out of a request body) — no string is ever materialized on the
// way to the engine. Both forms share one bytes core, so results and cache
// keys are byte-identical for equal query bytes.
func (e *Engine) SearchBytesCtx(ctx context.Context, query []byte, maxItems int) (Response, error) {
	var resp Response
	err := e.SearchInto(ctx, &resp, query, maxItems)
	return resp, err
}

// SearchInto is SearchBytesCtx writing into a caller-owned Response,
// recycling its backing arrays. On the exact-match path — a normalized
// query naming an e-commerce concept, answered from a frozen snapshot — a
// reused Response makes the whole call allocation-free: pooled scratch,
// zero-copy postings, recycled card storage. The pooled-DP segmenter and
// byte-keyed name lookups extend the same property to the voting
// (non-exact) path, and a cache hit costs only the decode into resp.
func (e *Engine) SearchInto(ctx context.Context, resp *Response, query []byte, maxItems int) error {
	sc := e.pool.Get().(*scratch)
	defer e.pool.Put(sc)
	return e.searchInto(ctx, sc, resp, query, maxItems)
}

// searchInto is the shared core behind the string and bytes entry points:
// cache probe, engine dispatch, cache fill. sc is the caller's pooled
// scratch.
func (e *Engine) searchInto(ctx context.Context, sc *scratch, resp *Response, query []byte, maxItems int) error {
	resp.Cards = resp.Cards[:0]
	resp.Items = resp.Items[:0]

	if e.cache != nil {
		sc.key = appendSearchKey(sc.key[:0], query, maxItems)
		if v, ok := e.cache.Get(e.stamp, sc.key); ok {
			e.decodeResponse(resp, v)
			return nil
		}
	}
	if err := e.searchUncached(ctx, sc, resp, query, maxItems); err != nil {
		// Abandoned mid-computation: resp is partial, never cache it.
		return err
	}
	if e.cache != nil {
		sc.val = appendResponse(sc.val[:0], resp)
		e.cache.Put(e.stamp, sc.key, sc.val)
	}
	return nil
}

// searchUncached computes the answer through the engines; sc is the
// caller's pooled scratch. ctx is checked between phases and per matched
// primitive — each check sits just after a shard crossing, so a query
// stalled by one slow shard is abandoned at the next boundary.
func (e *Engine) searchUncached(ctx context.Context, sc *scratch, resp *Response, query []byte, maxItems int) error {
	sc.low = text.AppendLower(sc.low[:0], query)
	sc.tokens = text.AppendTokensBytes(sc.tokens[:0], sc.low)

	// 1. Exact e-commerce concept match, keyed through the reused join
	// buffer so no query string is materialized.
	sc.name = text.AppendJoinBytes(sc.name[:0], sc.tokens)
	if id := e.net.FirstByNameKindBytes(sc.name, core.KindEConcept); id != core.InvalidNode {
		if err := ctx.Err(); err != nil {
			return err
		}
		e.appendCard(resp, id, maxItems)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// 2. Primitive-concept voting: concepts interpreted by the most
	// matched primitives win. The bounded heap keeps the maxVotedCards
	// best (votes desc, id asc — the order the full sort used) without
	// ranking every candidate.
	sc.prims = e.appendMatchPrimitives(sc, sc.prims[:0], sc.tokens)
	clear(sc.votes)
	for _, prim := range sc.prims {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, he := range e.net.In(prim, core.EdgeInterpretedBy) {
			sc.votes[he.Peer]++
		}
	}
	sc.heap.Reset(maxVotedCards)
	for id, v := range sc.votes {
		sc.heap.Push(id, float64(v))
	}
	for _, ent := range sc.heap.Descending() {
		if err := ctx.Err(); err != nil {
			return err
		}
		if int(ent.Score)*2 >= len(sc.prims) { // at least half the query matched
			e.appendCard(resp, ent.ID, maxItems)
		}
	}

	// 3. Plain item hits from matched primitives (CPV-style retrieval).
	// maxItems caps the total across all matched primitives (maxItems <= 0
	// means unlimited), so the cap check must leave both loops.
	clear(sc.seen)
collect:
	for _, prim := range sc.prims {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, he := range e.net.In(prim, core.EdgeItemPrimitive) {
			if maxItems > 0 && len(resp.Items) >= maxItems {
				break collect
			}
			if !sc.seen[he.Peer] {
				sc.seen[he.Peer] = true
				resp.Items = append(resp.Items, he.Peer)
			}
		}
	}
	slices.Sort(resp.Items) // unlike sort.Slice, allocation-free
	return nil
}

// appendCard appends the concept's card to resp, reviving the Items backing
// array of a card previously stored in the same slot when the Response is
// being reused.
func (e *Engine) appendCard(resp *Response, concept core.NodeID, maxItems int) {
	if cap(resp.Cards) > len(resp.Cards) {
		resp.Cards = resp.Cards[:len(resp.Cards)+1]
	} else {
		resp.Cards = append(resp.Cards, ConceptCard{})
	}
	card := &resp.Cards[len(resp.Cards)-1]
	nd, _ := e.net.Node(concept)
	card.Concept = concept
	card.Name = nd.Name
	card.Items = card.Items[:0]
	for _, he := range e.net.ItemsForEConcept(concept, maxItems) {
		card.Items = append(card.Items, he.Peer)
	}
}

// appendMatchPrimitives max-matches the query against the lexicon. It
// runs on the scratch's reused DP table and segmentation buffer and
// resolves each matched surface through the byte-keyed exact lookup, so the
// voting path stays allocation-free (the first reading of a surface is
// enough for retrieval, which is exactly what FirstByNameKindBytes
// returns).
func (e *Engine) appendMatchPrimitives(sc *scratch, dst []core.NodeID, tokens [][]byte) []core.NodeID {
	sc.segs = text.SegmentFunc(&sc.match, sc.segs[:0], tokens, e.maxLen, e.hasPhrase)
	for _, seg := range sc.segs {
		if !seg.Match {
			continue
		}
		sc.name = text.AppendJoinBytes(sc.name[:0], tokens[seg.Start:seg.End])
		if id := e.net.FirstByNameKindBytes(sc.name, core.KindPrimitive); id != core.InvalidNode {
			dst = append(dst, id)
		}
	}
	return dst
}

// appendSearchKey builds the cache key: maxItems (part of the answer
// shape, full 64-bit so distinct values can never collide) followed by
// the raw query bytes.
func appendSearchKey(dst []byte, query []byte, maxItems int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(maxItems)))
	return append(dst, query...)
}

// appendResponse packs resp as a cache value: the card count, each card's
// concept and its items, then the plain items, all as uint32 node IDs. It
// leaves out the card names: a frozen net's names are views of its
// shards' name arenas, and an entry holds no pointer into any net.
func appendResponse(dst []byte, resp *Response) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(resp.Cards)))
	for i := range resp.Cards {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(resp.Cards[i].Concept))
		dst = core.AppendIDList(dst, resp.Cards[i].Items)
	}
	return core.AppendIDList(dst, resp.Items)
}

// decodeResponse unpacks an appendResponse value into a caller-owned
// Response, sizing each slice once and reviving dst's backing arrays like
// appendCard does — with a reused dst the decode allocates nothing in
// steady state. Each card's name is read from this engine's own net,
// which is the net the entry was computed on, since an entry is served
// only under its own stamp.
func (e *Engine) decodeResponse(dst *Response, v []byte) {
	n := int(binary.LittleEndian.Uint32(v))
	v = v[4:]
	dst.Cards = slices.Grow(dst.Cards[:0], n)[:n]
	for i := range dst.Cards {
		card := &dst.Cards[i]
		card.Concept = core.NodeID(binary.LittleEndian.Uint32(v))
		nd, _ := e.net.Node(card.Concept)
		card.Name = nd.Name
		card.Items, v = core.ReadIDList(card.Items, v[4:])
	}
	dst.Items, _ = core.ReadIDList(dst.Items, v)
}

// Covered reports whether every non-stopword token of the query is part of
// some known concept surface — the Section 7.1 coverage criterion.
func (e *Engine) Covered(tokens []string) bool {
	sc := e.pool.Get().(*scratch)
	defer e.pool.Put(sc)
	sc.segs = text.SegmentFunc(&sc.match, sc.segs[:0], tokens, e.maxLen, e.hasPhrase)
	for _, seg := range sc.segs {
		if seg.Match {
			continue
		}
		for i := seg.Start; i < seg.End; i++ {
			if !e.stopwords[tokens[i]] {
				return false
			}
		}
	}
	return true
}

// NewCPVEngine builds the Section 7.1 baseline: an engine that only knows
// CPV vocabulary (categories, brands and property values) — no e-commerce
// concepts, no general-purpose domains.
func NewCPVEngine(net *core.ShardSet, stopwords []string) *Engine {
	cpvDomains := map[string]bool{
		"Category": true, "Brand": true, "Color": true, "Material": true,
		"Design": true, "Function": true, "Pattern": true, "Shape": true,
		"Smell": true, "Taste": true, "Style": true, "Quantity": true,
	}
	prims := net.NodesOfKind(core.KindPrimitive)
	e := newEngine(net, stopwords, len(prims))
	for _, id := range prims {
		if nd, _ := net.Node(id); cpvDomains[nd.Domain] {
			e.addPhrase(nd.Name)
		}
	}
	return e
}
