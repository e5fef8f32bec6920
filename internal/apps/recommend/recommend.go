// Package recommend implements cognitive recommendation (Section 8.2):
// concept cards inferred from a user's viewed items, recommendation reasons
// (the concept name), and the item-CF baseline it is compared against.
package recommend

import (
	"context"
	"encoding/binary"
	"sort"
	"sync"

	"alicoco/internal/core"
	"alicoco/internal/par"
	"alicoco/internal/qcache"
	"alicoco/internal/topk"
)

// Recommendation is a Figure 2(b/c) card: a concept, the reason string shown
// to the user, and the recommended items. A Recommendation can be reused
// across sessions via RecommendInto, which recycles the Items backing array.
type Recommendation struct {
	Concept core.NodeID
	Reason  string
	Items   []core.NodeID
}

// scratch is the per-request working memory of one session, recycled
// through a sync.Pool so steady-state sessions reuse the vote map, the
// viewed-set, and the ranking heap instead of allocating their own.
type scratch struct {
	votes map[core.NodeID]float64 // concept -> accumulated edge weight
	seen  map[core.NodeID]bool    // viewed items, excluded from results
	key   []byte                  // session-cache key (k + viewed node ids)
	val   []byte                  // packed outcome handed to the session cache
	heap  topk.Heap
}

// Engine recommends via the concept net. It reads a frozen *core.ShardSet,
// with lock-free lookups and pre-sorted item postings; Engine methods are
// safe for concurrent use — concurrent calls each draw their own pooled
// scratch.
type Engine struct {
	net *core.ShardSet
	// reasons precomputes the "for <concept>" reason string of every
	// e-commerce concept of the set, so serving a session builds no
	// strings. The set never changes, so every concept a session can
	// vote for has one.
	reasons map[core.NodeID]string
	pool    sync.Pool // *scratch
	// cache, when attached, memoizes sessions keyed on (k, viewed ids)
	// and stamped with the serving snapshot's generation; see UseCache.
	cache *qcache.Cache
	stamp qcache.Stamp
}

// NewEngine wraps a frozen net.
func NewEngine(net *core.ShardSet) *Engine {
	e := &Engine{net: net, reasons: make(map[core.NodeID]string)}
	for _, id := range net.NodesOfKind(core.KindEConcept) {
		nd, _ := net.Node(id)
		e.reasons[id] = "for " + nd.Name
	}
	e.pool.New = func() any {
		return &scratch{
			votes: make(map[core.NodeID]float64),
			seen:  make(map[core.NodeID]bool),
		}
	}
	return e
}

// UseCache attaches a shared session-result cache. Entries are stamped
// with the publish generation (and snapshot checksum) of the net this
// engine serves, so a reload or refreeze invalidates everything cached
// against older snapshots without any scan. Only the unscored path
// (score == nil, the serving configuration) is memoized: a caller-supplied
// ranking closure could change between calls, so scored sessions always
// compute. An entry holds the outcome packed as node IDs (see
// appendOutcome); a hit decodes it into the caller's reused
// Recommendation, keeping RecommendInto allocation-free.
func (e *Engine) UseCache(c *qcache.Cache, stamp qcache.Stamp) {
	e.cache = c
	e.stamp = stamp
}

// RecommendCtx infers the user's latent shopping scenario from viewed
// items (each viewed item votes for the e-commerce concepts it serves),
// then recommends unseen items of the winning concept. The concept name is
// the recommendation reason (Section 8.2.2). The engine checks ctx per
// viewed item during concept voting and before the candidate scan, so a
// session stalled by one slow shard is abandoned at the next shard
// boundary instead of stalling the caller past its deadline. A cache hit
// never consults ctx. On error the Recommendation must be discarded.
func (e *Engine) RecommendCtx(ctx context.Context, viewed []core.NodeID, k int) (Recommendation, bool, error) {
	var rec Recommendation
	ok, err := e.RecommendInto(ctx, &rec, viewed, k)
	return rec, ok, err
}

// RecommendInto is RecommendCtx writing into a caller-owned
// Recommendation, recycling its Items backing array across sessions.
func (e *Engine) RecommendInto(ctx context.Context, rec *Recommendation, viewed []core.NodeID, k int) (bool, error) {
	return e.recommendRanked(ctx, rec, viewed, k, nil)
}

// RecommendRanked is the offline form of RecommendCtx, with no deadline
// and an item-scoring model applied inside the concept's candidate set —
// the paper's production split of concept recall followed by ranking
// ("recommends items with highest weights after scoring with a ranking
// model", Section 1). score may be nil (edge-weight order, the answer
// RecommendCtx gives).
func (e *Engine) RecommendRanked(viewed []core.NodeID, k int, score func(viewed []core.NodeID, item core.NodeID) float64) (Recommendation, bool) {
	var rec Recommendation
	ok, _ := e.recommendRanked(context.Background(), &rec, viewed, k, score)
	return rec, ok
}

// recommendRanked is the shared core: cache probe, engine dispatch, cache
// fill. RecommendRanked passes context.Background(), whose Err is a
// constant nil, so it never reports an error.
func (e *Engine) recommendRanked(ctx context.Context, rec *Recommendation, viewed []core.NodeID, k int, score func(viewed []core.NodeID, item core.NodeID) float64) (bool, error) {
	sc := e.pool.Get().(*scratch)
	defer e.pool.Put(sc)
	rec.Concept = core.InvalidNode
	rec.Reason = ""
	rec.Items = rec.Items[:0]

	cached := e.cache != nil && score == nil
	if cached {
		sc.key = appendSessionKey(sc.key[:0], viewed, k)
		if v, ok := e.cache.Get(e.stamp, sc.key); ok {
			return e.decodeOutcome(rec, v), nil
		}
	}
	ok, err := e.recommendUncached(ctx, sc, rec, viewed, k, score)
	if err != nil {
		// Abandoned mid-computation: rec is partial, never cache it.
		return false, err
	}
	if cached {
		sc.val = appendOutcome(sc.val[:0], ok, rec)
		e.cache.Put(e.stamp, sc.key, sc.val)
	}
	return ok, nil
}

// appendOutcome packs a session's outcome as a cache value: the found
// flag, the concept and the items as uint32 node IDs. The reason is left
// out; a hit derives it from the concept.
func appendOutcome(dst []byte, ok bool, rec *Recommendation) []byte {
	var found byte
	if ok {
		found = 1
	}
	dst = append(dst, found)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Concept))
	return core.AppendIDList(dst, rec.Items)
}

// decodeOutcome unpacks an appendOutcome value into a caller-owned
// Recommendation, reviving its Items backing array, and returns the found
// flag. The reason comes from reasons, as on the uncached path; a session
// no concept matched keeps the empty reason.
func (e *Engine) decodeOutcome(rec *Recommendation, v []byte) bool {
	rec.Concept = core.NodeID(binary.LittleEndian.Uint32(v[1:]))
	rec.Reason = e.reasons[rec.Concept]
	rec.Items, _ = core.ReadIDList(rec.Items, v[5:])
	return v[0] == 1
}

// appendSessionKey builds the cache key: k (part of the answer shape,
// full 64-bit so distinct values can never collide) followed by the
// viewed item nodes in session order.
func appendSessionKey(dst []byte, viewed []core.NodeID, k int) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, uint64(int64(k)))
	for _, id := range viewed {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// recommendUncached computes the recommendation; sc is the caller's pooled
// scratch, and rec has already been reset. ctx is checked per viewed item
// and before the candidate scan — each check sits just after a shard
// crossing, so a session stalled by one slow shard is abandoned at the
// next boundary.
func (e *Engine) recommendUncached(ctx context.Context, sc *scratch, rec *Recommendation, viewed []core.NodeID, k int, score func(viewed []core.NodeID, item core.NodeID) float64) (bool, error) {
	clear(sc.votes)
	for _, item := range viewed {
		if err := ctx.Err(); err != nil {
			return false, err
		}
		for _, he := range e.net.EConceptsForItem(item, 0) {
			sc.votes[he.Peer] += he.Weight()
		}
	}
	if len(sc.votes) == 0 {
		return false, nil
	}
	// Top-1 selection through the bounded heap: O(concepts) with the same
	// (weight desc, id asc) order the full sort produced.
	sc.heap.Reset(1)
	for id, v := range sc.votes {
		sc.heap.Push(id, v)
	}
	best := sc.heap.Descending()[0].ID
	rec.Concept = best
	rec.Reason = e.reasons[best]
	clear(sc.seen)
	for _, v := range viewed {
		sc.seen[v] = true
	}
	if err := ctx.Err(); err != nil {
		return false, err
	}
	candidates := e.net.ItemsForEConcept(best, 0)
	if score != nil {
		// Score-ranked selection: a k-bounded heap does O(n log k) work
		// instead of sorting every unseen candidate. k <= 0 still yields
		// the single best candidate, as the sorted path always did.
		if k < 1 {
			k = 1
		}
		sc.heap.Reset(k)
		for _, he := range candidates {
			if sc.seen[he.Peer] {
				continue
			}
			sc.heap.Push(he.Peer, score(viewed, he.Peer))
		}
		for _, ent := range sc.heap.Descending() {
			rec.Items = append(rec.Items, ent.ID)
		}
		return len(rec.Items) > 0, nil
	}
	// Edge-weight order: postings are pre-sorted (at freeze time on the
	// serving store), so the first k unseen candidates are the answer.
	for _, he := range candidates {
		if sc.seen[he.Peer] {
			continue
		}
		rec.Items = append(rec.Items, he.Peer)
		if len(rec.Items) >= k {
			break
		}
	}
	return len(rec.Items) > 0, nil
}

// CoViewScore builds a ranking function from co-view statistics, for use
// with RecommendRanked.
func CoViewScore(cf *ItemCF) func(viewed []core.NodeID, item core.NodeID) float64 {
	return func(viewed []core.NodeID, item core.NodeID) float64 {
		var s float64
		for _, v := range viewed {
			s += cf.co[v][item]
		}
		return s
	}
}

// ItemCF is the item-based collaborative filtering baseline of Section 1:
// recommendations are the items most co-viewed with the trigger items.
type ItemCF struct {
	co map[core.NodeID]map[core.NodeID]float64
}

// NewItemCF builds the co-occurrence model from historical sessions (each a
// set of item nodes seen together).
func NewItemCF(sessions [][]core.NodeID) *ItemCF {
	cf := &ItemCF{co: make(map[core.NodeID]map[core.NodeID]float64)}
	for _, s := range sessions {
		for i, a := range s {
			for j, b := range s {
				if i == j {
					continue
				}
				if cf.co[a] == nil {
					cf.co[a] = make(map[core.NodeID]float64)
				}
				cf.co[a][b]++
			}
		}
	}
	return cf
}

// Recommend returns the k items most co-viewed with the trigger set.
func (cf *ItemCF) Recommend(viewed []core.NodeID, k int) []core.NodeID {
	scores := make(map[core.NodeID]float64)
	seen := make(map[core.NodeID]bool, len(viewed))
	for _, v := range viewed {
		seen[v] = true
	}
	for _, v := range viewed {
		for peer, c := range cf.co[v] {
			if !seen[peer] {
				scores[peer] += c
			}
		}
	}
	type scored struct {
		id core.NodeID
		v  float64
	}
	ranked := make([]scored, 0, len(scores))
	for id, v := range scores {
		ranked = append(ranked, scored{id, v})
	}
	sort.Slice(ranked, func(i, j int) bool {
		if ranked[i].v != ranked[j].v {
			return ranked[i].v > ranked[j].v
		}
		return ranked[i].id < ranked[j].id
	})
	out := make([]core.NodeID, 0, k)
	for _, s := range ranked {
		out = append(out, s.id)
		if len(out) >= k {
			break
		}
	}
	return out
}

// EvalResult is the offline replay outcome (Section 8.2.1): hit rate on
// held-out clicks (the CTR proxy) and novelty (recommended items outside the
// viewed items' categories).
type EvalResult struct {
	HitRate float64
	Novelty float64
	Covered float64 // fraction of sessions with any recommendation
}

// Recommender is anything mapping viewed items to recommendations.
type Recommender func(viewed []core.NodeID, k int) []core.NodeID

// Replay evaluates a recommender on test sessions: for each session the
// recommender sees the viewed items and is scored on whether it retrieves
// the held-out clicked items. Sessions are independent, so they fan out
// across GOMAXPROCS workers — rec must be safe for concurrent calls (the
// Engine and ItemCF recommenders are). Per-session outcomes land in
// index-addressed slots and are reduced in session order, so the result is
// deterministic regardless of scheduling.
func Replay(net *core.ShardSet, rec Recommender, sessions [][2][]core.NodeID, k int) EvalResult {
	type outcome struct {
		counted, covered bool
		hit, novelty     float64
	}
	outs := make([]outcome, len(sessions))
	par.For(0, len(sessions), func(i int) {
		viewed, clicked := sessions[i][0], sessions[i][1]
		if len(viewed) == 0 || len(clicked) == 0 {
			return
		}
		outs[i].counted = true
		items := rec(viewed, k)
		if len(items) == 0 {
			return
		}
		outs[i].covered = true
		clickSet := make(map[core.NodeID]bool, len(clicked))
		for _, c := range clicked {
			clickSet[c] = true
		}
		hits := 0
		for _, it := range items {
			if clickSet[it] {
				hits++
			}
		}
		denom := len(clicked)
		if k < denom {
			denom = k
		}
		outs[i].hit = float64(hits) / float64(denom)
		outs[i].novelty = noveltyOf(net, viewed, items)
	})
	var res EvalResult
	nSessions := 0
	for _, o := range outs {
		if !o.counted {
			continue
		}
		nSessions++
		if !o.covered {
			continue
		}
		res.Covered++
		res.HitRate += o.hit
		res.Novelty += o.novelty
	}
	if res.Covered > 0 {
		res.HitRate /= res.Covered
		res.Novelty /= res.Covered
	}
	if nSessions > 0 {
		res.Covered /= float64(nSessions)
	}
	return res
}

// noveltyOf returns the fraction of recommended items whose category
// primitive differs from every viewed item's category.
func noveltyOf(net *core.ShardSet, viewed, recommended []core.NodeID) float64 {
	viewedCats := make(map[core.NodeID]bool)
	for _, v := range viewed {
		for _, he := range net.Out(v, core.EdgeItemPrimitive) {
			nd, _ := net.Node(he.Peer)
			if nd.Domain == "Category" {
				viewedCats[he.Peer] = true
			}
		}
	}
	if len(recommended) == 0 {
		return 0
	}
	novel := 0
	for _, r := range recommended {
		isNovel := true
		for _, he := range net.Out(r, core.EdgeItemPrimitive) {
			if viewedCats[he.Peer] {
				isNovel = false
				break
			}
		}
		if isNovel {
			novel++
		}
	}
	return float64(novel) / float64(len(recommended))
}
