package search

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"

	"alicoco/internal/qcache"
	"alicoco/internal/raceflag"
)

// TestSearchCachedMatchesUncached replays a randomized query stream (with
// heavy repetition, so hits actually occur) through a cached engine and
// compares every answer against an uncached twin — the cache may never
// change an answer, only its cost.
func TestSearchCachedMatchesUncached(t *testing.T) {
	a := buildArts(t)
	cache := qcache.New(256)
	frozen := a.Net.Freeze()
	cached := NewEngine(frozen, a.World.Stopwords())
	cached.UseCache(cache, qcache.Stamp{Gen: 1})
	plain := NewEngine(frozen, a.World.Stopwords())

	rng := rand.New(rand.NewSource(23))
	queries := []string{"outdoor barbecue", "barbecue outdoor", "grill", "", "UNKNOWN words"}
	for _, qs := range a.World.QuerySet(40) {
		queries = append(queries, strings.Join(qs.Tokens, " "))
	}
	var reused Response
	for trial := 0; trial < 600; trial++ {
		q := queries[rng.Intn(len(queries))]
		maxItems := rng.Intn(4) * 5 // repeats (q, maxItems) pairs often
		mustSearchInto(t, cached, &reused, q, maxItems)
		fresh := mustSearch(t, plain, q, maxItems)
		if !respEqual(reused, fresh) {
			t.Fatalf("trial %d: cached answer differs for %q (maxItems=%d):\ncached %+v\nfresh  %+v",
				trial, q, maxItems, reused, fresh)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("stream produced no cache hits; test is vacuous")
	}
}

// TestSearchCacheStampMiss: an engine on a newer stamp must never serve
// entries a previous engine wrote against the same shared cache.
func TestSearchCacheStampMiss(t *testing.T) {
	a := buildArts(t)
	shared := qcache.New(256)
	old := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	old.UseCache(shared, qcache.Stamp{Gen: 1})
	mustSearch(t, old, "outdoor barbecue", 10) // populates gen-1 entry

	next := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	next.UseCache(shared, qcache.Stamp{Gen: 2})
	before := shared.Stats()
	resp := mustSearch(t, next, "outdoor barbecue", 10)
	after := shared.Stats()
	if after.Hits != before.Hits {
		t.Fatal("gen-2 engine hit a gen-1 entry")
	}
	if len(resp.Cards) == 0 {
		t.Fatal("recomputed answer is wrong")
	}
	// And the recomputed entry now serves gen-2 lookups.
	mustSearch(t, next, "outdoor barbecue", 10)
	if final := shared.Stats(); final.Hits != after.Hits+1 {
		t.Fatal("gen-2 entry not cached")
	}
}

// TestSearchVotingZeroAllocs is the CI guard for the tentpole property: a
// non-exact (primitive-voting) query served from a frozen snapshot into a
// reused Response does zero allocations per call — the pooled segmenter
// scratch and byte-keyed surface lookups closed the last leaks.
func TestSearchVotingZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	// "barbecue outdoor" is not an e-commerce concept surface, so it takes
	// the voting path end-to-end (segmentation, primitive votes, card
	// ranking, plain item hits).
	ctx, q := context.Background(), []byte("barbecue outdoor")
	var resp Response
	mustSearchInto(t, e, &resp, string(q), 10) // warm pooled scratch + resp
	if len(resp.Cards) == 0 && len(resp.Items) == 0 {
		t.Fatal("voting query should produce results")
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = e.SearchInto(ctx, &resp, q, 10)
	})
	if allocs != 0 {
		t.Fatalf("voting SearchInto allocates %.1f times per op, want 0", allocs)
	}
}

// TestSearchCachedHitZeroAllocs: a cache hit deep-copied into a reused
// Response is also allocation-free, so attaching the cache cannot regress
// the zero-alloc serving property.
func TestSearchCachedHitZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	a := buildArts(t)
	cache := qcache.New(64)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	e.UseCache(cache, qcache.Stamp{Gen: 1})
	ctx, q := context.Background(), []byte("barbecue outdoor")
	var resp Response
	mustSearchInto(t, e, &resp, string(q), 10) // miss: computes and stores
	mustSearchInto(t, e, &resp, string(q), 10) // hit: warms the copy path
	allocs := testing.AllocsPerRun(200, func() {
		_ = e.SearchInto(ctx, &resp, q, 10)
	})
	if allocs != 0 {
		t.Fatalf("cached-hit SearchInto allocates %.1f times per op, want 0", allocs)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("guard never hit the cache")
	}
}

// TestSearchCacheEntriesHoldNoNames: a cached entry keeps no card name —
// its value holds none of the name's bytes — so it cannot keep the name
// arena of the snapshot that computed it alive; a hit reads each name from
// the engine's own net instead.
func TestSearchCacheEntriesHoldNoNames(t *testing.T) {
	a := buildArts(t)
	cache := qcache.New(64)
	stamp := qcache.Stamp{Gen: 1}
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	e.UseCache(cache, stamp)
	miss := mustSearch(t, e, "outdoor barbecue", 10)
	if len(miss.Cards) == 0 || miss.Cards[0].Name != "outdoor barbecue" {
		t.Fatalf("exact-match query answered %+v", miss)
	}
	v, ok := cache.Get(stamp, appendSearchKey(nil, []byte("outdoor barbecue"), 10))
	if !ok {
		t.Fatal("miss did not fill the cache")
	}
	for _, card := range miss.Cards {
		if bytes.Contains(v, []byte(card.Name)) {
			t.Fatalf("cached value %q keeps card %d's name %q", v, card.Concept, card.Name)
		}
	}
	if hit := mustSearch(t, e, "outdoor barbecue", 10); !respEqual(hit, miss) {
		t.Fatalf("hit %+v differs from miss %+v", hit, miss)
	}
}
