package recommend

import (
	"context"
	"math/rand"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/qcache"
	"alicoco/internal/raceflag"
)

// TestRecommendCachedMatchesUncached replays randomized sessions (drawn
// from a small pool, so repeats hit the cache) through a cached engine and
// compares every outcome — found flag, concept, reason, items — against an
// uncached twin.
func TestRecommendCachedMatchesUncached(t *testing.T) {
	a := scratchArts(t)
	cache := qcache.New(128)
	frozen := a.Net.Freeze()
	cached := NewEngine(frozen)
	cached.UseCache(cache, qcache.Stamp{Gen: 1})
	plain := NewEngine(frozen)

	rng := rand.New(rand.NewSource(31))
	sessions := randomSessions(a, rng, 40)
	var reused Recommendation
	for trial := 0; trial < 600; trial++ {
		sess := sessions[rng.Intn(len(sessions))]
		k := 1 + rng.Intn(3)*5
		okCached := mustRecommendInto(t, cached, &reused, sess, k)
		fresh, okFresh := plain.RecommendRanked(sess, k, nil)
		if okCached != okFresh || (okCached && !recsEqual(reused, fresh)) {
			t.Fatalf("trial %d: cached recommendation differs (k=%d):\ncached %v %+v\nfresh  %v %+v",
				trial, k, okCached, reused, okFresh, fresh)
		}
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("stream produced no cache hits; test is vacuous")
	}
}

// TestRecommendScoredPathBypassesCache: RecommendRanked with a score
// function must not read or write the cache (the closure can change
// between calls).
func TestRecommendScoredPathBypassesCache(t *testing.T) {
	a := scratchArts(t)
	cache := qcache.New(128)
	e := NewEngine(a.Net.Freeze())
	e.UseCache(cache, qcache.Stamp{Gen: 1})
	rng := rand.New(rand.NewSource(7))
	sess := randomSessions(a, rng, 1)[0]
	e.RecommendRanked(sess, 5, func(_ []core.NodeID, item core.NodeID) float64 { return float64(item) })
	if st := cache.Stats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("scored path touched the cache: %+v", st)
	}
	// The unscored path with the same session still works and caches.
	if _, _, err := e.RecommendCtx(context.Background(), sess, 5); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 1 {
		t.Fatalf("unscored path did not consult the cache: %+v", st)
	}
}

// TestRecommendCachedHitZeroAllocs: a session served from the cache into a
// reused Recommendation performs zero allocations.
func TestRecommendCachedHitZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	a := scratchArts(t)
	cache := qcache.New(64)
	e := NewEngine(a.Net.Freeze())
	e.UseCache(cache, qcache.Stamp{Gen: 1})
	rng := rand.New(rand.NewSource(13))
	sess := randomSessions(a, rng, 1)[0]
	ctx := context.Background()
	var rec Recommendation
	mustRecommendInto(t, e, &rec, sess, 10) // miss: computes and stores
	mustRecommendInto(t, e, &rec, sess, 10) // hit: warms the copy path
	allocs := testing.AllocsPerRun(200, func() {
		_, _ = e.RecommendInto(ctx, &rec, sess, 10)
	})
	if allocs != 0 {
		t.Fatalf("cached-hit RecommendInto allocates %.1f times per op, want 0", allocs)
	}
	if st := cache.Stats(); st.Hits == 0 {
		t.Fatal("guard never hit the cache")
	}
}

// TestRecommendNegativeOutcomeCached: sessions with no recommendation are
// memoized too (found=false round-trips through the cache).
func TestRecommendNegativeOutcomeCached(t *testing.T) {
	a := scratchArts(t)
	cache := qcache.New(64)
	e := NewEngine(a.Net.Freeze())
	e.UseCache(cache, qcache.Stamp{Gen: 1})
	var rec Recommendation
	if mustRecommendInto(t, e, &rec, nil, 5) {
		t.Fatal("empty session should not recommend")
	}
	if mustRecommendInto(t, e, &rec, nil, 5) {
		t.Fatal("cached empty session should not recommend")
	}
	if rec.Concept != core.InvalidNode || rec.Reason != "" || len(rec.Items) != 0 {
		t.Fatalf("cached negative outcome leaked state: %+v", rec)
	}
	if st := cache.Stats(); st.Hits != 1 {
		t.Fatalf("negative outcome not served from cache: %+v", st)
	}
}
