package alicoco

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// cacheTestOptions are two deliberately different builds: the handcrafted
// concepts ("outdoor barbecue") exist in both, but the item layer differs,
// so the same query answers differently — which is what lets the reload
// tests detect a stale-generation cache hit.
func cacheTestOptions() (a, b Options) {
	a = Options{Seed: 7, ItemsPerCategory: 2, Scenarios: 12, CorpusSentences: 150}
	b = Options{Seed: 11, ItemsPerCategory: 3, Scenarios: 12, CorpusSentences: 150}
	return a, b
}

// TestQueryCacheEquivalence: repeated queries served from the cache answer
// identically to the first (miss) computation and to a cache-disabled
// recomputation — over a randomized stream of search queries and sessions.
func TestQueryCacheEquivalence(t *testing.T) {
	c := buildSmall(t)
	rng := rand.New(rand.NewSource(41))
	queries := []string{"outdoor barbecue", "barbecue outdoor", "grill", "coat"}
	sessions := c.SampleSessions(6)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}

	type outcome struct {
		res SearchResult
		rec Recommendation
		ok  bool
	}
	miss := make(map[string]outcome)
	for trial := 0; trial < 200; trial++ {
		q := queries[rng.Intn(len(queries))]
		sess := sessions[rng.Intn(len(sessions))]
		key := fmt.Sprintf("%s|%v", q, sess)
		res := mustSearch(t, c, q, 8)
		rec, ok := mustRecommend(t, c, sess, 5)
		if first, seen := miss[key]; !seen {
			miss[key] = outcome{res: res, rec: rec, ok: ok}
		} else if !reflect.DeepEqual(first.res, res) || first.ok != ok || !reflect.DeepEqual(first.rec, rec) {
			t.Fatalf("trial %d: cached answer drifted for %s", trial, key)
		}
	}
	sStats, rStats := c.QueryCacheStats()
	if sStats.Hits == 0 || rStats.Hits == 0 {
		t.Fatalf("stream produced no cache hits (search %+v, recommend %+v)", sStats, rStats)
	}

	// Cache-disabled recomputation agrees with what the cache served.
	c.SetQueryCacheCapacity(0)
	for key, first := range miss {
		q := strings.SplitN(key, "|", 2)[0]
		if res := mustSearch(t, c, q, 8); !reflect.DeepEqual(first.res, res) {
			t.Fatalf("uncached recomputation differs for %q:\ncached  %+v\nfresh   %+v", q, first.res, res)
		}
	}
}

// TestQueryCacheInvalidatedByRepublish: after an offline mutation
// republishes serving (inference + refreeze), queries must reflect the new
// net — entries cached against the previous generation may not surface.
func TestQueryCacheInvalidatedByRepublish(t *testing.T) {
	c := buildSmall(t)
	const q = "barbecue outdoor" // voting query: sees inferred edges
	for i := 0; i < 3; i++ {
		mustSearch(t, c, q, 8) // populate the gen-1 cache
	}
	if _, err := c.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	got := mustSearch(t, c, q, 8)
	c.SetQueryCacheCapacity(0) // force recomputation on the same snapshot
	want := mustSearch(t, c, q, 8)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-republish answer came from a stale generation:\ncached %+v\nfresh  %+v", got, want)
	}
}

// TestQueryCacheNoStaleAcrossReload hammers Search and Recommend from
// several goroutines while the main goroutine hot-swaps between two
// snapshot stores holding different nets through ReloadShards. Every concurrent answer must match one
// of the two snapshots exactly (never a blend), and — the stale-generation
// assertion — a query issued after a reload returns must match the
// just-loaded snapshot, not the cached answers of the previous one.
func TestQueryCacheNoStaleAcrossReload(t *testing.T) {
	optsA, optsB := cacheTestOptions()
	pathA, pathB := t.TempDir(), t.TempDir()

	cA, err := Build(optsA)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cA.SaveShards(pathA, 1); err != nil {
		t.Fatal(err)
	}
	cB, err := Build(optsB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cB.SaveShards(pathB, 1); err != nil {
		t.Fatal(err)
	}

	const q = "outdoor barbecue"
	session := []int{0, 1, 2}
	type canon struct {
		res SearchResult
		rec Recommendation
		ok  bool
	}
	canonOf := func(c *CoCo) canon {
		res := mustSearch(t, c, q, 8)
		rec, ok := mustRecommend(t, c, session, 5)
		return canon{res: res, rec: rec, ok: ok}
	}
	canonA, canonB := canonOf(cA), canonOf(cB)
	if reflect.DeepEqual(canonA, canonB) {
		t.Fatal("the two snapshots answer identically; staleness would be undetectable")
	}

	c, err := LoadShardedFrozen(pathA)
	if err != nil {
		t.Fatal(err)
	}
	matches := func(got canon) bool {
		return reflect.DeepEqual(got, canonA) || reflect.DeepEqual(got, canonB)
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := canonOf(c); !matches(got) {
					errc <- fmt.Errorf("answer matches neither snapshot: %+v", got)
					return
				}
			}
		}()
	}
	paths := []string{pathB, pathA}
	canons := []canon{canonB, canonA}
	for i := 0; i < 20; i++ {
		if _, err := c.ReloadShards(paths[i%2]); err != nil {
			t.Fatalf("reload %d: %v", i, err)
		}
		// The reload has returned, so the new generation is published:
		// a stale cache hit from the previous snapshot would show up here.
		if got := canonOf(c); !reflect.DeepEqual(got, canons[i%2]) {
			t.Fatalf("reload %d: served stale answer after swapping to %s:\ngot  %+v\nwant %+v",
				i, paths[i%2], got, canons[i%2])
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}
