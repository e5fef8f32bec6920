package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"alicoco"
	"alicoco/internal/qcache"
)

// cachedFixture is a store-loaded server with every cache layer on,
// built from the shared test net.
func cachedFixture(t *testing.T) *server {
	t.Helper()
	_, _, dir := snapshotFixture(t)
	return serveStore(t, dir, cacheCfg(1024))
}

// TestCachedResponsesByteIdentical is the regression guard for the
// encoded-bytes cache: the first (miss) response, every subsequent (hit)
// response, and a cache-disabled server's response must be byte-identical
// — caching may change cost, never content.
func TestCachedResponsesByteIdentical(t *testing.T) {
	s := cachedFixture(t)
	uncached := serveStore(t, s.store.Root(), cacheCfg(0))

	sessions := testServer(t).coco.SampleSessions(2)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = fmt.Sprint(id)
	}
	urls := []string{
		"/search?q=outdoor+barbecue",
		"/search?q=barbecue+outdoor", // voting path
		"/search?q=grill",
		"/recommend?items=" + strings.Join(parts, ",") + "&k=5",
	}
	for _, url := range urls {
		missCode, missBody := get(s, url)
		if missCode != http.StatusOK {
			t.Fatalf("%s: miss status %d", url, missCode)
		}
		for i := 0; i < 3; i++ {
			hitCode, hitBody := get(s, url)
			if hitCode != missCode || hitBody != missBody {
				t.Fatalf("%s: hit %d differs from miss:\nmiss %q\nhit  %q", url, i, missBody, hitBody)
			}
		}
		unCode, unBody := get(uncached, url)
		if unCode != missCode || unBody != missBody {
			t.Fatalf("%s: uncached server differs:\ncached   %q\nuncached %q", url, missBody, unBody)
		}
	}
	// The loop above must actually have exercised the byte caches.
	ci := s.cacheInfo()
	if ci.SearchBytes.Hits == 0 || ci.RecommendBytes.Hits == 0 {
		t.Fatalf("byte caches never hit: %+v", ci)
	}
	if un := uncached.cacheInfo(); un.SearchBytes.Hits+un.SearchBytes.Misses != 0 {
		t.Fatalf("disabled cache recorded traffic: %+v", un)
	}
}

// TestStatsCacheSection: /stats exposes per-layer hit/miss counters that
// move with traffic.
func TestStatsCacheSection(t *testing.T) {
	s := cachedFixture(t)
	get(s, "/search?q=grill")
	get(s, "/search?q=grill")
	var resp struct {
		Cache cacheInfo `json:"cache"`
	}
	_, body := get(s, "/stats")
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	ci := resp.Cache
	if ci.SearchBytes.Hits == 0 || ci.SearchBytes.Misses == 0 {
		t.Fatalf("search_bytes counters did not move: %+v", ci)
	}
	if ci.Search.Capacity == 0 || ci.SearchBytes.Capacity == 0 {
		t.Fatalf("cache capacities missing from stats: %+v", ci)
	}
}

// TestCacheHitSkipsRecomputation: after a warm-up request the byte cache
// answers without touching the facade caches (one lookup, one write).
func TestCacheHitSkipsRecomputation(t *testing.T) {
	s := cachedFixture(t)
	get(s, "/search?q=winter+coat")
	before := s.cacheInfo()
	get(s, "/search?q=winter+coat")
	after := s.cacheInfo()
	if after.SearchBytes.Hits != before.SearchBytes.Hits+1 {
		t.Fatalf("expected one byte-cache hit: %+v -> %+v", before, after)
	}
	if after.Search.Hits != before.Search.Hits || after.Search.Misses != before.Search.Misses {
		t.Fatalf("byte-cache hit still consulted the result cache: %+v -> %+v", before, after)
	}
}

// TestServeNoStaleAcrossReload hammers /search and /recommend while
// generations of two different nets are committed in turn and POST /reload
// republishes. Every concurrent response must match one of the two nets
// exactly, and — the stale-generation assertion — a request issued after
// a reload completes must answer from the just-loaded net, never from
// bytes cached against the previous generation.
func TestServeNoStaleAcrossReload(t *testing.T) {
	optsA := alicoco.Options{Seed: 7, ItemsPerCategory: 2, Scenarios: 12, CorpusSentences: 150}
	optsB := alicoco.Options{Seed: 11, ItemsPerCategory: 3, Scenarios: 12, CorpusSentences: 150}
	cocoA, err := alicoco.Build(optsA)
	if err != nil {
		t.Fatal(err)
	}
	cocoB, err := alicoco.Build(optsB)
	if err != nil {
		t.Fatal(err)
	}
	live := saveStore(t, cocoA, 1)
	s := serveStore(t, live, cacheCfg(1024))

	// Canonical responses per snapshot, computed on dedicated uncached
	// servers. The recommend session is picked dynamically: the first one
	// both nets answer 200 with *different* bodies, so a stale hit is
	// detectable.
	canonSrv := [2]*server{
		serveStore(t, saveStore(t, cocoA, 1), cacheCfg(0)),
		serveStore(t, saveStore(t, cocoB, 1), cacheCfg(0)),
	}
	urls := []string{"/search?q=outdoor+barbecue"}
	for i := 0; i < 40; i++ {
		u := fmt.Sprintf("/recommend?items=%d,%d,%d&k=5", i, i+1, i+2)
		codeA, bodyA := get(canonSrv[0], u)
		codeB, bodyB := get(canonSrv[1], u)
		if codeA == http.StatusOK && codeB == http.StatusOK && bodyA != bodyB {
			urls = append(urls, u)
			break
		}
	}
	if len(urls) < 2 {
		t.Fatal("no recommend session distinguishes the two snapshots")
	}
	canon := make(map[string][2]string) // url -> per-snapshot body
	for i := range canonSrv {
		for _, u := range urls {
			_, body := get(canonSrv[i], u)
			pair := canon[u]
			pair[i] = body
			canon[u] = pair
		}
	}
	for _, u := range urls {
		if canon[u][0] == canon[u][1] {
			t.Fatalf("%s answers identically on both snapshots; staleness undetectable", u)
		}
	}

	stop := make(chan struct{})
	errc := make(chan error, 8)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				u := urls[g%len(urls)]
				_, body := get(s, u)
				if body != canon[u][0] && body != canon[u][1] {
					errc <- fmt.Errorf("%s: response matches neither snapshot: %q", u, body)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 10; i++ {
		want := i % 2 // 0 -> A, 1 -> B ... starting by switching to B
		want = 1 - want
		if _, err := [2]*alicoco.CoCo{cocoA, cocoB}[want].SaveShards(live, 1); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
		}
		// The reload has returned: the new generation is published, so a
		// stale cached response from the old net would surface right here.
		for _, u := range urls {
			_, body := get(s, u)
			if body != canon[u][want] {
				t.Fatalf("reload %d: %s served stale generation:\ngot  %q\nwant %q", i, u, body, canon[u][want])
			}
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

// TestQueryParamFastPath pins the RawQuery scanner against net/url
// semantics for the shapes the handlers rely on.
func TestQueryParamFastPath(t *testing.T) {
	cases := []struct {
		raw, key, want string
		found          bool
	}{
		{"q=grill", "q", "grill", true},
		{"q=outdoor+barbecue", "q", "outdoor barbecue", true},
		{"q=outdoor%20barbecue", "q", "outdoor barbecue", true},
		{"a=1&q=x&b=2", "q", "x", true},
		{"q=first&q=second", "q", "first", true},
		{"items=1,2,3&k=5", "k", "5", true},
		{"items=1,2,3&k=5", "items", "1,2,3", true},
		{"", "q", "", false},
		{"q", "q", "", false},
		{"qq=x", "q", "", false},
		{"q=%zz", "q", "", false}, // malformed escape: dropped like ParseQuery does
	}
	for _, c := range cases {
		got, found := queryParam(c.raw, c.key)
		if got != c.want || found != c.found {
			t.Errorf("queryParam(%q, %q) = (%q, %v), want (%q, %v)", c.raw, c.key, got, found, c.want, c.found)
		}
	}
}

// TestWriteJSONCachingSkipsStaleStamp: if the serving generation moves
// between reading the stamp and writing the response, the bytes are not
// cached under the outdated stamp.
func TestWriteJSONCachingSkipsStaleStamp(t *testing.T) {
	s := cachedFixture(t)
	stale := qcache.Stamp{Gen: s.coco.CacheStamp().Gen - 1}
	rec := httptest.NewRecorder()
	s.writeJSONCaching(rec, map[string]int{"x": 1}, s.searchBytes, stale, "stale-key")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if _, ok := s.searchBytes.GetString(stale, "stale-key"); ok {
		t.Fatal("response cached under a stamp that is no longer current")
	}
}
