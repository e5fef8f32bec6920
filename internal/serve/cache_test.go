package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"alicoco"
	"alicoco/internal/qcache"
)

// cachedFixture is a server with every cache layer on over the shared
// test store.
func cachedFixture(t *testing.T) *server {
	t.Helper()
	return serveStore(t, storeOf(testServer(t)), cacheCfg(1024))
}

// TestCachedResponsesByteIdentical is the regression guard for the
// encoded-bytes cache: the first (miss) response, every subsequent (hit)
// response, and a cache-disabled server's response must be byte-identical
// — caching may change cost, never content. That holds for the cached
// error replies too: their status, the Content-Type and
// X-Content-Type-Options headers http.Error sets, and their body.
func TestCachedResponsesByteIdentical(t *testing.T) {
	s := cachedFixture(t)
	uncached := serveStore(t, storeOf(testServer(t)), cacheCfg(0))

	sessions := builtNet(t).SampleSessions(2)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = fmt.Sprint(id)
	}
	cases := []struct {
		url    string
		status int
	}{
		{"/search?q=outdoor+barbecue", http.StatusOK},
		{"/search?q=barbecue+outdoor", http.StatusOK}, // voting path
		{"/search?q=grill", http.StatusOK},
		{"/recommend?items=" + strings.Join(parts, ",") + "&k=5", http.StatusOK},
		{"/search", http.StatusBadRequest}, // no q
		{"/recommend?items=abc", http.StatusBadRequest},
		{"/recommend?items=1&k=0", http.StatusBadRequest},
		{"/recommend?items=999999&k=5", http.StatusNotFound},
	}
	// reply is what a client sees: status, the two headers http.Error
	// sets, and the body.
	reply := func(s *server, url string) string {
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		return fmt.Sprintf("%d %q %q %q", rec.Code, rec.Header().Get("Content-Type"),
			rec.Header().Get("X-Content-Type-Options"), rec.Body.String())
	}
	for _, c := range cases {
		miss := reply(s, c.url)
		if want := fmt.Sprint(c.status) + " "; !strings.HasPrefix(miss, want) {
			t.Fatalf("%s: miss answered %s, want status %d", c.url, miss, c.status)
		}
		for i := 0; i < 3; i++ {
			if hit := reply(s, c.url); hit != miss {
				t.Fatalf("%s: hit %d differs from miss:\nmiss %s\nhit  %s", c.url, i, miss, hit)
			}
		}
		if un := reply(uncached, c.url); un != miss {
			t.Fatalf("%s: uncached server differs:\ncached   %s\nuncached %s", c.url, miss, un)
		}
	}
	// The loop above must actually have exercised the byte caches.
	p := scrape(t, s.mux())
	sHits, _ := p.Value("cocoserve_cache_hits_total", "layer", "search_bytes")
	rHits, _ := p.Value("cocoserve_cache_hits_total", "layer", "recommend_bytes")
	if sHits == 0 || rHits == 0 {
		t.Fatalf("byte caches never hit: search_bytes %v, recommend_bytes %v", sHits, rHits)
	}
	un := scrape(t, uncached.mux())
	unHits, _ := un.Value("cocoserve_cache_hits_total", "layer", "search_bytes")
	unMisses, _ := un.Value("cocoserve_cache_misses_total", "layer", "search_bytes")
	if unHits+unMisses != 0 {
		t.Fatalf("disabled cache recorded traffic: %v hits, %v misses", unHits, unMisses)
	}
}

// TestStatsCacheSection: the per-layer cache series (which /stats renders
// under "metrics") carry hit/miss counters that move with traffic.
func TestStatsCacheSection(t *testing.T) {
	s := cachedFixture(t)
	get(s, "/search?q=grill")
	get(s, "/search?q=grill")
	p := scrape(t, s.mux())
	hits, _ := p.Value("cocoserve_cache_hits_total", "layer", "search_bytes")
	misses, _ := p.Value("cocoserve_cache_misses_total", "layer", "search_bytes")
	if hits == 0 || misses == 0 {
		t.Fatalf("search_bytes counters did not move: %v hits, %v misses", hits, misses)
	}
	searchCap, _ := p.Value("cocoserve_cache_capacity", "layer", "search")
	bytesCap, _ := p.Value("cocoserve_cache_capacity", "layer", "search_bytes")
	if searchCap == 0 || bytesCap == 0 {
		t.Fatalf("cache capacities missing: search %v, search_bytes %v", searchCap, bytesCap)
	}
}

// TestCacheHitSkipsRecomputation: after a warm-up request the byte cache
// answers without touching the facade caches (one lookup, one write).
func TestCacheHitSkipsRecomputation(t *testing.T) {
	s := cachedFixture(t)
	get(s, "/search?q=winter+coat")
	layers := func() [3]float64 {
		p := scrape(t, s.mux())
		bytesHits, _ := p.Value("cocoserve_cache_hits_total", "layer", "search_bytes")
		hits, _ := p.Value("cocoserve_cache_hits_total", "layer", "search")
		misses, _ := p.Value("cocoserve_cache_misses_total", "layer", "search")
		return [3]float64{bytesHits, hits, misses}
	}
	before := layers()
	get(s, "/search?q=winter+coat")
	after := layers()
	if after[0] != before[0]+1 {
		t.Fatalf("expected one byte-cache hit: search_bytes hits %v -> %v", before[0], after[0])
	}
	if after[1] != before[1] || after[2] != before[2] {
		t.Fatalf("byte-cache hit still consulted the result cache: search hits/misses %v -> %v", before[1:], after[1:])
	}
}

// TestNoopReloadKeepsBytesCachesWarm: a POST /reload that finds the
// store's newest generation already serving publishes nothing, so a
// repeated /search and a repeated /recommend still hit the encoded-bytes
// caches after it.
func TestNoopReloadKeepsBytesCachesWarm(t *testing.T) {
	s := testServer(t)
	sessions := builtNet(t).SampleSessions(1)
	if len(sessions) == 0 || len(sessions[0]) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = fmt.Sprint(id)
	}
	urls := map[string]string{
		"search_bytes":    "/search?q=outdoor+barbecue",
		"recommend_bytes": "/recommend?items=" + strings.Join(parts, ",") + "&k=5",
	}
	for _, u := range urls {
		get(s, u) // a first sighting may be declined; the second is stored
		get(s, u)
	}
	if code, body := post(s, "/reload", ""); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	for layer, u := range urls {
		before := metricValue(t, s, "cocoserve_cache_hits_total", "layer", layer)
		if code, body := get(s, u); code != http.StatusOK {
			t.Fatalf("%s: %d %s", u, code, body)
		}
		if got := metricValue(t, s, "cocoserve_cache_hits_total", "layer", layer) - before; got != 1 {
			t.Errorf("%s after a no-op reload: %v %s hits, want 1", u, got, layer)
		}
	}
}

// TestOneOffQueriesFillOnlyOpenEighth: searches and sessions that never
// repeat fill only the eighth of each cache layer that stores every offer
// — past it each is declined as a first sighting — while a repeated key is
// then a hit on its third request.
func TestOneOffQueriesFillOnlyOpenEighth(t *testing.T) {
	s := cachedFixture(t)
	var items []string
	seen := map[int]bool{}
	for _, sess := range builtNet(t).SampleSessions(64) { // the net cachedFixture serves
		for _, id := range sess {
			if !seen[id] {
				seen[id] = true
				items = append(items, fmt.Sprint(id))
			}
		}
	}
	if len(items) < 64 {
		t.Fatalf("only %d distinct session items", len(items))
	}
	const n = 2000
	for i := 0; i < n; i++ {
		// The unique token keeps the query on the voting path, and each
		// session is a distinct pair of known items.
		get(s, fmt.Sprintf("/search?q=outdoor+barbecue+zq%d", i))
		get(s, fmt.Sprintf("/recommend?items=%s,%s&k=5", items[i%len(items)], items[i/len(items)]))
	}
	p := scrape(t, s.mux())
	const room = 1024 / 8 // cachedFixture's capacity, an eighth of it stores every offer
	for _, layer := range []string{"search_bytes", "recommend_bytes", "search", "recommend"} {
		entries, _ := p.Value("cocoserve_cache_entries", "layer", layer)
		declined, _ := p.Value("cocoserve_cache_declined_total", "layer", layer)
		if entries > room+2 || declined < n-room-2 {
			t.Errorf("%s: %v entries and %v declined offers after %d one-off keys, want at most %d and at least %d",
				layer, entries, declined, n, room+2, n-room-2)
		}
	}
	hits := func() float64 {
		v, _ := scrape(t, s.mux()).Value("cocoserve_cache_hits_total", "layer", "search_bytes")
		return v
	}
	for i, want := range []float64{0, 0, 1} {
		before := hits()
		get(s, "/search?q=grill+apron")
		if got := hits() - before; got != want {
			t.Fatalf("request %d of a repeated key: %v search_bytes hits, want %v", i+1, got, want)
		}
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
	}{
		{"q=grill", "q", "grill"},
		{"q=outdoor+barbecue", "q", "outdoor barbecue"},
		{"q=outdoor%20barbecue", "q", "outdoor barbecue"},
		{"a=1&q=x&b=2", "q", "x"},
		{"q=first&q=second", "q", "first"},
		{"items=1,2,3&k=5", "k", "5"},
		{"items=1,2,3&k=5", "items", "1,2,3"},
		{"", "q", ""},
		{"q", "q", ""},
		{"qq=x", "q", ""},
		{"q=%zz", "q", ""}, // malformed escape: dropped like ParseQuery does
		{"q=%zz&q=grill", "q", "grill"},
		{"%71=barbecue", "q", "barbecue"}, // escaped key
		{"q=a;b", "q", ""},                // a pair holding ';' is dropped
		{"q&q=x", "q", ""},                // a bare key's value is ""
	}
	for _, c := range cases {
		if got := queryParam(c.raw, c.key); got != c.want {
			t.Errorf("queryParam(%q, %q) = %q, want %q", c.raw, c.key, got, c.want)
		}
	}
}

// TestQueryParamZeroAllocs: a query whose keys and values need no
// unescaping is scanned without allocating.
func TestQueryParamZeroAllocs(t *testing.T) {
	raw := "items=1,2,3&gen=7&k=5&q=outdoor"
	if allocs := testing.AllocsPerRun(200, func() {
		for _, key := range []string{"q", "items", "k", "gen", "shard"} {
			queryParam(raw, key)
		}
	}); allocs != 0 {
		t.Fatalf("queryParam allocates %.1f times per op, want 0", allocs)
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
