package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/qcache"
	"alicoco/internal/serving"
)

// The ServeCacheHit/ServeCacheMiss pair measures the end-to-end handler
// path — routing, parameter handling, engine dispatch, JSON encoding —
// with and without the query caches, over identical repeated requests.
// The hit side answers from the encoded-bytes cache (one lookup, one
// buffer write); the miss side is the full pre-cache pipeline on a
// cache-disabled server. scripts/bench.sh records both in BENCH_core.json;
// the tentpole target is hit ≥ 5x faster than miss.

var (
	serveBenchOnce sync.Once
	serveBenchErr  error
	serveHit       *server // all cache layers on
	serveMiss      *server // all cache layers off
	serveFill      *server // all cache layers on, kept apart from serveHit's warm keys
	serveSession   string  // items= value for /recommend
	serveItems     []int   // item IDs that occur in sampled sessions
)

func benchServers(b *testing.B) (hit, miss *server) {
	b.Helper()
	serveBenchOnce.Do(func() {
		dir := storeOf(testServer(b))
		cocoHit, err := serving.Load(dir)
		if err != nil {
			serveBenchErr = err
			return
		}
		cocoMiss, err := serving.Load(dir)
		if err != nil {
			serveBenchErr = err
			return
		}
		cocoFill, err := serving.Load(dir)
		if err != nil {
			serveBenchErr = err
			return
		}
		serveHit = newServerCfg(cocoHit, cacheCfg(4096))
		serveMiss = newServerCfg(cocoMiss, cacheCfg(0))
		serveFill = newServerCfg(cocoFill, cacheCfg(4096))
		sessions := builtNet(b).SampleSessions(1)
		if len(sessions) == 0 {
			serveBenchErr = fmt.Errorf("no sessions")
			return
		}
		parts := make([]string, len(sessions[0]))
		for i, id := range sessions[0] {
			parts[i] = fmt.Sprint(id)
		}
		serveSession = strings.Join(parts, ",")
		seen := make(map[int]bool)
		for _, sess := range builtNet(b).SampleSessions(64) {
			for _, id := range sess {
				if !seen[id] {
					seen[id] = true
					serveItems = append(serveItems, id)
				}
			}
		}
	})
	if serveBenchErr != nil {
		b.Fatal(serveBenchErr)
	}
	return serveHit, serveMiss
}

// benchEndpoint drives one URL through the full production handler —
// panic-recovery middleware, routing, admission — with a reused request
// and recorder (the handlers never mutate either), so the numbers include
// whatever the resilience layer costs per request.
func benchEndpoint(b *testing.B, s *server, url string) {
	b.Helper()
	mux := s.handler()
	req := httptest.NewRequest(http.MethodGet, url, nil)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, req) // warm caches, pools, and the recorder body
	if rec.Code != http.StatusOK {
		b.Fatalf("%s: status %d: %s", url, rec.Code, rec.Body.String())
	}
	want := rec.Body.String()
	rec.Body.Reset()
	mux.ServeHTTP(rec, req)
	if rec.Body.String() != want {
		b.Fatalf("%s: unstable response", url)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec.Body.Reset()
		mux.ServeHTTP(rec, req)
	}
}

// BenchmarkServeCacheHit: repeated identical requests served from the
// encoded-bytes cache.
func BenchmarkServeCacheHit(b *testing.B) {
	hit, _ := benchServers(b)
	b.Run("search", func(b *testing.B) {
		benchEndpoint(b, hit, "/search?q=outdoor+barbecue")
	})
	b.Run("search_voting", func(b *testing.B) {
		benchEndpoint(b, hit, "/search?q=barbecue+outdoor")
	})
	b.Run("recommend", func(b *testing.B) {
		benchEndpoint(b, hit, "/recommend?items="+serveSession+"&k=10")
	})
}

// BenchmarkServeCacheMiss: the same requests on a cache-disabled server —
// the full parse + engine + encode pipeline every time.
func BenchmarkServeCacheMiss(b *testing.B) {
	_, miss := benchServers(b)
	b.Run("search", func(b *testing.B) {
		benchEndpoint(b, miss, "/search?q=outdoor+barbecue")
	})
	b.Run("search_voting", func(b *testing.B) {
		benchEndpoint(b, miss, "/search?q=barbecue+outdoor")
	})
	b.Run("recommend", func(b *testing.B) {
		benchEndpoint(b, miss, "/recommend?items="+serveSession+"&k=10")
	})
}

// BenchmarkServeCacheFill is the per-layer twin of the cold workload's
// path, on a server with caching on. Both cache layers of the endpoint —
// encoded bytes and engine — are filled to capacity before the timer
// starts, each warm-up key sent twice, since past an eighth of its
// capacity a layer caches a key from its second sighting; after that
// every request is a query or session not seen before, so each one misses
// both layers and both decline it.
func BenchmarkServeCacheFill(b *testing.B) {
	benchServers(b)
	b.Run("search", func(b *testing.B) {
		full := func() bool {
			st, _ := serveFill.coco.QueryCacheStats()
			return cacheFull(serveFill.searchBytes.Stats()) && cacheFull(st)
		}
		benchFill(b, "/search", full, func(dst []byte, i int) []byte {
			// The unique token keeps the query on the voting path.
			dst = append(dst, "q=outdoor+barbecue+zq"...)
			return strconv.AppendInt(dst, int64(i), 36)
		})
	})
	b.Run("recommend", func(b *testing.B) {
		full := func() bool {
			_, st := serveFill.coco.QueryCacheStats()
			return cacheFull(serveFill.recBytes.Stats()) && cacheFull(st)
		}
		benchFill(b, "/recommend", full, func(dst []byte, i int) []byte {
			// The session's known items, then i's digits in base
			// len(serveItems) as more known items: a distinct session per i.
			dst = append(dst, "items="...)
			dst = append(dst, serveSession...)
			for first := true; first || i > 0; first = false {
				dst = append(dst, ',')
				dst = strconv.AppendInt(dst, int64(serveItems[i%len(serveItems)]), 10)
				i /= len(serveItems)
			}
			return append(dst, "&k=10"...)
		})
	})
}

func cacheFull(st qcache.Stats) bool { return st.Capacity > 0 && st.Entries == st.Capacity }

// fillNext is, per path, the next key index benchFill has not sent, so a
// later round of the same benchmark never repeats a key.
var fillNext = map[string]int{}

// benchFill sends requests with the raw query query(i) to path through
// serveFill's full handler: each key twice until full reports both layers
// full, then b.N new keys once each with the timer running. The request
// and the recorder are reused; the handlers read only the raw query from
// the URL.
func benchFill(b *testing.B, path string, full func() bool, query func(dst []byte, i int) []byte) {
	b.Helper()
	mux := serveFill.handler()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	var buf []byte
	send := func(i int) {
		buf = query(buf[:0], i)
		req.URL.RawQuery = string(buf)
		rec.Body.Reset()
		mux.ServeHTTP(rec, req)
	}
	i := fillNext[path]
	for n := 0; !full(); n++ {
		if n == 1<<20 {
			b.Fatal("cache layers never filled")
		}
		send(i) // a first sighting, declined once a layer is an eighth full
		send(i) // the second, stored
		i++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		send(i + n)
	}
	fillNext[path] = i + b.N
}

// BenchmarkBatchDecode isolates the request-decoding change: the pooled
// fixed-shape scanner versus encoding/json on a 32-session batch body.
func BenchmarkBatchDecode(b *testing.B) {
	var sb strings.Builder
	sb.WriteString(`{"sessions": [`)
	for i := 0; i < 32; i++ {
		if i > 0 {
			sb.WriteString(", ")
		}
		fmt.Fprintf(&sb, "[%d, %d, %d]", i, i+7, i+20)
	}
	sb.WriteString(`], "k": 10}`)
	body := []byte(sb.String())
	b.Run("scanner", func(b *testing.B) {
		sc := &reqScratch{}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sc.body = append(sc.body[:0], body...)
			if _, _, err := parseRecommendBatchBody(sc); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var req struct {
				Sessions [][]int `json:"sessions"`
				K        int     `json:"k"`
			}
			if err := json.Unmarshal(body, &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}
