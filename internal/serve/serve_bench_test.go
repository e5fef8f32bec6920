package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"

	"alicoco"
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
	serveSession   string  // items= value for /recommend
)

func benchServers(b *testing.B) (hit, miss *server) {
	b.Helper()
	serveBenchOnce.Do(func() {
		base := testServer(b)
		dir, err := os.MkdirTemp("", "cocoserve-bench-")
		if err != nil {
			serveBenchErr = err
			return
		}
		if _, err := base.coco.SaveShards(dir, 1); err != nil {
			serveBenchErr = err
			return
		}
		cocoHit, err := alicoco.LoadShardedFrozen(dir)
		if err != nil {
			serveBenchErr = err
			return
		}
		cocoMiss, err := alicoco.LoadShardedFrozen(dir)
		if err != nil {
			serveBenchErr = err
			return
		}
		serveHit = newServer(cocoHit, 4096)
		serveMiss = newServer(cocoMiss, 0)
		sessions := base.coco.SampleSessions(1)
		if len(sessions) == 0 {
			serveBenchErr = fmt.Errorf("no sessions")
			return
		}
		parts := make([]string, len(sessions[0]))
		for i, id := range sessions[0] {
			parts[i] = fmt.Sprint(id)
		}
		serveSession = strings.Join(parts, ",")
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
