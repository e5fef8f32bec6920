package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alicoco"
)

// The shared fixtures, made once per test binary (benchmarks reuse them
// too, so the accessors take a testing.TB): the small net built, its
// committed one-shard generation, and a server over that generation.
var (
	fixtureOnce sync.Once
	fixtureErr  error
	fixtureNet  *alicoco.CoCo
	fixtureDir  string
	fixtureSrv  *server
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixtureDir != "" {
		os.RemoveAll(fixtureDir)
	}
	os.Exit(code)
}

func fixtures(t testing.TB) {
	t.Helper()
	fixtureOnce.Do(func() {
		if fixtureNet, fixtureErr = alicoco.Build(alicoco.Small()); fixtureErr != nil {
			return
		}
		// The store outlives the first test that asks for it, so it cannot
		// live in that test's TempDir; TestMain removes it.
		if fixtureDir, fixtureErr = os.MkdirTemp("", "cocoserve-test-"); fixtureErr != nil {
			return
		}
		if _, fixtureErr = fixtureNet.SaveShards(fixtureDir, 1); fixtureErr != nil {
			return
		}
		coco, err := alicoco.LoadShardedFrozen(fixtureDir)
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureSrv = newServerCfg(coco.Core, cacheCfg(alicoco.DefaultQueryCacheCapacity))
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
}

// builtNet is the shared built facade, the build side: tests save
// generations from it and sample sessions from its click log, which a
// loaded facade does not carry.
func builtNet(t testing.TB) *alicoco.CoCo {
	t.Helper()
	fixtures(t)
	return fixtureNet
}

// testServer serves the committed one-shard generation of builtNet, as
// `cocoserve -snapshot-dir` does.
func testServer(t testing.TB) *server {
	t.Helper()
	fixtures(t)
	return fixtureSrv
}

// storeOf is the root of the snapshot store s serves from.
func storeOf(s *server) string { return s.coco.StoreInfo().Root }

func TestHandleStats(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleStats(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var stats alicoco.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.EConcepts == 0 {
		t.Fatal("stats empty")
	}
}

func TestHandleSearch(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var res alicoco.SearchResult
	if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cards) == 0 || res.Cards[0].Name != "outdoor barbecue" {
		t.Fatalf("unexpected result: %+v", res)
	}
}

func TestHandleSearchMissingQuery(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleSearch(rec, httptest.NewRequest(http.MethodGet, "/search", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestHandleConcept(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleConcept(rec, httptest.NewRequest(http.MethodGet, "/concept?name=outdoor+barbecue", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleConcept(rec, httptest.NewRequest(http.MethodGet, "/concept?name=nope", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing concept status %d", rec.Code)
	}
}

func TestHandleRecommend(t *testing.T) {
	s := testServer(t)
	sessions := builtNet(t).SampleSessions(1)
	if len(sessions) == 0 || len(sessions[0]) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = strconv.Itoa(id)
	}
	rec := httptest.NewRecorder()
	s.handleRecommend(rec, httptest.NewRequest(http.MethodGet, "/recommend?items="+strings.Join(parts, ",")+"&k=5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var r alicoco.Recommendation
	if err := json.Unmarshal(rec.Body.Bytes(), &r); err != nil {
		t.Fatal(err)
	}
	if r.Reason == "" || len(r.Card.Items) == 0 {
		t.Fatalf("bad recommendation: %+v", r)
	}
}

func TestHandleRecommendBadInput(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleRecommend(rec, httptest.NewRequest(http.MethodGet, "/recommend?items=abc", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d", rec.Code)
	}
}

func TestHandleHypernyms(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handleHypernyms(rec, httptest.NewRequest(http.MethodGet, "/hypernyms?name=coat", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "clothing") {
		t.Fatalf("hypernyms missing clothing: %s", rec.Body.String())
	}
}
