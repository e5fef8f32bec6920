package serve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alicoco"
)

var (
	srvOnce sync.Once
	srv     *server
)

var srvErr error

// testServer builds the shared test net once (benchmarks reuse it too, so
// it takes a testing.TB).
func testServer(t testing.TB) *server {
	t.Helper()
	srvOnce.Do(func() {
		coco, err := alicoco.Build(alicoco.Small())
		if err != nil {
			srvErr = err
			return
		}
		srv = newServer(coco, alicoco.DefaultQueryCacheCapacity)
	})
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	return srv
}

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
	sessions := s.coco.SampleSessions(1)
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
