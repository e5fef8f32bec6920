package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"alicoco"
)

func post(s *server, url, body string) (int, string) {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, url, bytes.NewBufferString(body))
	req.Header.Set("Content-Type", "application/json")
	s.mux().ServeHTTP(rec, req)
	return rec.Code, rec.Body.String()
}

// TestSearchBatchMatchesSequential proves one batched round-trip returns
// exactly what the per-query endpoint returns, in request order.
func TestSearchBatchMatchesSequential(t *testing.T) {
	s := testServer(t)
	queries := []string{"outdoor barbecue", "winter coat", "grill", "outdoor barbecue"}
	reqBody, _ := json.Marshal(map[string]any{"queries": queries, "max_items": 12})
	code, body := post(s, "/search/batch", string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Results []alicoco.SearchResult `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(queries) {
		t.Fatalf("%d results for %d queries", len(resp.Results), len(queries))
	}
	for i, q := range queries {
		_, single := get(s, "/search?q="+strings.ReplaceAll(q, " ", "+"))
		var want alicoco.SearchResult
		if err := json.Unmarshal([]byte(single), &want); err != nil {
			t.Fatal(err)
		}
		got, _ := json.Marshal(resp.Results[i])
		wantJSON, _ := json.Marshal(want)
		if string(got) != string(wantJSON) {
			t.Fatalf("query %d (%q): batch answer differs\nbatch: %s\nsingle: %s", i, q, got, wantJSON)
		}
	}
}

// TestRecommendBatchMatchesSequential compares the batched recommendations
// against per-session calls, including a session with no recommendation.
func TestRecommendBatchMatchesSequential(t *testing.T) {
	s := testServer(t)
	sessions := builtNet(t).SampleSessions(4)
	if len(sessions) < 2 {
		t.Fatal("not enough sessions")
	}
	sessions = append(sessions, []int{1 << 28}) // unknown item: Found must be false
	reqBody, _ := json.Marshal(map[string]any{"sessions": sessions, "k": 5})
	code, body := post(s, "/recommend/batch", string(reqBody))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	var resp struct {
		Results []struct {
			Found  bool
			Reason string
			Card   alicoco.ConceptCard
		} `json:"results"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != len(sessions) {
		t.Fatalf("%d results for %d sessions", len(resp.Results), len(sessions))
	}
	if last := resp.Results[len(resp.Results)-1]; last.Found {
		t.Fatalf("unknown-item session reported Found: %+v", last)
	}
	for i, sess := range sessions[:len(sessions)-1] {
		parts := make([]string, len(sess))
		for j, id := range sess {
			parts[j] = strconv.Itoa(id)
		}
		codeS, single := get(s, "/recommend?items="+strings.Join(parts, ",")+"&k=5")
		if codeS == http.StatusNotFound {
			if resp.Results[i].Found {
				t.Fatalf("session %d: batch found, single 404", i)
			}
			continue
		}
		var want alicoco.Recommendation
		if err := json.Unmarshal([]byte(single), &want); err != nil {
			t.Fatal(err)
		}
		if !resp.Results[i].Found {
			t.Fatalf("session %d: single found, batch did not", i)
		}
		if resp.Results[i].Reason != want.Reason || resp.Results[i].Card.Name != want.Card.Name ||
			len(resp.Results[i].Card.Items) != len(want.Card.Items) {
			t.Fatalf("session %d: batch %+v differs from single %+v", i, resp.Results[i], want)
		}
	}
}

func TestBatchValidation(t *testing.T) {
	s := testServer(t)
	manyQueries, _ := json.Marshal(map[string]any{
		"queries": make([]string, maxBatch+1),
	})
	cases := []struct {
		url, body string
		want      int
	}{
		{"/search/batch", `{"queries": []}`, http.StatusBadRequest},
		{"/search/batch", `{}`, http.StatusBadRequest},
		{"/search/batch", `not json`, http.StatusBadRequest},
		{"/search/batch", `{"queries": ["ok", "  "]}`, http.StatusBadRequest},
		{"/search/batch", string(manyQueries), http.StatusBadRequest},
		{"/recommend/batch", `{"sessions": []}`, http.StatusBadRequest},
		{"/recommend/batch", `{"sessions": [[1,-2]]}`, http.StatusBadRequest},
		{"/recommend/batch", `not json`, http.StatusBadRequest},
		{"/recommend/batch", fmt.Sprintf(`{"sessions": %s}`, strings.Repeat("[[1],", 1)+"[2]]"), http.StatusOK},
	}
	for _, tc := range cases {
		if code, body := post(s, tc.url, tc.body); code != tc.want {
			t.Fatalf("POST %s %q: status %d, want %d (%s)", tc.url, tc.body, code, tc.want, body)
		}
	}
	// GET on batch endpoints is rejected.
	if code, _ := get(s, "/search/batch"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /search/batch: %d, want 405", code)
	}
	if code, _ := get(s, "/recommend/batch"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /recommend/batch: %d, want 405", code)
	}
}

// TestBatchBodySizeCap proves an oversized request body is rejected before
// decoding can materialize it (the maxBatch element cap cannot be
// sidestepped by one huge payload), with a clear 413 naming the limit.
func TestBatchBodySizeCap(t *testing.T) {
	s := testServer(t)
	huge := `{"queries": ["` + strings.Repeat("a", maxBatchBody+1024) + `"]}`
	for _, url := range []string{"/search/batch", "/recommend/batch"} {
		code, body := post(s, url, huge)
		if code != http.StatusRequestEntityTooLarge {
			t.Fatalf("%s oversized body: status %d, want 413", url, code)
		}
		if !strings.Contains(body, "too large") {
			t.Fatalf("%s oversized body: unhelpful error %q", url, body)
		}
	}
}
