package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"net/url"
	"reflect"
	"strings"
	"testing"
)

// scanSearch runs the scanner over body through a fresh scratch, converting
// the byte-slice queries to strings for comparison against encoding/json.
func scanSearch(body string) ([]string, int, error) {
	sc := &reqScratch{body: []byte(body)}
	qb, maxItems, err := parseSearchBatchBody(sc)
	var queries []string
	for _, q := range qb {
		queries = append(queries, string(q))
	}
	return queries, maxItems, err
}

func scanRecommend(body string) ([][]int, int, error) {
	sc := &reqScratch{body: []byte(body)}
	return parseRecommendBatchBody(sc)
}

// TestParseSearchBatchMatchesEncodingJSON feeds randomized request bodies
// — including escapes, unicode, unknown fields, odd whitespace — to both
// the scanner and encoding/json and requires identical decoded requests.
func TestParseSearchBatchMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	alphabet := []string{
		"grill", "outdoor barbecue", "", " ", "caf\u00e9", "emoji \U0001F600",
		"quote\"inside", "back\\slash", "tab\tchar", "new\nline", "控制",
	}
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(6)
		queries := make([]string, n)
		for i := range queries {
			queries[i] = alphabet[rng.Intn(len(alphabet))]
		}
		req := map[string]any{"queries": queries}
		if rng.Intn(2) == 0 {
			req["max_items"] = rng.Intn(50) - 10
		}
		if rng.Intn(3) == 0 {
			req["unknown"] = map[string]any{"nested": []any{1, "x", nil, true}}
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			Queries  []string `json:"queries"`
			MaxItems int      `json:"max_items"`
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		gotQ, gotMax, err := scanSearch(string(body))
		if err != nil {
			t.Fatalf("trial %d: scanner rejected %s: %v", trial, body, err)
		}
		if len(gotQ) == 0 {
			gotQ = nil
		}
		if len(want.Queries) == 0 {
			want.Queries = nil
		}
		if !reflect.DeepEqual(gotQ, want.Queries) || gotMax != want.MaxItems {
			t.Fatalf("trial %d: scanner differs on %s:\ngot  %q %d\nwant %q %d",
				trial, body, gotQ, gotMax, want.Queries, want.MaxItems)
		}
	}
}

// TestParseRecommendBatchMatchesEncodingJSON does the same for the
// sessions shape, including scratch reuse across parses (the pooled
// configuration), which must never leak one request's sessions into the
// next.
func TestParseRecommendBatchMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	sc := &reqScratch{} // reused across trials, like the pool does
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(5)
		sessions := make([][]int, n)
		for i := range sessions {
			sess := make([]int, rng.Intn(4))
			for j := range sess {
				sess[j] = rng.Intn(2000) - 100
			}
			sessions[i] = sess
		}
		req := map[string]any{"sessions": sessions}
		if rng.Intn(2) == 0 {
			req["k"] = rng.Intn(40) - 5
		}
		if rng.Intn(4) == 0 {
			req["extra"] = "ignored"
		}
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		var want struct {
			Sessions [][]int `json:"sessions"`
			K        int     `json:"k"`
		}
		if err := json.Unmarshal(body, &want); err != nil {
			t.Fatal(err)
		}
		sc.body = append(sc.body[:0], body...)
		gotS, gotK, err := parseRecommendBatchBody(sc)
		if err != nil {
			t.Fatalf("trial %d: scanner rejected %s: %v", trial, body, err)
		}
		if gotK != want.K || len(gotS) != len(want.Sessions) {
			t.Fatalf("trial %d: scanner differs on %s:\ngot  %v %d\nwant %v %d",
				trial, body, gotS, gotK, want.Sessions, want.K)
		}
		for i := range gotS {
			a, b := gotS[i], want.Sessions[i]
			if len(a) != len(b) {
				t.Fatalf("trial %d session %d: %v vs %v", trial, i, a, b)
			}
			for j := range a {
				if a[j] != b[j] {
					t.Fatalf("trial %d session %d: %v vs %v", trial, i, a, b)
				}
			}
		}
	}
}

// TestScannerRejectsMalformed: structurally broken bodies error instead of
// decoding garbage.
func TestScannerRejectsMalformed(t *testing.T) {
	bad := []string{
		"", "{", "[]", `"s"`, "42",
		`{"queries": "grill"}`,               // wrong type
		`{"queries": [1]}`,                   // wrong element type
		`{"queries": ["a"`,                   // unterminated
		`{"queries": ["a"] "k": 1}`,          // missing comma
		`{"max_items": 1.5}`,                 // not an integer
		`{"max_items": 1e3}`,                 // not an integer
		`{"queries": ["\q"]}`,                // bad escape
		`{"queries": ["a\u12"]}`,             // short unicode escape
		`{"queries": [null]}`,                // null query
		`{"max_items": 9223372036854775808}`, // beyond int64
	}
	for _, body := range bad {
		if _, _, err := scanSearch(body); err == nil {
			t.Errorf("scanner accepted malformed search body %q", body)
		}
	}
	badRec := []string{
		`{"sessions": [1]}`,        // session must be an array
		`{"sessions": [[1.5]]}`,    // non-integer id
		`{"sessions": [["a"]]}`,    // wrong element type
		`{"sessions": [[1], [2}]}`, // broken nesting
		`{"k": true}`,              // wrong type
		`{"sessions": [[null]]}`,   // null item id
	}
	for _, body := range badRec {
		if _, _, err := scanRecommend(body); err == nil {
			t.Errorf("scanner accepted malformed recommend body %q", body)
		}
	}
}

// TestScannerNullAndEmpty: nulls decode like encoding/json (empty/absent),
// so the handlers' "missing queries/sessions" validation still fires.
func TestScannerNullAndEmpty(t *testing.T) {
	for _, body := range []string{`{}`, `{"queries": null}`, `{"queries": []}`, `null`} {
		q, _, err := scanSearch(body)
		if err != nil || len(q) != 0 {
			t.Errorf("%s: got %v, %v", body, q, err)
		}
	}
	s, k, err := scanRecommend(`{"sessions": [null, [7]], "k": null}`)
	if err != nil || k != 0 || len(s) != 2 || len(s[0]) != 0 || len(s[1]) != 1 || s[1][0] != 7 {
		t.Errorf("null session decode: %v %d %v", s, k, err)
	}
}

// TestScannerDuplicateFieldLastWins matches encoding/json's behavior.
func TestScannerDuplicateFieldLastWins(t *testing.T) {
	q, maxItems, err := scanSearch(`{"queries": ["a"], "queries": ["b", "c"], "max_items": 1, "max_items": 9}`)
	if err != nil || maxItems != 9 || strings.Join(q, ",") != "b,c" {
		t.Fatalf("duplicate fields: %v %d %v", q, maxItems, err)
	}
}

// TestAppendItemsParam pins the alloc-free items parser against the old
// strings.Split loop's semantics.
func TestAppendItemsParam(t *testing.T) {
	good := map[string][]int{
		"":        nil,
		"1,2,3":   {1, 2, 3},
		" 4 , 5 ": {4, 5},
		"7":       {7},
		",,2,":    {2},
		"0":       {0},
	}
	for in, want := range good {
		got, err := appendItemsParam(nil, in)
		if err != nil {
			t.Errorf("%q: unexpected error %v", in, err)
			continue
		}
		if len(got) != len(want) {
			t.Errorf("%q: got %v want %v", in, got, want)
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%q: got %v want %v", in, got, want)
			}
		}
	}
	for _, in := range []string{"-1", "3,-7,2", "-0x2", "abc", "1,x"} {
		if _, err := appendItemsParam(nil, in); err == nil {
			t.Errorf("%q: expected error", in)
		}
	}
}

// strictQuery and strictID decode like string and int but fail on null,
// which encoding/json otherwise skips, leaving the slot's previous value
// (for a repeated key, a stale element of the earlier array). Decoding the
// fuzzed body into them tells the oracles which bodies put a null where a
// query or an item id belongs; the scanner must reject exactly those.
type (
	strictQuery string
	strictID    int
)

var errNullElement = errors.New("null element")

func (q *strictQuery) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return errNullElement
	}
	return json.Unmarshal(b, (*string)(q))
}

func (id *strictID) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		return errNullElement
	}
	return json.Unmarshal(b, (*int)(id))
}

// FuzzParseSearchBatchBody checks the search batch scanner against
// encoding/json: whenever json.Unmarshal into the handler's request shape
// accepts a body, the scanner accepts it too and decodes the same queries
// and max_items — unless the body has a null query, which the scanner
// must reject.
func FuzzParseSearchBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"queries": ["outdoor barbecue", "grill"], "max_items": 5}`,
		`{"queries": ["café", "tab\tchar", "😀"], "extra": [1, {"a": null}]}`,
		`{"queries": null, "max_items": null}`,
		`{"queries": ["a"], "queries": [null]}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Queries  []string `json:"queries"`
			MaxItems int      `json:"max_items"`
		}
		if json.Unmarshal(body, &want) != nil {
			return
		}
		var strict struct {
			Queries []strictQuery `json:"queries"`
		}
		nullQuery := json.Unmarshal(body, &strict) != nil
		got, maxItems, err := scanSearch(string(body))
		switch {
		case nullQuery && err == nil:
			t.Fatalf("scanner accepted %q, which has a null query", body)
		case nullQuery:
			return
		case err != nil:
			t.Fatalf("scanner rejected %q, which encoding/json accepts: %v", body, err)
		}
		if len(got) != len(want.Queries) || maxItems != want.MaxItems {
			t.Fatalf("scanner decoded %q as %q %d, encoding/json as %q %d", body, got, maxItems, want.Queries, want.MaxItems)
		}
		for i := range got {
			if got[i] != want.Queries[i] {
				t.Fatalf("scanner decoded %q as %q, encoding/json as %q", body, got, want.Queries)
			}
		}
	})
}

// FuzzParseRecommendBatchBody is FuzzParseSearchBatchBody for the
// recommend batch shape: the same sessions and k whenever encoding/json
// accepts the body, and a rejection when it has a null item id.
func FuzzParseRecommendBatchBody(f *testing.F) {
	for _, body := range []string{
		`{"sessions": [[1, 2], [3], [], null], "k": 5}`,
		`{"sessions": [[-7]], "extra": "ignored"}`,
		`{"sessions": null, "k": null}`,
		`{"sessions": [[5]], "sessions": [[null, 3]]}`,
		`{}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var want struct {
			Sessions [][]int `json:"sessions"`
			K        int     `json:"k"`
		}
		if json.Unmarshal(body, &want) != nil {
			return
		}
		var strict struct {
			Sessions [][]strictID `json:"sessions"`
		}
		nullID := json.Unmarshal(body, &strict) != nil
		got, k, err := scanRecommend(string(body))
		switch {
		case nullID && err == nil:
			t.Fatalf("scanner accepted %q, which has a null item id", body)
		case nullID:
			return
		case err != nil:
			t.Fatalf("scanner rejected %q, which encoding/json accepts: %v", body, err)
		}
		if len(got) != len(want.Sessions) || k != want.K {
			t.Fatalf("scanner decoded %q as %v %d, encoding/json as %v %d", body, got, k, want.Sessions, want.K)
		}
		for i := range got {
			if len(got[i]) != len(want.Sessions[i]) {
				t.Fatalf("scanner decoded %q as %v, encoding/json as %v", body, got, want.Sessions)
			}
			for j := range got[i] {
				if got[i][j] != want.Sessions[i][j] {
					t.Fatalf("scanner decoded %q as %v, encoding/json as %v", body, got, want.Sessions)
				}
			}
		}
	})
}

// FuzzQueryParam checks the RawQuery scanner against net/url: for every
// key the handlers read, queryParam returns what url.ParseQuery(raw).Get
// returns — also when ParseQuery reports an error, whose partial result
// still holds every pair it could parse.
func FuzzQueryParam(f *testing.F) {
	for _, raw := range []string{
		"q=outdoor+barbecue&items=1,2,3&k=5",
		"gen=7&shard=%32",
		"q=%zz&q=grill",
	} {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		vals, _ := url.ParseQuery(raw)
		for _, key := range []string{"q", "items", "k", "gen", "shard", "name"} {
			if got, want := queryParam(raw, key), vals.Get(key); got != want {
				t.Fatalf("queryParam(%q, %q) = %q, url.ParseQuery gives %q", raw, key, got, want)
			}
		}
	})
}
