package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"

	"alicoco"
)

// newShardedServer commits the built net as an n-shard generation and
// starts a server serving from the store (as -snapshot-dir would).
func newShardedServer(t *testing.T, built *server, n int) (*server, string) {
	t.Helper()
	dir := saveStore(t, built.coco, n)
	return serveStore(t, dir, cacheCfg(alicoco.DefaultQueryCacheCapacity)), dir
}

// TestShardedServesIdenticalAnswers: a cocoserve started from -snapshot-dir
// must answer every endpoint — including the batch POSTs — byte-identically
// to the freshly built net the shards were saved from.
func TestShardedServesIdenticalAnswers(t *testing.T) {
	built := testServer(t)
	sharded, _ := newShardedServer(t, built, 4)

	urls := []string{
		"/search?q=outdoor+barbecue",
		"/search?q=winter+coat",
		"/search?q=grill",
		"/search?q=zzz+no+such+thing",
		"/concept?name=outdoor+barbecue",
		"/hypernyms?name=coat",
		"/hypernyms?name=grill",
	}
	sessions := built.coco.SampleSessions(3)
	sessionStrs := make([]string, len(sessions))
	for i, sess := range sessions {
		parts := make([]string, len(sess))
		for j, id := range sess {
			parts[j] = strconv.Itoa(id)
		}
		sessionStrs[i] = strings.Join(parts, ",")
		urls = append(urls, "/recommend?items="+sessionStrs[i]+"&k=5")
	}
	for _, url := range urls {
		bCode, bBody := get(built, url)
		sCode, sBody := get(sharded, url)
		if bCode != sCode || bBody != sBody {
			t.Fatalf("%s: answers differ\nbuilt (%d):   %s\nsharded (%d): %s", url, bCode, bBody, sCode, sBody)
		}
	}
	batches := []struct{ url, body string }{
		{"/search/batch", `{"queries": ["outdoor barbecue", "winter coat", "grill", "控制"], "max_items": 8}`},
		{"/recommend/batch", `{"sessions": [[` + strings.Join(sessionStrs, `],[`) + `]], "k": 5}`},
	}
	for _, b := range batches {
		bCode, bBody := post(built, b.url, b.body)
		sCode, sBody := post(sharded, b.url, b.body)
		if bCode != sCode || bBody != sBody {
			t.Fatalf("POST %s: answers differ\nbuilt (%d):   %s\nsharded (%d): %s", b.url, bCode, bBody, sCode, sBody)
		}
	}
}

// TestStatsShardedSection: a sharded server's /stats names the store it
// serves from and lists per-shard checksum, generation, and age.
func TestStatsShardedSection(t *testing.T) {
	built := testServer(t)
	sharded, dir := newShardedServer(t, built, 4)
	type statsResp struct {
		Snapshot snapshotInfo `json:"snapshot"`
	}
	var resp statsResp
	if _, body := get(sharded, "/stats"); json.Unmarshal([]byte(body), &resp) != nil {
		t.Fatal("bad sharded stats")
	}
	sn := resp.Snapshot
	if sn.Source != "shards" || sn.Dir != dir || sn.Checksum == "" {
		t.Fatalf("sharded snapshot section: %+v", sn)
	}
	if len(sn.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(sn.Shards))
	}
	for i, sh := range sn.Shards {
		if sh.Index != i || sh.Checksum == "" || sh.Generation == 0 || sh.Nodes == 0 {
			t.Fatalf("shard stat %d malformed: %+v", i, sh)
		}
		if sh.AgeSeconds < 0 || sh.PublishedAt == "" || sh.Failures != 0 {
			t.Fatalf("shard stat %d malformed: %+v", i, sh)
		}
	}
	// The unsharded built server serves one in-process shard from no store.
	var bresp statsResp
	if _, body := get(built, "/stats"); json.Unmarshal([]byte(body), &bresp) != nil {
		t.Fatal("bad built stats")
	}
	if len(bresp.Snapshot.Shards) != 1 || bresp.Snapshot.Shards[0].Checksum != "" || bresp.Snapshot.Dir != "" {
		t.Fatalf("built server should list one unstored shard: %+v", bresp.Snapshot)
	}
}

// TestReloadShardEndpoint exercises POST /reload?shard=i: a valid index
// reloads one shard, malformed and out-of-range indices are rejected, and
// servers without -snapshot-dir refuse shard reloads outright.
func TestReloadShardEndpoint(t *testing.T) {
	built := testServer(t)
	sharded, _ := newShardedServer(t, built, 3)

	code, body := post(sharded, "/reload?shard=1", "")
	if code != http.StatusOK || !strings.Contains(body, `"source":"shard:1"`) {
		t.Fatalf("shard reload: %d %s", code, body)
	}
	if code, _ := post(sharded, "/reload?shard=abc", ""); code != http.StatusBadRequest {
		t.Fatalf("bad shard parameter: %d, want 400", code)
	}
	if code, _ := post(sharded, "/reload?shard=-2", ""); code != http.StatusBadRequest {
		t.Fatalf("negative shard: %d, want 400", code)
	}
	if code, _ := post(sharded, "/reload?shard=99", ""); code != http.StatusInternalServerError {
		t.Fatalf("out-of-range shard: %d, want 500", code)
	}
	if code, _ := post(built, "/reload?shard=0", ""); code != http.StatusBadRequest {
		t.Fatalf("shard reload without -snapshot-dir: %d, want 400", code)
	}
	// A full /reload against an unchanged directory is a no-op diff.
	code, body = post(sharded, "/reload", "")
	if code != http.StatusOK || !strings.Contains(body, "(0 reloaded)") {
		t.Fatalf("no-op dir reload: %d %s", code, body)
	}
}
