package serve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/serving"
)

// newShardedServer commits the built net as an n-shard generation and
// starts a server serving from the store (as -snapshot-dir would).
func newShardedServer(t *testing.T, n int) (*server, string) {
	t.Helper()
	dir := saveStore(t, builtNet(t), n)
	return serveStore(t, dir, cacheCfg(alicoco.DefaultQueryCacheCapacity)), dir
}

// TestShardedServesIdenticalAnswers: a cocoserve started from -snapshot-dir
// must answer every endpoint — including the batch POSTs — byte-identically
// to the freshly built net the shards were saved from.
func TestShardedServesIdenticalAnswers(t *testing.T) {
	built := builtServer(t)
	sharded, _ := newShardedServer(t, 4)

	urls := []string{
		"/search?q=outdoor+barbecue",
		"/search?q=winter+coat",
		"/search?q=grill",
		"/search?q=zzz+no+such+thing",
		"/concept?name=outdoor+barbecue",
		"/hypernyms?name=coat",
		"/hypernyms?name=grill",
	}
	sessions := builtNet(t).SampleSessions(3)
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
// serves from and lists each shard's checksum and publish time, and the
// per-shard series carry its generation, node count and failures.
func TestStatsShardedSection(t *testing.T) {
	sharded, dir := newShardedServer(t, 4)
	type statsResp struct {
		Snapshot  snapshotInfo      `json:"snapshot"`
		Snapstore serving.StoreInfo `json:"snapstore"`
	}
	var resp statsResp
	if _, body := get(sharded, "/stats"); json.Unmarshal([]byte(body), &resp) != nil {
		t.Fatal("bad sharded stats")
	}
	sn := resp.Snapshot
	if sn.Source != "shards" || resp.Snapstore.Root != dir || sn.Checksum == "" {
		t.Fatalf("sharded snapshot section: %+v, store root %q", sn, resp.Snapstore.Root)
	}
	if len(sn.Shards) != 4 {
		t.Fatalf("%d shard stats, want 4", len(sn.Shards))
	}
	p := scrape(t, sharded.mux())
	for i, sh := range sn.Shards {
		shard := strconv.Itoa(i)
		gen, okGen := p.Value("cocoserve_shard_generation", "shard", shard)
		nodes, okNodes := p.Value("cocoserve_shard_nodes", "shard", shard)
		if !okGen || !okNodes || sh.Checksum == "" || gen == 0 || nodes == 0 {
			t.Fatalf("shard %d malformed: %+v, generation %v, nodes %v", i, sh, gen, nodes)
		}
		published, err := time.Parse(time.RFC3339, sh.PublishedAt)
		failures, okFail := p.Value("cocoserve_shard_load_failures", "shard", shard)
		if err != nil || time.Since(published) < 0 || !okFail || failures != 0 {
			t.Fatalf("shard %d malformed: %+v (%v), failures %v", i, sh, err, failures)
		}
	}
}

// TestReloadShardEndpoint exercises POST /reload?shard=i: a valid index
// reloads one shard, and malformed and out-of-range indices are rejected
// with 400 and no failure counted.
func TestReloadShardEndpoint(t *testing.T) {
	sharded, _ := newShardedServer(t, 3)

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
	// An index past the served partition is client input, refused before
	// any attempt: it counts no reload failure and cannot trip the breaker.
	for i := 0; i < 5; i++ {
		for _, shard := range []string{"3", "99"} {
			if code, _ := post(sharded, "/reload?shard="+shard, ""); code != http.StatusBadRequest {
				t.Fatalf("out-of-range shard %s: %d, want 400", shard, code)
			}
		}
	}
	if failures, state := metricValue(t, sharded, "cocoserve_reload_failures_total"), breakerState(t, sharded); failures != 0 || state != "closed" {
		t.Fatalf("out-of-range shard reloads: %v reload failures, breaker %s; want 0, closed", failures, state)
	}
	// A full /reload against an unchanged directory is a no-op diff.
	code, body = post(sharded, "/reload", "")
	if code != http.StatusOK || !strings.Contains(body, "(0 reloaded)") {
		t.Fatalf("no-op dir reload: %d %s", code, body)
	}
}

// TestShardSeriesFollowPartition: after a reload grows the served
// partition from 3 to 4 shards, both views carry shard 3's series,
// whichever of them renders first.
func TestShardSeriesFollowPartition(t *testing.T) {
	families := []string{
		"cocoserve_shard_generation", "cocoserve_shard_checksum",
		"cocoserve_shard_load_failures", "cocoserve_shard_nodes", "cocoserve_shard_edges",
	}
	for _, first := range []string{"/metrics", "/stats"} {
		s := chaosServer(t, nil)
		get(s, first) // renders the 3-shard partition
		commitShards(t, s, 4)
		if code, body := post(s, "/reload", ""); code != http.StatusOK {
			t.Fatalf("reload: %d %s", code, body)
		}
		inMetrics := func() {
			p := scrape(t, s.mux())
			for _, fam := range families {
				if _, ok := p.Value(fam, "shard", "3"); !ok {
					t.Errorf("%s first: /metrics lacks %s{shard=\"3\"}", first, fam)
				}
			}
			if nodes, _ := p.Value("cocoserve_shard_nodes", "shard", "3"); nodes == 0 {
				t.Errorf("%s first: shard 3 has no nodes in /metrics", first)
			}
		}
		inStats := func() {
			var stats struct {
				Metrics map[string]any `json:"metrics"`
			}
			if _, body := get(s, "/stats"); json.Unmarshal([]byte(body), &stats) != nil {
				t.Fatalf("bad stats: %s", body)
			}
			for _, fam := range families {
				if _, ok := stats.Metrics[fam+`{shard="3"}`]; !ok {
					t.Errorf("%s first: /stats lacks %s{shard=\"3\"}", first, fam)
				}
			}
		}
		if first == "/metrics" {
			inMetrics()
			inStats()
		} else {
			inStats()
			inMetrics()
		}
	}
}
