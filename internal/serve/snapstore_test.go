package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"alicoco"
	"alicoco/internal/serving"
)

// newCatalogServer commits gens generations (each with different content)
// into a snapshot store and starts a server over it with the snapstore
// lifecycle wired up, as `cocoserve -snapshot-dir <store>` would.
func newCatalogServer(t *testing.T, gens int) (*server, *alicoco.CoCo, string) {
	t.Helper()
	coco, err := alicoco.Build(alicoco.Small())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < gens; i++ {
		if _, err := coco.InferImplicitRelations(); err != nil {
			t.Fatal(err)
		}
		if _, err := coco.SaveShards(dir, 3); err != nil {
			t.Fatal(err)
		}
	}
	return serveStore(t, dir, cacheCfg(alicoco.DefaultQueryCacheCapacity)), coco, dir
}

// statsSnapstore fetches and decodes the /stats "snapstore" section.
func statsSnapstore(t *testing.T, s *server) serving.StoreInfo {
	t.Helper()
	var resp struct {
		Snapstore serving.StoreInfo `json:"snapstore"`
	}
	code, body := get(s, "/stats")
	if code != http.StatusOK || json.Unmarshal([]byte(body), &resp) != nil {
		t.Fatalf("stats: %d %s", code, body)
	}
	return resp.Snapstore
}

// servingGen is the catalog generation the /stats listing marks serving,
// 0 when none is.
func servingGen(sn serving.StoreInfo) uint64 {
	for _, g := range sn.Generations {
		if g.Serving {
			return g.ID
		}
	}
	return 0
}

// TestRollbackEndpoint: POST /rollback republishes the previous committed
// generation, /stats reports it, the refresh loop holds on the skiplisted
// newer generation, and a brand-new commit clears the hold. A rollback to
// a generation the catalog does not list, or with nothing older than the
// one serving, answers 404 and counts no 5xx.
func TestRollbackEndpoint(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 2)
	if g := s.coco.ServingInfo().CatalogGen; g != 2 {
		t.Fatalf("fresh catalog server serves gen %d, want 2", g)
	}

	code, body := post(s, "/rollback", "")
	if code != http.StatusOK || !strings.Contains(body, `"gen":1`) {
		t.Fatalf("rollback: %d %s", code, body)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after rollback, want 1", g)
	}
	sn := statsSnapstore(t, s)
	if rollbacks := metricValue(t, s, "cocoserve_rollbacks_total"); sn.Root != dir || servingGen(sn) != 1 || rollbacks != 1 || sn.LastRollback == nil {
		t.Fatalf("snapstore stats after rollback: %v rollbacks, %+v", rollbacks, sn)
	}
	if sn.LastRollback.From != 2 || sn.LastRollback.To != 1 {
		t.Fatalf("last_rollback: %+v", sn.LastRollback)
	}
	var sawBad bool
	for _, g := range sn.Generations {
		if g.ID == 2 && g.Bad {
			sawBad = true
		}
		if g.ID == 1 && !g.Serving {
			t.Fatalf("generation 1 not marked serving: %+v", sn.Generations)
		}
	}
	if !sawBad {
		t.Fatalf("generation 2 not skiplisted after rollback: %+v", sn.Generations)
	}

	// A reload holds instead of rolling forward onto the skiplisted gen.
	src, err := s.coco.Reload(-1)
	if err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("reload after rollback: %q err=%v, want a hold", src, err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("hold did not hold: serving gen %d", g)
	}

	// A new commit supersedes the skiplist and reloads resume.
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.coco.Reload(-1); err != nil {
		t.Fatalf("reload of superseding generation: %v", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 3 {
		t.Fatalf("serving gen %d after superseding commit, want 3", g)
	}

	// Operators can also roll forward by explicit ID.
	for _, tc := range []struct {
		method, url string
		code        int
		serving     uint64 // the generation serving afterwards
	}{
		{http.MethodPost, "/rollback?gen=2", http.StatusOK, 2},
		{http.MethodPost, "/rollback?gen=abc", http.StatusBadRequest, 2},
		{http.MethodPost, "/rollback?gen=99", http.StatusNotFound, 2},
		{http.MethodPost, "/rollback?gen=1", http.StatusOK, 1},
		{http.MethodPost, "/rollback", http.StatusNotFound, 1}, // nothing older than gen 1
		{http.MethodGet, "/rollback", http.StatusMethodNotAllowed, 1},
	} {
		code, body := get(s, tc.url)
		if tc.method == http.MethodPost {
			code, body = post(s, tc.url, "")
		}
		if code != tc.code || (code == http.StatusOK && !strings.Contains(body, fmt.Sprintf(`"gen":%d`, tc.serving))) {
			t.Fatalf("%s %s: %d %s, want %d", tc.method, tc.url, code, body, tc.code)
		}
		if g := s.coco.ServingInfo().CatalogGen; g != tc.serving {
			t.Fatalf("%s %s: serving gen %d, want %d", tc.method, tc.url, g, tc.serving)
		}
	}
	if v := metricValue(t, s, "cocoserve_requests_total", "endpoint", "rollback", "class", "5xx"); v != 0 {
		t.Fatalf("rollback 5xx responses: %v, want 0", v)
	}
}

// TestStartupFallsBackPastDamagedNewest: a store whose newest generation
// has a damaged shard file starts serving the generation before it, as a
// running server's breaker would roll back to. /stats lists the newest as
// bad, and POST /reload holds on it until a newer commit lands.
func TestStartupFallsBackPastDamagedNewest(t *testing.T) {
	dir := saveStore(t, builtNet(t), 1)
	if _, err := builtNet(t).SaveShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "gen-000002", "shard-0000.fz"))
	s := serveStore(t, dir, cacheCfg(alicoco.DefaultQueryCacheCapacity))
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("startup serves gen %d, want 1", g)
	}
	sn := statsSnapstore(t, s)
	if len(sn.Generations) != 2 || !sn.Generations[1].Bad || sn.Generations[0].Bad || servingGen(sn) != 1 {
		t.Fatalf("/stats snapstore after a startup fallback: %+v", sn.Generations)
	}
	if code, body := post(s, "/reload", ""); code != http.StatusOK || !strings.Contains(body, "held: ") {
		t.Fatalf("reload onto the damaged gen: %d %s", code, body)
	}
	if _, err := builtNet(t).SaveShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	if code, body := post(s, "/reload", ""); code != http.StatusOK || s.coco.ServingInfo().CatalogGen != 3 {
		t.Fatalf("reload of a newer commit: %d %s, serving gen %d", code, body, s.coco.ServingInfo().CatalogGen)
	}
}
