package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/snapstore"
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
func statsSnapstore(t *testing.T, s *server) snapstoreInfo {
	t.Helper()
	var resp struct {
		Snapstore snapstoreInfo `json:"snapstore"`
	}
	code, body := get(s, "/stats")
	if code != http.StatusOK || json.Unmarshal([]byte(body), &resp) != nil {
		t.Fatalf("stats: %d %s", code, body)
	}
	return resp.Snapstore
}

// servingGen is the catalog generation the /stats listing marks serving,
// 0 when none is.
func servingGen(sn snapstoreInfo) uint64 {
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
	if rollbacks := metricValue(t, s, "cocoserve_rollbacks_total"); !sn.Enabled || servingGen(sn) != 1 || rollbacks != 1 || sn.LastRollback == nil {
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
	src, err := s.tryReload(-1)
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
	if _, err := s.tryReload(-1); err != nil {
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

// TestRollbackRequiresCatalog: servers not backed by a generation catalog
// refuse /rollback outright.
func TestRollbackRequiresCatalog(t *testing.T) {
	built := testServer(t)
	if code, _ := post(built, "/rollback", ""); code != http.StatusBadRequest {
		t.Fatalf("rollback without catalog: %d, want 400", code)
	}
}

// TestAutoRollbackOnValidationFailure is the acceptance scenario: a new
// generation that loads cleanly but fails post-swap validation is rolled
// back automatically, the fallback is reported in /stats, the bad
// generation stays skiplisted, and the next good commit recovers.
func TestAutoRollbackOnValidationFailure(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 1)
	poison := errors.New("golden query came back empty")
	s.cfg.validate = func(c *alicoco.CoCo) error {
		if c.ServingInfo().CatalogGen == 2 {
			return poison
		}
		return nil
	}

	// Generation 2: loads and verifies clean — only validation hates it.
	if _, err := coco.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}

	_, err := s.tryReload(-1)
	if err == nil || !strings.Contains(err.Error(), "validation") {
		t.Fatalf("reload of invalid generation: %v, want validation failure", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after auto-rollback, want 1", g)
	}
	sn := statsSnapstore(t, s)
	p := scrape(t, s.mux())
	validationFailures, _ := p.Value("cocoserve_validation_failures_total")
	rollbacks, _ := p.Value("cocoserve_rollbacks_total")
	if validationFailures != 1 || rollbacks != 1 || servingGen(sn) != 1 {
		t.Fatalf("snapstore stats after auto-rollback: %v validation failures, %v rollbacks, %+v",
			validationFailures, rollbacks, sn)
	}
	if sn.LastRollback == nil || !strings.Contains(sn.LastRollback.Reason, "validation") {
		t.Fatalf("last_rollback: %+v", sn.LastRollback)
	}

	// The refresh loop no longer fights the bad generation.
	src, err := s.tryReload(-1)
	if err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("post-rollback reload: %q err=%v, want a hold", src, err)
	}

	// Generation 3 passes validation and serving moves on.
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tryReload(-1); err != nil {
		t.Fatalf("reload of fixed generation: %v", err)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 3 {
		t.Fatalf("serving gen %d, want 3", g)
	}
}

// TestReloadShardHeldAfterRollback: a single-shard reload gets the same
// skiplist hold and post-swap validation as a full reload. After an
// auto-rollback off a bad generation it must not load a shard of that
// generation and publish it unvalidated (which left /stats reporting the
// bad generation as serving), and a shard of a newer generation that
// fails validation is rolled back like any other publish.
func TestReloadShardHeldAfterRollback(t *testing.T) {
	s, coco, dir := newCatalogServer(t, 1)
	s.cfg.validate = func(c *alicoco.CoCo) error {
		if c.ServingInfo().CatalogGen > 1 {
			return errors.New("golden query came back empty")
		}
		return nil
	}
	// Generation 2 has the same partition shape as generation 1, so a
	// shard of it could be spliced into serving.
	if _, err := coco.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := s.tryReload(-1); err == nil {
		t.Fatal("reload of invalid generation succeeded")
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after auto-rollback, want 1", g)
	}

	before := s.coco.ServingInfo().Generation
	code, body := post(s, "/reload?shard=1", "")
	if code != http.StatusOK || !strings.Contains(body, "held: ") {
		t.Fatalf("shard reload onto the skiplisted gen: %d %s", code, body)
	}
	if g := servingGen(statsSnapstore(t, s)); g != 1 {
		t.Fatalf("/stats reports gen %d serving after a held shard reload, want 1", g)
	}
	if got := s.coco.ServingInfo().Generation; got != before {
		t.Fatalf("held shard reload republished: generation %d -> %d", before, got)
	}

	// Generation 3 lifts the hold, but its shard fails validation too:
	// serving rolls back instead of keeping it.
	if _, err := coco.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if code, body := post(s, "/reload?shard=1", ""); code != http.StatusInternalServerError || !strings.Contains(body, "validation") {
		t.Fatalf("shard reload of an invalid generation: %d %s", code, body)
	}
	sn := statsSnapstore(t, s)
	if vf := metricValue(t, s, "cocoserve_validation_failures_total"); servingGen(sn) != 1 || vf < 2 {
		t.Fatalf("snapstore stats after invalid shard reload: %v validation failures, %+v", vf, sn)
	}
}

// TestScrubTickRepairsAndReports: one scrubber tick finds injected
// corruption, quarantines and repairs it, and /stats carries the counters
// and the last report.
func TestScrubTickRepairsAndReports(t *testing.T) {
	s, _, dir := newCatalogServer(t, 1)
	gens, err := snapstore.ListGenerations(dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	victim := filepath.Join(dir, gens[0].Dir, "shard-0001.fz")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// scrubCounts reads passes, quarantines, repairs and unrepaired.
	scrubCounts := func() [4]float64 {
		p := scrape(t, s.mux())
		var c [4]float64
		for i, fam := range []string{"passes", "quarantines", "repairs", "unrepaired"} {
			c[i], _ = p.Value("cocoserve_scrub_" + fam + "_total")
		}
		return c
	}
	s.scrubTick()
	sn := statsSnapstore(t, s)
	if c := scrubCounts(); c != [4]float64{1, 1, 1, 0} {
		t.Fatalf("scrub counts (passes, quarantines, repairs, unrepaired) after corrupt tick: %v", c)
	}
	if sn.LastScrub == nil || len(sn.LastScrub.Mismatches) != 1 {
		t.Fatalf("last scrub report: %+v", sn.LastScrub)
	}

	// A second tick over the repaired store is clean.
	s.scrubTick()
	sn = statsSnapstore(t, s)
	if c := scrubCounts(); c[0] != 2 || c[1] != 1 || sn.LastScrub == nil || !sn.LastScrub.Clean() {
		t.Fatalf("scrub after clean tick: counts %v, last %+v", c, sn.LastScrub)
	}
}

// TestScrubLoopNeedsStore: a server built live has no generation files to
// scrub, so -scrub-interval starts no scrubber there: under serveListener
// a 1 ms interval counts no scrub pass and no scrub error.
func TestScrubLoopNeedsStore(t *testing.T) {
	cfg := cacheCfg(alicoco.DefaultQueryCacheCapacity)
	cfg.scrubInterval = time.Millisecond
	s := newServerCfg(testServer(t).coco, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() { served <- serveListener(s, ln, 0, 10*time.Second, sigc) }()
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	time.Sleep(30 * time.Millisecond) // 30 scrub intervals
	sigc <- syscall.SIGTERM
	if err := <-served; err != nil {
		t.Fatalf("serveListener: %v", err)
	}
	for _, fam := range []string{"cocoserve_scrub_errors_total", "cocoserve_scrub_passes_total"} {
		if v := metricValue(t, s, fam); v != 0 {
			t.Fatalf("%s on a server built live: %v, want 0", fam, v)
		}
	}
}

// TestStatsSnapstoreDisabled: a live-built server has no store, and the
// section stays inert.
func TestStatsSnapstoreDisabled(t *testing.T) {
	built := testServer(t)
	sn := statsSnapstore(t, built)
	if sn.Enabled || sn.Root != "" || len(sn.Generations) != 0 {
		t.Fatalf("snapstore section on a live-built server: %+v", sn)
	}
}
