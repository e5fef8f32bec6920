package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"

	"alicoco"
)

var (
	snapOnce   sync.Once
	snapErr    error
	snapDir    string
	snapLoaded *server // serves the store's newest generation, reload re-reads it
)

// cacheCfg is the default policy with a per-layer cache budget of n.
func cacheCfg(n int) serveConfig {
	cfg := defaultServeConfig()
	cfg.cacheSize = n
	return cfg
}

// saveStore commits coco's net into a fresh snapshot store as one
// generation of n shards and returns the store root.
func saveStore(t testing.TB, coco *alicoco.CoCo, n int) string {
	t.Helper()
	dir := t.TempDir()
	if _, err := coco.SaveShards(dir, n); err != nil {
		t.Fatal(err)
	}
	return dir
}

// serveStore loads the newest generation of the store at dir and wires a
// server over it, as `cocoserve -snapshot-dir dir` would.
func serveStore(t testing.TB, dir string, cfg serveConfig) *server {
	t.Helper()
	coco, err := alicoco.LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	s := newServerCfg(coco, cfg)
	s.store = dir
	return s
}

// snapshotFixture commits the shared built net to a one-shard store once
// and loads a second, store-backed server from it.
func snapshotFixture(t *testing.T) (built *server, loaded *server, dir string) {
	t.Helper()
	built = testServer(t)
	snapOnce.Do(func() {
		// The fixture outlives the first test that builds it, so it cannot
		// live in that test's TempDir.
		snapDir, snapErr = os.MkdirTemp("", "cocoserve-snap-")
		if snapErr != nil {
			return
		}
		if _, snapErr = built.coco.SaveShards(snapDir, 1); snapErr != nil {
			return
		}
		coco, err := alicoco.LoadShardedFrozen(snapDir)
		if err != nil {
			snapErr = err
			return
		}
		snapLoaded = newServerCfg(coco, serveConfig{})
		snapLoaded.store = snapDir
	})
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	return built, snapLoaded, snapDir
}

func get(s *server, url string) (int, string) {
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	return rec.Code, rec.Body.String()
}

// TestSnapshotServesIdenticalAnswers: a cocoserve started from a one-shard
// -snapshot-dir must answer every endpoint byte-identically to the freshly built net it
// was saved from.
func TestSnapshotServesIdenticalAnswers(t *testing.T) {
	built, loaded, _ := snapshotFixture(t)

	urls := []string{
		"/search?q=outdoor+barbecue",
		"/search?q=winter+coat",
		"/concept?name=outdoor+barbecue",
		"/hypernyms?name=coat",
		"/hypernyms?name=grill",
	}
	sessions := built.coco.SampleSessions(3)
	for _, sess := range sessions {
		parts := make([]string, len(sess))
		for i, id := range sess {
			parts[i] = strconv.Itoa(id)
		}
		urls = append(urls, "/recommend?items="+strings.Join(parts, ",")+"&k=5")
	}
	for _, url := range urls {
		bCode, bBody := get(built, url)
		lCode, lBody := get(loaded, url)
		if bCode != lCode {
			t.Fatalf("%s: status %d (built) vs %d (snapshot)", url, bCode, lCode)
		}
		if bBody != lBody {
			t.Fatalf("%s: answers differ\nbuilt:    %s\nsnapshot: %s", url, bBody, lBody)
		}
	}
	// /stats carries per-server snapshot metadata (source, checksum, age),
	// so only the net-shape portion must match byte-for-byte semantics.
	var bStats, lStats alicoco.Stats
	if _, body := get(built, "/stats"); json.Unmarshal([]byte(body), &bStats) != nil {
		t.Fatal("bad built stats")
	}
	if _, body := get(loaded, "/stats"); json.Unmarshal([]byte(body), &lStats) != nil {
		t.Fatal("bad loaded stats")
	}
	if bStats.Relations != lStats.Relations || bStats.Items != lStats.Items ||
		bStats.EConcepts != lStats.EConcepts || bStats.Primitives != lStats.Primitives {
		t.Fatalf("net stats differ:\nbuilt    %+v\nsnapshot %+v", bStats, lStats)
	}
}

// TestStatsSnapshotSection checks the operational metadata /stats
// exposes: a built server reports source "build" with no checksum and no
// store, a store-loaded one reports source "shards" with the content
// checksum and the store root, and both serve counts and a sane age
// through the cocoserve_snapshot_* series.
func TestStatsSnapshotSection(t *testing.T) {
	built, loaded, dir := snapshotFixture(t)
	type statsResp struct {
		Snapshot snapshotInfo `json:"snapshot"`
	}
	var b, l statsResp
	if _, body := get(built, "/stats"); json.Unmarshal([]byte(body), &b) != nil {
		t.Fatal("bad built stats")
	}
	if _, body := get(loaded, "/stats"); json.Unmarshal([]byte(body), &l) != nil {
		t.Fatal("bad loaded stats")
	}
	if b.Snapshot.Source != "build" || b.Snapshot.Checksum != "" || b.Snapshot.Dir != "" {
		t.Fatalf("built snapshot section: %+v", b.Snapshot)
	}
	if l.Snapshot.Source != "shards" || l.Snapshot.Checksum == "" || l.Snapshot.Dir != dir {
		t.Fatalf("loaded snapshot section: %+v", l.Snapshot)
	}
	var shape [2][2]float64 // nodes and edges, built then loaded
	for i, sn := range []snapshotInfo{b.Snapshot, l.Snapshot} {
		p := scrape(t, []*server{built, loaded}[i].mux())
		nodes, _ := p.Value("cocoserve_snapshot_nodes")
		edges, _ := p.Value("cocoserve_snapshot_edges")
		gen, _ := p.Value("cocoserve_snapshot_generation")
		if nodes == 0 || edges == 0 || gen == 0 {
			t.Fatalf("empty serving counts: %v nodes, %v edges, generation %v", nodes, edges, gen)
		}
		if age, _ := p.Value("cocoserve_snapshot_age_seconds"); age < 0 || sn.PublishedAt == "" {
			t.Fatalf("bad publish age: %v, %+v", age, sn)
		}
		shape[i] = [2]float64{nodes, edges}
	}
	if shape[0] != shape[1] {
		t.Fatal("built and loaded servers should serve the same net shape")
	}
}

// TestReloadRejectsCorruptSnapshot is the checksum-verification guard: a
// reload of a generation with a corrupted shard file must fail without
// touching the serving state, and the generation must not advance.
func TestReloadRejectsCorruptSnapshot(t *testing.T) {
	built := testServer(t)
	dir := saveStore(t, built.coco, 1)
	s := serveStore(t, dir, serveConfig{})
	wantCode, wantSearch := get(s, "/search?q=outdoor+barbecue")
	genBefore := s.coco.ServingInfo().Generation

	// A differently partitioned generation forces a full load; flip one
	// byte in the middle of one of its shards: the CRC-32 check (or a
	// structural validation before it) must reject the load.
	if _, err := built.coco.SaveShards(dir, 2); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, filepath.Join(dir, "gen-000002", "shard-0001.fz"))
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload: status %d, want 500 (%s)", rec.Code, rec.Body.String())
	}
	if got := s.coco.ServingInfo().Generation; got != genBefore {
		t.Fatalf("corrupt reload advanced generation %d -> %d", genBefore, got)
	}
	// Serving is untouched: the same query still answers identically.
	code, body := get(s, "/search?q=outdoor+barbecue")
	if code != wantCode || body != wantSearch {
		t.Fatal("serving state changed after rejected reload")
	}
}

// TestReloadHotSwapUnderLoad hammers the query endpoints from several
// goroutines while /reload swaps in new generations of the same net,
// alternately partitioned into one and two shards so every reload is a
// full load: every query must keep succeeding with a correct answer (zero
// downtime), and every reload must succeed. Run under -race this also
// proves the swap is sound.
func TestReloadHotSwapUnderLoad(t *testing.T) {
	built := testServer(t)
	dir := saveStore(t, built.coco, 1)
	loaded := serveStore(t, dir, cacheCfg(alicoco.DefaultQueryCacheCapacity))
	_, wantSearch := get(loaded, "/search?q=outdoor+barbecue")

	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := get(loaded, "/search?q=outdoor+barbecue")
				if code != http.StatusOK {
					errc <- fmt.Errorf("search status %d during reload", code)
					return
				}
				if body != wantSearch {
					errc <- fmt.Errorf("search answer changed during reload")
					return
				}
				if code, _ := get(loaded, "/stats"); code != http.StatusOK {
					errc <- fmt.Errorf("stats status %d during reload", code)
					return
				}
			}
		}()
	}
	for i := 0; i < 10; i++ {
		shards := 2 - i%2
		if _, err := built.coco.SaveShards(dir, shards); err != nil {
			t.Error(err)
			break
		}
		rec := httptest.NewRecorder()
		loaded.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("reload %d: status %d: %s", i, rec.Code, rec.Body.String())
			break
		}
		var resp struct {
			Status   string       `json:"status"`
			Snapshot snapshotInfo `json:"snapshot"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Errorf("reload %d: bad response: %v", i, err)
			break
		}
		p := scrape(t, loaded.mux())
		nodes, _ := p.Value("cocoserve_snapshot_nodes")
		edges, _ := p.Value("cocoserve_snapshot_edges")
		if resp.Status != "reloaded" || nodes == 0 || edges == 0 ||
			resp.Snapshot.Checksum == "" || len(resp.Snapshot.Shards) != shards {
			t.Errorf("reload %d: unexpected response %+v (%v nodes, %v edges)", i, resp, nodes, edges)
			break
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestReloadRefreezesLiveNet: without a snapshot store the endpoint falls
// back to re-freezing the live net.
func TestReloadRefreezesLiveNet(t *testing.T) {
	built := testServer(t)
	rec := httptest.NewRecorder()
	built.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if !strings.Contains(rec.Body.String(), "refreeze") {
		t.Fatalf("expected refreeze source: %s", rec.Body.String())
	}
}

func TestReloadRequiresPOST(t *testing.T) {
	_, loaded, _ := snapshotFixture(t)
	if code, _ := get(loaded, "/reload"); code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /reload: status %d, want 405", code)
	}
}

// --- parameter validation (satellite bugfixes) --------------------------

func TestHandleRecommendRejectsNegativeIDs(t *testing.T) {
	s := testServer(t)
	for _, q := range []string{"items=-1", "items=3,-7,2", "items=-0x2"} {
		if code, _ := get(s, "/recommend?"+q); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, code)
		}
	}
}

func TestHandleRecommendValidatesK(t *testing.T) {
	s := testServer(t)
	sessions := s.coco.SampleSessions(1)
	if len(sessions) == 0 || len(sessions[0]) == 0 {
		t.Fatal("no sessions")
	}
	parts := make([]string, len(sessions[0]))
	for i, id := range sessions[0] {
		parts[i] = strconv.Itoa(id)
	}
	items := strings.Join(parts, ",")

	for _, k := range []string{"0", "-3", "abc"} {
		if code, _ := get(s, "/recommend?items="+items+"&k="+k); code != http.StatusBadRequest {
			t.Fatalf("k=%s: status %d, want 400", k, code)
		}
	}
	// Huge k is capped, not rejected: the request succeeds with a bounded
	// result set.
	code, body := get(s, "/recommend?items="+items+"&k=999999")
	if code != http.StatusOK {
		t.Fatalf("huge k: status %d: %s", code, body)
	}
	var r alicoco.Recommendation
	if err := json.Unmarshal([]byte(body), &r); err != nil {
		t.Fatal(err)
	}
	if len(r.Card.Items) > maxRecommendK {
		t.Fatalf("huge k not capped: %d items", len(r.Card.Items))
	}
}

func TestHandleConceptEmptyNameIsBadRequest(t *testing.T) {
	s := testServer(t)
	if code, _ := get(s, "/concept"); code != http.StatusBadRequest {
		t.Fatalf("missing name: status %d, want 400", code)
	}
	if code, _ := get(s, "/concept?name="); code != http.StatusBadRequest {
		t.Fatalf("empty name: status %d, want 400", code)
	}
	if code, _ := get(s, "/concept?name=nope"); code != http.StatusNotFound {
		t.Fatalf("missing concept: status %d, want 404", code)
	}
}
