package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/obs"
	"alicoco/internal/raceflag"
)

// scrape parses the server's /metrics strictly, failing the test on any
// format violation.
func scrape(t *testing.T, h http.Handler) *obs.Parsed {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); ct != obs.ContentType {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	p, err := obs.ParseText(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("/metrics does not parse strictly: %v", err)
	}
	return p
}

// metricValue reads one counter or gauge series from a strict scrape of
// s's /metrics, failing the test when the series is absent.
func metricValue(t *testing.T, s *server, name string, labels ...string) float64 {
	t.Helper()
	v, ok := scrape(t, s.mux()).Value(name, labels...)
	if !ok {
		t.Fatalf("series %s%q missing from /metrics", name, labels)
	}
	return v
}

// breakerState is the reload breaker state the
// cocoserve_reload_breaker_state series mark with 1.
func breakerState(t *testing.T, s *server) string {
	t.Helper()
	f := scrape(t, s.mux()).Family("cocoserve_reload_breaker_state")
	if f == nil {
		t.Fatal("cocoserve_reload_breaker_state missing from /metrics")
	}
	state := ""
	for _, sm := range f.Samples {
		if sm.Value == 1 {
			if state != "" {
				t.Fatalf("breaker in two states: %+v", f.Samples)
			}
			state = sm.Label("state")
		}
	}
	return state
}

func TestMetricsEndpointCoversCatalog(t *testing.T) {
	s := testServer(t)
	h := s.handler()

	// Drive one hit, one deterministic 4xx, and one 404 so the counters
	// have something to show.
	for _, url := range []string{"/search?q=outdoor+barbecue", "/search?q=outdoor+barbecue", "/search", "/recommend?items=0"} {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
	}

	p := scrape(t, h)
	if v, ok := p.Value("cocoserve_requests_total", "endpoint", "search", "class", "2xx"); !ok || v < 2 {
		t.Errorf("search 2xx counter = %v ok=%v, want >= 2", v, ok)
	}
	if v, ok := p.Value("cocoserve_requests_total", "endpoint", "search", "class", "4xx"); !ok || v < 1 {
		t.Errorf("search 4xx counter = %v ok=%v, want >= 1", v, ok)
	}
	snap, err := p.HistogramSnapshot(MetricsHistogramName, "endpoint", "search")
	if err != nil {
		t.Fatalf("latency histogram: %v", err)
	}
	if snap.Count() < 2 {
		t.Errorf("search latency count = %d, want >= 2 (2xx only)", snap.Count())
	}
	// One series per catalog family the ISSUE names; presence is enough —
	// values are runtime-dependent.
	for _, fam := range []string{
		"cocoserve_cache_hits_total", "cocoserve_cache_misses_total",
		"cocoserve_cache_evictions_total", "cocoserve_cache_declined_total",
		"cocoserve_cache_entries",
		"cocoserve_cache_capacity",
		"cocoserve_gate_inflight", "cocoserve_gate_waiting",
		"cocoserve_gate_queue_depth", "cocoserve_gate_target_seconds",
		"cocoserve_gate_interval_seconds",
		"cocoserve_gate_admitted_total", "cocoserve_gate_shed_total",
		"cocoserve_gate_shed_over_delay_total", "cocoserve_gate_dropping",
		"cocoserve_gate_last_sojourn_seconds", "cocoserve_gate_drain_per_sec",
		"cocoserve_gate_retry_after_seconds",
		"cocoserve_snapshot_generation", "cocoserve_snapshot_age_seconds",
		"cocoserve_snapshot_nodes", "cocoserve_snapshot_edges",
		"cocoserve_shard_nodes", "cocoserve_shard_edges",
		"cocoserve_reload_failures_total", "cocoserve_rollbacks_total",
		"cocoserve_reload_backoff_attempt",
		"cocoserve_reload_breaker_state", "cocoserve_reload_breaker_consecutive_failures",
		"cocoserve_reload_breaker_opens_total", "cocoserve_reload_breaker_denied_total",
		"cocoserve_validation_failures_total", "cocoserve_scrub_passes_total",
		"cocoserve_panics_recovered_total", "cocoserve_degraded_refusals_total",
		"cocoserve_draining",
		"cocoserve_build_info", "cocoserve_goroutines", "cocoserve_heap_bytes",
		"cocoserve_gc_cycles_total", "cocoserve_gc_pause_p99_seconds",
		"cocoserve_process_start_time_seconds",
	} {
		if p.Family(fam) == nil {
			t.Errorf("family %s missing from /metrics", fam)
		}
	}
	if v, ok := p.Value("cocoserve_cache_hits_total", "layer", "search_bytes"); !ok || v < 1 {
		t.Errorf("search_bytes hits = %v ok=%v, want >= 1", v, ok)
	}
	if g := p.Family("cocoserve_build_info"); g != nil {
		if len(g.Samples) != 1 || g.Samples[0].Value != 1 {
			t.Errorf("build_info = %+v, want one sample of 1", g.Samples)
		}
		if g.Samples[0].Label("go_version") == "" {
			t.Errorf("build_info missing go_version label")
		}
	}
}

func TestMetricsRequestIDEchoAndAssign(t *testing.T) {
	s := testServer(t)
	h := s.handler()

	// A client-supplied well-formed ID echoes back — hit or miss.
	req := httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil)
	req.Header.Set("X-Request-Id", "client-abc-123")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := rec.Header().Get("X-Request-Id"); got != "client-abc-123" {
		t.Errorf("echoed request ID = %q, want client-abc-123", got)
	}

	// A malformed ID (header-splitting attempt) is dropped, and the miss
	// path assigns a fresh one at admission instead.
	req = httptest.NewRequest(http.MethodGet, "/search?q=miss+"+t.Name(), nil)
	req.Header.Set("X-Request-Id", "bad\x01id")
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	got := rec.Header().Get("X-Request-Id")
	if got == "bad\x01id" {
		t.Error("malformed client ID echoed verbatim")
	}
	if got == "" {
		t.Error("miss path did not assign a request ID")
	}

	// Two assigned IDs differ.
	rec2 := httptest.NewRecorder()
	h.ServeHTTP(rec2, httptest.NewRequest(http.MethodGet, "/search?q=miss2+"+t.Name(), nil))
	if got2 := rec2.Header().Get("X-Request-Id"); got2 == "" || got2 == got {
		t.Errorf("assigned IDs not unique: %q vs %q", got, got2)
	}
}

func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"abc-123":                true,
		"ABCDEF0123":             true,
		"":                       false,
		"has\nnewline":           false,
		"has\x00nul":             false,
		"héllo":                  false,
		strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false,
	} {
		if got := validRequestID(id); got != want {
			t.Errorf("validRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

func TestSlowQueryLog(t *testing.T) {
	coco, err := alicoco.Build(alicoco.Small())
	if err != nil {
		t.Fatal(err)
	}
	cfg := defaultServeConfig()
	cfg.cacheSize = alicoco.DefaultQueryCacheCapacity
	cfg.slowQuery = time.Nanosecond // everything is slow
	s := newServerCfg(coco, cfg)
	h := s.handler()

	var buf bytes.Buffer
	prev := log.Writer()
	log.SetOutput(&buf)
	defer log.SetOutput(prev)

	req := httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil)
	req.Header.Set("X-Request-Id", "slow-test-id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)

	line := buf.String()
	for _, want := range []string{"slow query:", "endpoint=search", "status=200", "request_id=slow-test-id", "gen="} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query log %q missing %q", line, want)
		}
	}
	p := scrape(t, h)
	if v, ok := p.Value("cocoserve_slow_queries_total", "endpoint", "search"); !ok || v < 1 {
		t.Errorf("slow_queries_total = %v ok=%v, want >= 1", v, ok)
	}
}

// TestMetricsScrapeNotCounted pins that /metrics and the health probes
// stay outside the telemetry envelope: scraping must not skew traffic
// counters.
func TestMetricsScrapeNotCounted(t *testing.T) {
	s := testServer(t)
	h := s.handler()
	before := sumRequestsTotal(t, h)
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		rec = httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	}
	if after := sumRequestsTotal(t, h); after != before {
		t.Errorf("scrapes/probes moved cocoserve_requests_total: %v -> %v", before, after)
	}
}

func sumRequestsTotal(t *testing.T, h http.Handler) float64 {
	t.Helper()
	var sum float64
	f := scrape(t, h).Family("cocoserve_requests_total")
	if f == nil {
		t.Fatal("cocoserve_requests_total missing")
	}
	for _, s := range f.Samples {
		sum += s.Value
	}
	return sum
}

// TestStatsBuildSection pins the /stats "build" block: version, git SHA,
// Go version, start time, and a live uptime.
func TestStatsBuildSection(t *testing.T) {
	s := testServer(t)
	rec := httptest.NewRecorder()
	s.handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/stats", nil))
	var resp struct {
		Build obs.BuildInfo `json:"build"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Build.Version == "" || resp.Build.GoVersion == "" || resp.Build.GitSHA == "" {
		t.Errorf("build section incomplete: %+v", resp.Build)
	}
	if _, err := time.Parse(time.RFC3339, resp.Build.StartedAt); err != nil {
		t.Errorf("started_at %q not RFC3339: %v", resp.Build.StartedAt, err)
	}
	if resp.Build.UptimeSeconds <= 0 {
		t.Errorf("uptime = %v, want > 0", resp.Build.UptimeSeconds)
	}
}

// TestCacheHitWithClientRequestIDAllocs bounds the other hit-path shape:
// echoing a client correlation ID costs exactly the one []string header
// value — the path stays within the historical 1-alloc budget.
func TestCacheHitWithClientRequestIDAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race (sync.Pool drops items)")
	}
	s := testServer(t)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil)
	req.Header.Set("X-Request-Id", "alloc-test-id")
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d", rec.Code)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if allocs > 1 {
		t.Fatalf("cache hit with client request ID: %.1f allocs/op, want <= 1", allocs)
	}
}

// TestMetricsUnderConcurrentTraffic hammers query endpoints while
// scraping, asserting every scrape parses strictly and the per-endpoint
// totals only move forward. Run under -race this is the integration-level
// proof the request-path instruments are sound.
func TestMetricsUnderConcurrentTraffic(t *testing.T) {
	s := testServer(t)
	h := s.handler()
	done := make(chan struct{})
	for w := 0; w < 4; w++ {
		go func(w int) {
			urls := []string{
				"/search?q=outdoor+barbecue",
				"/recommend?items=1,2&k=5",
				"/search", // deterministic 400
			}
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, urls[(i+w)%len(urls)], nil))
			}
		}(w)
	}
	var last float64
	for i := 0; i < 20; i++ {
		total := sumRequestsTotal(t, h)
		if total < last {
			t.Fatalf("scrape %d: requests_total regressed %v -> %v", i, last, total)
		}
		last = total
	}
	close(done)
}

// TestStatsIsRegistryView pins /stats "metrics" as a view of the /metrics
// registry. After mixed traffic, a reload that grows the partition and a
// scrub pass, the quiescent server's two views hold the same series, and
// every counter and every histogram count and sum reads the same in both.
func TestStatsIsRegistryView(t *testing.T) {
	s := chaosServer(t, nil)
	sessions := testServer(t).coco.SampleSessions(1)
	if len(sessions) == 0 || len(sessions[0]) == 0 {
		t.Fatal("no sessions")
	}
	sess := sessions[0]
	for _, url := range []string{
		"/search?q=outdoor+barbecue", "/search?q=outdoor+barbecue", "/search",
		"/concept?name=outdoor+barbecue", "/concept?name=nope", "/hypernyms?name=coat",
		fmt.Sprintf("/recommend?items=%d&k=5", sess[0]), "/recommend?items=abc",
	} {
		get(s, url)
	}
	post(s, "/search/batch", `{"queries": ["grill", "winter coat"]}`)
	post(s, "/recommend/batch", fmt.Sprintf(`{"sessions": [[%d]], "k": 3}`, sess[0]))
	commitShards(t, s, 4)
	if code, body := post(s, "/reload", ""); code != http.StatusOK {
		t.Fatalf("reload: %d %s", code, body)
	}
	s.scrubTick()

	// /stats renders before its own request is counted, so a scrape taken
	// just before it must match it exactly. The runtime's GC counter can
	// step between the two; a few attempts ride that out.
	var err error
	for attempt := 0; attempt < 5; attempt++ {
		p := scrape(t, s.mux())
		_, body := get(s, "/stats")
		var stats struct {
			Metrics map[string]any `json:"metrics"`
		}
		if jerr := json.Unmarshal([]byte(body), &stats); jerr != nil {
			t.Fatalf("/stats: %v", jerr)
		}
		if err = sameRegistry(p, stats.Metrics); err == nil {
			return
		}
	}
	t.Fatal(err)
}

// sameRegistry compares a strict scrape of /metrics with the /stats
// "metrics" object: the same series keys (`family{labels}`), and the same
// value for every counter and for every histogram's count and sum.
func sameRegistry(p *obs.Parsed, view map[string]any) error {
	esc := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	keys := make(map[string]bool)
	for _, f := range p.Families {
		for _, sm := range f.Samples {
			if sm.Name == f.Name+"_bucket" {
				continue
			}
			var labels []string
			for _, kv := range sm.Labels {
				labels = append(labels, kv[0]+`="`+esc.Replace(kv[1])+`"`)
			}
			key := f.Name
			if len(labels) > 0 {
				key += "{" + strings.Join(labels, ",") + "}"
			}
			keys[key] = true
			got, ok := view[key]
			if !ok {
				return fmt.Errorf("%s is in /metrics, not in /stats", key)
			}
			switch {
			case f.Type == "histogram":
				field := strings.TrimPrefix(sm.Name, f.Name+"_")
				if h, _ := got.(map[string]any); h[field] != sm.Value {
					return fmt.Errorf("%s %s: /stats %v, /metrics %v", key, field, h[field], sm.Value)
				}
			case f.Type == "counter" && got != sm.Value:
				return fmt.Errorf("%s: /stats %v, /metrics %v", key, got, sm.Value)
			}
		}
	}
	if len(keys) != len(view) {
		return fmt.Errorf("/stats has %d series, /metrics %d", len(view), len(keys))
	}
	return nil
}
