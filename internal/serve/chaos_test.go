// Fault-injection chaos suite: hammers the query endpoints while
// injecting corrupt/slow snapshot reads (via internal/faultfs), handler
// panics (via the server's fault hook), and overload far past admission
// capacity, asserting the production-resilience invariants: the server
// never serves a response from a snapshot it did not fully validate,
// never stops answering /healthz, sheds with 429 (never timeouts or 500s)
// when saturated, and drains in-flight requests cleanly on SIGTERM.
//
// These tests arm the process-global faultfs fault, so none of them run
// in t.Parallel.
package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"alicoco"
	"alicoco/internal/faultfs"
	"alicoco/internal/raceflag"
)

// chaosServer commits the shared test net into a private three-shard
// snapshot store and wires a server with an explicit resilience policy
// around it.
func chaosServer(t *testing.T, mutate func(*serveConfig)) *server {
	t.Helper()
	cfg := cacheCfg(1024)
	if mutate != nil {
		mutate(&cfg)
	}
	return serveStore(t, saveStore(t, builtNet(t), 3), cfg)
}

// commitShards commits the shared test net into s's store as a new
// generation of n shards. Its content differs from a generation with a
// different shard count, so reloading it reads every shard file.
func commitShards(t *testing.T, s *server, n int) uint64 {
	t.Helper()
	_, g, err := builtNet(t).SaveShardsRetain(s.store, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.ID
}

// corruptFile flips one byte in the middle of path on disk.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestChaosCorruptReloadKeepsServing injects corrupt reads into the shard
// loader while the refresh loop fires as fast as it can and clients hammer
// /search and /healthz: every query answer must stay byte-identical to the
// last good generation, /healthz must never miss, and once the breaker
// trips serving is re-anchored on the last clean generation and holds
// there — a manual reload is held too — until a newer commit arrives,
// whose reload closes the breaker again.
func TestChaosCorruptReloadKeepsServing(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.retries = 2
		cfg.backoffBase = time.Millisecond
		cfg.backoffMax = 4 * time.Millisecond
		cfg.breakerThreshold = 3
		cfg.breakerCooldown = time.Hour // stays open until the manual probe
	})
	_, wantSearch := get(s, "/search?q=outdoor+barbecue")

	// Generation 2 is the same net in four shards, so a reload must read
	// its shard files — and every read of shard 1 comes back corrupted at
	// byte 512, deep enough to pass the header, so the CRC/structure
	// validation has to catch it.
	bad := commitShards(t, s, 4)
	restore := faultfs.Inject(faultfs.Fault{
		PathContains: filepath.Join(fmt.Sprintf("gen-%06d", bad), "shard-0001.fz"),
		CorruptAt:    512,
	})
	defer restore()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.refreshLoop(2*time.Millisecond, done)
	}()

	errc := make(chan error, 8)
	stop := make(chan struct{})
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
				if code, body := get(s, "/search?q=outdoor+barbecue"); code != http.StatusOK || body != wantSearch {
					errc <- fmt.Errorf("search during corrupt reloads: status %d body %q", code, body)
					return
				}
				if code, _ := get(s, "/healthz"); code != http.StatusOK {
					errc <- fmt.Errorf("healthz went down during corrupt reloads: %d", code)
					return
				}
			}
		}()
	}

	// Let the refresh loop chew on the corrupt generation until the
	// breaker opens and it stops attempting.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && breakerState(t, s) != "open" {
		time.Sleep(5 * time.Millisecond)
	}
	close(stop)
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
	failures := metricValue(t, s, "cocoserve_reload_failures_total")
	if state := breakerState(t, s); failures == 0 || state != "open" {
		t.Fatalf("breaker never opened under corrupt reloads: %v failures, breaker %s", failures, state)
	}
	// The breaker trip rolled serving back to the last clean generation
	// and skiplisted the corrupt one.
	sn := s.snapstoreInfo()
	if rollbacks := metricValue(t, s, "cocoserve_rollbacks_total"); servingGen(sn) != 1 || rollbacks != 1 ||
		sn.LastRollback == nil || !strings.Contains(sn.LastRollback.Reason, "breaker") {
		t.Fatalf("no breaker rollback to gen 1: %v rollbacks, %+v", rollbacks, sn)
	}
	for _, g := range sn.Generations {
		if g.ID == bad && !g.Bad {
			t.Fatalf("corrupt gen %d not skiplisted: %+v", bad, sn.Generations)
		}
	}

	// Disarm the fault: a manual POST /reload (the operator's half-open
	// probe) is still held on the skiplisted generation.
	restore()
	code, body := post(s, "/reload", "")
	if code != http.StatusOK || !strings.Contains(body, "held: ") {
		t.Fatalf("manual reload onto the skiplisted gen: %d %s", code, body)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("hold did not hold: serving gen %d", g)
	}
	// A newer commit clears the hold: the reload publishes it and closes
	// the breaker.
	next := commitShards(t, s, 3)
	if code, body := post(s, "/reload", ""); code != http.StatusOK {
		t.Fatalf("reload of newer commit: %d %s", code, body)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != next {
		t.Fatalf("serving gen %d after newer commit, want %d", g, next)
	}
	if state, consec := breakerState(t, s), metricValue(t, s, "cocoserve_reload_breaker_consecutive_failures"); state != "closed" || consec != 0 {
		t.Fatalf("breaker did not close after good publish: %s, %v consecutive failures", state, consec)
	}
	if code, body := get(s, "/search?q=outdoor+barbecue"); code != http.StatusOK || body != wantSearch {
		t.Fatalf("search after recovery: status %d body %q", code, body)
	}
}

// TestChaosSlowReloadKeepsServing: a slow disk (injected per-read delay)
// must stall only the reload, never the query path.
func TestChaosSlowReloadKeepsServing(t *testing.T) {
	s := chaosServer(t, nil)
	_, wantSearch := get(s, "/search?q=outdoor+barbecue")
	gen := commitShards(t, s, 4)
	defer faultfs.Inject(faultfs.Fault{PathContains: fmt.Sprintf("gen-%06d", gen), Delay: 2 * time.Millisecond})()

	reloadDone := make(chan struct{})
	go func() {
		defer close(reloadDone)
		rec := httptest.NewRecorder()
		s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Errorf("slow reload failed: %d %s", rec.Code, rec.Body.String())
		}
	}()
	// While the reload crawls through its delayed reads, queries answer
	// instantly from the currently published snapshot.
	served := 0
	for {
		select {
		case <-reloadDone:
		default:
			if code, body := get(s, "/search?q=outdoor+barbecue"); code != http.StatusOK || body != wantSearch {
				t.Fatalf("search during slow reload: status %d", code)
			}
			served++
			continue
		}
		break
	}
	if served == 0 {
		t.Skip("reload finished before any query ran; nothing proven this round")
	}
	if got := s.coco.ServingInfo().CatalogGen; got != gen {
		t.Fatalf("slow reload never published: serving gen %d, want %d", got, gen)
	}
}

// TestChaosQuarantineAndRecovery drives the full bad-file story: the
// newest generation is corrupted on disk, reloads of it fail until the
// breaker trips, serving rolls back to the last clean generation (newer
// than the one it started on) and holds there; corruption of a served file
// is quarantined and repaired by the scrubber without disturbing serving;
// and a newer commit re-closes the breaker on the next publish.
func TestChaosQuarantineAndRecovery(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.breakerThreshold = 2
		cfg.breakerCooldown = time.Hour
	})
	_, wantSearch := get(s, "/search?q=outdoor+barbecue")
	clean := commitShards(t, s, 4)
	bad := commitShards(t, s, 4)
	corruptFile(t, filepath.Join(s.store, fmt.Sprintf("gen-%06d", bad), "shard-0002.fz"))

	for i := 0; i < 2; i++ {
		if _, err := s.tryReload(-1); err == nil {
			t.Fatalf("reload %d of corrupt generation succeeded", i)
		}
	}
	// The second consecutive failure tripped the breaker: serving skipped
	// the corrupt generation and rolled back to the newest clean one.
	if state, failures := breakerState(t, s), metricValue(t, s, "cocoserve_reload_failures_total"); state != "open" || failures != 2 {
		t.Fatalf("after corrupt reloads: breaker %s, %v failures", state, failures)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != clean {
		t.Fatalf("serving gen %d after breaker rollback, want %d", g, clean)
	}
	// Further reloads hold instead of retrying the skiplisted generation.
	if src, err := s.tryReload(-1); err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("reload after rollback: %q err=%v, want a hold", src, err)
	}
	if code, body := get(s, "/search?q=outdoor+barbecue"); code != http.StatusOK || body != wantSearch {
		t.Fatalf("search after rollback: status %d", code)
	}

	// A served file rots on disk: the scrubber quarantines it and repairs
	// it, and serving never notices.
	victim := filepath.Join(s.store, fmt.Sprintf("gen-%06d", clean), "shard-0001.fz")
	corruptFile(t, victim)
	genBefore := s.coco.ServingInfo().Generation
	s.scrubTick()
	p := scrape(t, s.mux())
	quarantines, _ := p.Value("cocoserve_scrub_quarantines_total")
	repairs, _ := p.Value("cocoserve_scrub_repairs_total")
	unrepaired, _ := p.Value("cocoserve_scrub_unrepaired_total")
	if quarantines != 1 || repairs != 1 || unrepaired != 0 {
		t.Fatalf("scrub after corruption: %v quarantines, %v repairs, %v unrepaired", quarantines, repairs, unrepaired)
	}
	if _, err := os.Stat(victim + ".quarantined"); err != nil {
		t.Fatalf("rotten file not quarantined: %v", err)
	}
	if got := s.coco.ServingInfo().Generation; got != genBefore {
		t.Fatalf("scrub republished serving: generation %d -> %d", genBefore, got)
	}

	// A newer commit: the next reload publishes it and closes the breaker.
	next := commitShards(t, s, 3)
	if _, err := s.tryReload(-1); err != nil {
		t.Fatalf("reload of newer commit: %v", err)
	}
	if state, consec := breakerState(t, s), metricValue(t, s, "cocoserve_reload_breaker_consecutive_failures"); state != "closed" || consec != 0 {
		t.Fatalf("breaker did not recover: %s, %v consecutive reload failures", state, consec)
	}
	if g := s.coco.ServingInfo().CatalogGen; g != next {
		t.Fatalf("serving gen %d after newer commit, want %d", g, next)
	}
	if code, body := get(s, "/search?q=outdoor+barbecue"); code != http.StatusOK || body != wantSearch {
		t.Fatalf("search after recovery: status %d", code)
	}
}

// TestShardReloadFailureSparesBreaker: a failed single-shard reload counts
// against its shard alone. Only whole-net failures feed the breaker, and
// the one that opens it rolls serving back.
func TestShardReloadFailureSparesBreaker(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.breakerThreshold = 2
		cfg.breakerCooldown = time.Hour
	})
	bad := commitShards(t, s, 4) // over the 3-shard partition serving
	corruptFile(t, filepath.Join(s.store, fmt.Sprintf("gen-%06d", bad), "shard-0002.fz"))

	if _, err := s.tryReload(0); err == nil {
		t.Fatal("shard reload across a shard-count change succeeded")
	}
	if _, err := s.tryReload(-1); err == nil {
		t.Fatal("reload of the corrupt generation succeeded")
	}
	if state, consec := breakerState(t, s), metricValue(t, s, "cocoserve_reload_breaker_consecutive_failures"); state != "closed" || consec != 1 {
		t.Fatalf("after a shard and a whole-net failure: breaker %s with %v failures, want closed with 1", state, consec)
	}
	if rollbacks := metricValue(t, s, "cocoserve_rollbacks_total"); rollbacks != 0 {
		t.Fatalf("%v rollbacks before the breaker opened", rollbacks)
	}

	if _, err := s.tryReload(-1); err == nil {
		t.Fatal("second reload of the corrupt generation succeeded")
	}
	if state, rollbacks := breakerState(t, s), metricValue(t, s, "cocoserve_rollbacks_total"); state != "open" || rollbacks != 1 {
		t.Fatalf("after a second whole-net failure: breaker %s, %v rollbacks; want open and 1", state, rollbacks)
	}
	if g := s.coco.ServingInfo().CatalogGen; g == bad {
		t.Fatalf("serving the corrupt generation %d", g)
	}
}

// TestChaosPanicRecovery injects panics into every Nth search via the
// fault hook, over real HTTP connections: panicking requests answer 500
// (the connection survives for keep-alive reuse), healthy requests keep
// answering 200, /healthz never misses, and the panic counter matches.
func TestChaosPanicRecovery(t *testing.T) {
	s := chaosServer(t, nil)
	var n atomic.Uint64
	s.hook = func(op string) {
		if op == "search" && n.Add(1)%3 == 0 {
			panic("chaos: injected handler panic")
		}
	}
	ts := httptest.NewServer(s.handler())
	defer ts.Close()
	client := ts.Client()

	var got500, got200 int
	for i := 0; i < 30; i++ {
		resp, err := client.Get(ts.URL + "/search?q=outdoor+barbecue")
		if err != nil {
			t.Fatalf("request %d died (connection torn down?): %v", i, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			got200++
		case http.StatusInternalServerError:
			got500++
		default:
			t.Fatalf("request %d: unexpected status %d", i, resp.StatusCode)
		}
		hr, err := client.Get(ts.URL + "/healthz")
		if err != nil || hr.StatusCode != http.StatusOK {
			t.Fatalf("healthz during panic storm: %v %v", hr, err)
		}
		io.Copy(io.Discard, hr.Body)
		hr.Body.Close()
	}
	if got500 == 0 || got200 == 0 {
		t.Fatalf("panic injection did not exercise both paths: %d ok, %d panicked", got200, got500)
	}
	if int(s.panics.Value()) != got500 {
		t.Fatalf("panics recovered %d, 500s served %d", s.panics.Value(), got500)
	}
}

// TestChaosOverloadSheds drives 4x the admission capacity of deliberately
// slow cache-missing requests: the overflow is shed with 429 +
// Retry-After — never a 500, never a hung request — /healthz keeps
// answering, /readyz reports saturation, and once the storm passes the
// server admits work again.
func TestChaosOverloadSheds(t *testing.T) {
	const capacity, queue = 2, 1
	release := make(chan struct{})
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.cacheSize = 0 // force every request through admission
		cfg.maxInflight = capacity
		cfg.queueDepth = queue
		cfg.deadline = 30 * time.Second // shed on saturation, not deadline
	})
	s.hook = func(op string) {
		if op == "search.engine" {
			<-release // hold the engine slot until the test lets go
		}
	}
	h := s.handler()

	const total = 4 * (capacity + queue)
	codes := make(chan int, total)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil))
			codes <- rec.Code
		}()
	}
	// Wait until the gate is fully saturated: capacity held + queue full.
	deadline := time.Now().Add(10 * time.Second)
	for !s.gate.Saturated() {
		if time.Now().After(deadline) {
			t.Fatal("gate never saturated")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _ := get(s, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz under overload: %d", code)
	}
	if code, _ := get(s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz should report saturation: %d", code)
	}
	// The shed responses (everyone past capacity+queue) are already back.
	shedSeen := 0
	for shedSeen < total-capacity-queue {
		select {
		case code := <-codes:
			if code != http.StatusTooManyRequests {
				t.Fatalf("overloaded request answered %d, want 429", code)
			}
			shedSeen++
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d shed responses arrived", shedSeen)
		}
	}
	// Open the floodgate: the held and queued requests complete OK.
	close(release)
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("admitted request answered %d, want 200", code)
		}
	}
	st := s.gate.Stats()
	if st.Shed == 0 || st.InFlight != 0 || st.Waiting != 0 {
		t.Fatalf("gate state after storm: %+v", st)
	}
	if code, _ := get(s, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after storm: %d", code)
	}
	// Retry-After, a JSON Content-Type, and a machine-readable reason ride
	// along with every shed.
	s.hook = nil
	rec := httptest.NewRecorder()
	s.shed(rec, shedSaturated)
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("shed response malformed: %d %v", rec.Code, rec.Header())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("shed Content-Type = %q, want application/json", ct)
	}
	var shedBody struct {
		Error  string `json:"error"`
		Reason string `json:"reason"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &shedBody); err != nil {
		t.Fatalf("shed body not JSON: %v (%q)", err, rec.Body.String())
	}
	if shedBody.Reason != "saturated" || shedBody.Error == "" {
		t.Fatalf("shed body = %+v", shedBody)
	}
	if ra, err := strconv.Atoi(rec.Header().Get("Retry-After")); err != nil || ra < 1 || ra > 30 {
		t.Fatalf("Retry-After = %q, want integer in [1,30]", rec.Header().Get("Retry-After"))
	}
}

// TestChaosOverloadNeverServesStale combines overload shedding with
// reload churn between generations of two distinct nets: every 200 must
// match one of the two known-good nets byte-for-byte — saturation and
// republish may shed or delay a request, never corrupt one.
func TestChaosOverloadNeverServesStale(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos churn in -short mode")
	}
	optsA := alicoco.Options{Seed: 7, ItemsPerCategory: 2, Scenarios: 12, CorpusSentences: 150}
	optsB := alicoco.Options{Seed: 11, ItemsPerCategory: 3, Scenarios: 12, CorpusSentences: 150}
	var cocos [2]*alicoco.CoCo
	for i, opts := range []alicoco.Options{optsA, optsB} {
		coco, err := alicoco.Build(opts)
		if err != nil {
			t.Fatal(err)
		}
		cocos[i] = coco
	}
	cfg := cacheCfg(256)
	cfg.maxInflight = 2
	cfg.queueDepth = 2
	s := serveStore(t, saveStore(t, cocos[0], 1), cfg)
	const url = "/search?q=outdoor+barbecue"
	_, canonA := get(serveStore(t, saveStore(t, cocos[0], 1), cacheCfg(0)), url)
	_, canonB := get(serveStore(t, saveStore(t, cocos[1], 1), cacheCfg(0)), url)

	h := s.handler()
	stop := make(chan struct{})
	errc := make(chan error, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
				switch rec.Code {
				case http.StatusOK:
					if b := rec.Body.String(); b != canonA && b != canonB {
						errc <- fmt.Errorf("response matches neither generation: %q", b)
						return
					}
				case http.StatusTooManyRequests:
					// shed under churn: acceptable, retryable
				default:
					errc <- fmt.Errorf("unexpected status %d under churn", rec.Code)
					return
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		if _, err := cocos[1-i%2].SaveShards(s.store, 1); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("reload %d: %d %s", i, rec.Code, rec.Body.String())
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

// TestGracefulDrain exercises the full shutdown sequence over a real
// listener: SIGTERM arrives while a slow request is in flight — /readyz
// flips to 503, the slow request still completes 200, and serveListener
// returns nil (clean drain) without waiting for the full drain timeout.
func TestGracefulDrain(t *testing.T) {
	s := chaosServer(t, func(cfg *serveConfig) {
		cfg.cacheSize = 0 // the slow request must reach the engine hook
	})
	inHandler := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	s.hook = func(op string) {
		if op == "search.engine" {
			once.Do(func() { close(inHandler) })
			<-release
		}
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sigc := make(chan os.Signal, 1)
	served := make(chan error, 1)
	go func() {
		served <- serveListener(s, ln, 5*time.Millisecond, 10*time.Second, sigc)
	}()
	base := "http://" + ln.Addr().String()

	if resp, err := http.Get(base + "/readyz"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("readyz before drain: %v %v", resp, err)
	}

	slowDone := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Get(base + "/search?q=outdoor+barbecue")
		if err != nil {
			t.Errorf("in-flight request failed during drain: %v", err)
			slowDone <- nil
			return
		}
		slowDone <- resp
	}()
	<-inHandler // the slow request is inside the handler now

	sigc <- syscall.SIGTERM
	// Readiness must fail once draining starts, while the in-flight
	// request is still being served. Poll: the drain flag flips just
	// after the signal is consumed.
	deadline := time.Now().Add(5 * time.Second)
	for !s.draining.Load() {
		if time.Now().After(deadline) {
			t.Fatal("draining flag never flipped after SIGTERM")
		}
		time.Sleep(time.Millisecond)
	}

	close(release) // let the in-flight request finish
	resp := <-slowDone
	if resp == nil {
		t.Fatal("slow request lost")
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "Cards") {
		t.Fatalf("in-flight request during drain: %d %q", resp.StatusCode, body)
	}
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("drain returned error: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serveListener did not return after drain")
	}
	// The listener is really closed.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("server still accepting after drain")
	}
	// The drained server released its generation: the core still answers
	// from memory, but no longer reloads.
	if _, err := s.coco.ReloadShards(s.store); err == nil {
		t.Fatal("the core reloads after the drain; serveListener did not close it")
	}
	if res, err := s.coco.SearchCtx(context.Background(), "outdoor barbecue", 12); err != nil || len(res.Cards) == 0 {
		t.Fatalf("search after the drain: %+v, %v", res, err)
	}
}

// TestReadyzDrainingFlag: the readiness probe fails the moment draining
// flips, independent of the gate.
func TestReadyzDrainingFlag(t *testing.T) {
	s := testServer(t)
	if code, _ := get(s, "/readyz"); code != http.StatusOK {
		t.Fatalf("readyz on healthy server: %d", code)
	}
	s.draining.Store(true)
	defer s.draining.Store(false)
	if code, _ := get(s, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining: %d", code)
	}
	if code, _ := get(s, "/healthz"); code != http.StatusOK {
		t.Fatalf("healthz while draining: %d", code)
	}
}

// TestStatsResilienceSection: the resilience series (which /stats renders
// under "metrics") have sane shapes, and a failed reload moves them.
func TestStatsResilienceSection(t *testing.T) {
	s := chaosServer(t, nil)
	p := scrape(t, s.mux())
	capacity, _ := p.Value("cocoserve_gate_capacity")
	queue, _ := p.Value("cocoserve_gate_queue_depth")
	if capacity == 0 || queue == 0 {
		t.Fatalf("admission series empty: capacity %v, queue depth %v", capacity, queue)
	}
	if state := breakerState(t, s); state != "closed" {
		t.Fatalf("fresh breaker state %q", state)
	}
	if draining, _ := p.Value("cocoserve_draining"); draining != 0 {
		t.Fatal("fresh server reports draining")
	}
	// A corrupt reload moves the failure counter through the HTTP surface.
	gen := commitShards(t, s, 4)
	corruptFile(t, filepath.Join(s.store, fmt.Sprintf("gen-%06d", gen), "shard-0000.fz"))
	rec := httptest.NewRecorder()
	s.mux().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/reload", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("corrupt reload status %d", rec.Code)
	}
	p = scrape(t, s.mux())
	failures, _ := p.Value("cocoserve_reload_failures_total")
	consec, _ := p.Value("cocoserve_reload_breaker_consecutive_failures")
	if failures == 0 || consec == 0 {
		t.Fatalf("reload failure not counted: %v failures, %v consecutive", failures, consec)
	}
}

// TestServeCacheHitMiddlewareZeroAllocs guards the acceptance criterion
// that the middleware stack adds no per-request allocations on the
// cache-hit path: the full production handler chain (recover middleware +
// mux + telemetry envelope + handler) measures zero allocs/op — metric
// recording is atomic ops into a pooled wrapper, and the cached-response
// writers assign shared pre-allocated header value slices instead of
// paying Header().Set's per-call []string.
func TestServeCacheHitMiddlewareZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("AllocsPerRun is meaningless under -race (sync.Pool drops items)")
	}
	s := testServer(t)
	h := s.handler()
	req := httptest.NewRequest(http.MethodGet, "/search?q=outdoor+barbecue", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req) // warm: populate caches and grow the recorder
	if rec.Code != http.StatusOK {
		t.Fatalf("warmup status %d", rec.Code)
	}
	allocs := testing.AllocsPerRun(200, func() {
		rec.Body.Reset()
		h.ServeHTTP(rec, req)
	})
	if allocs > 0 {
		t.Fatalf("cache-hit path through middleware: %.1f allocs/op, want 0", allocs)
	}
}
