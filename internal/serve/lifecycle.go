// Request-lifecycle and process-lifecycle policy for cocoserve: admission
// control with load shedding, per-endpoint deadlines, health/readiness
// probes, hardened snapshot refresh (stoppable ticker, jittered backoff
// retries, circuit breaker), and graceful SIGTERM/SIGINT drain. The mechanisms live in
// internal/resilience; this file is the wiring.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"syscall"
	"time"

	"alicoco/internal/resilience"
	"alicoco/internal/serving"
	"alicoco/internal/snapstore"
)

// serveConfig is the resilience policy knobs; the zero value disables
// everything (no deadlines, no gate, no breaker).
type serveConfig struct {
	cacheSize int

	// deadline / batchDeadline bound a cache-missing request's lifetime,
	// queue wait included; 0 means unbounded.
	deadline      time.Duration
	batchDeadline time.Duration

	// maxInflight engine dispatches run concurrently, queueDepth more wait
	// for a slot, the rest shed with 429. 0 maxInflight disables gating.
	maxInflight int
	queueDepth  int

	// targetDelay / shedInterval tune the gate's adaptive controller: when
	// queued admissions keep waiting longer than targetDelay for a full
	// shedInterval, the gate starts shedding by priority class (batch
	// first) before the hard queue limit is reached. 0 means the
	// resilience package defaults (5ms / 100ms).
	targetDelay  time.Duration
	shedInterval time.Duration

	// Reload hardening: retries failed reloads per refresh trigger with
	// backoffBase..backoffMax jittered exponential delays; breakerThreshold
	// consecutive failures open the breaker for breakerCooldown and roll
	// serving back to the newest clean generation. breakerThreshold 0
	// disables the breaker.
	retries          int
	backoffBase      time.Duration
	backoffMax       time.Duration
	breakerThreshold int
	breakerCooldown  time.Duration

	// Snapstore lifecycle: scrubInterval > 0 runs the background integrity
	// scrubber on that period; validate is the post-swap check every newly
	// published generation must pass or be rolled back (nil skips
	// validation).
	scrubInterval time.Duration
	validate      func(*serving.Core) error

	// slowQuery is the -slow-query threshold: responses at or above it
	// emit a correlation log line (endpoint, latency, generation, request
	// ID) and count in cocoserve_slow_queries_total. 0 disables the log.
	slowQuery time.Duration

	// pprofAddr, when non-empty, serves net/http/pprof on its own private
	// listener — the profiling surface is never mounted on the serving
	// mux. See pprof.go in this package.
	pprofAddr string
}

// minBudget is how much of the deadline must remain after admission to
// bother dispatching; with less, the request is refused (degraded
// cache-hits-only mode) rather than computed for nobody.
const minBudget = time.Millisecond

// defaultDrainTimeout bounds how long shutdown waits for in-flight
// requests; it deliberately exceeds the default batch deadline so a drain
// never has to abandon an admitted batch.
const defaultDrainTimeout = 20 * time.Second

func defaultServeConfig() serveConfig {
	nproc := runtime.GOMAXPROCS(0)
	return serveConfig{
		cacheSize:        0, // callers fill in
		deadline:         2 * time.Second,
		batchDeadline:    15 * time.Second,
		maxInflight:      4 * nproc,
		queueDepth:       16 * nproc,
		targetDelay:      resilience.DefaultTarget,
		shedInterval:     resilience.DefaultInterval,
		retries:          3,
		backoffBase:      200 * time.Millisecond,
		backoffMax:       5 * time.Second,
		breakerThreshold: 5,
		breakerCooldown:  30 * time.Second,
		validate:         defaultValidate,
	}
}

// handler is the production entry point: the route mux wrapped in panic
// recovery, so one buggy request costs a 500 and a counter increment
// instead of a torn-down connection. The wrapper adds no per-request
// allocations, keeping the cache-hit path's zero-alloc property.
func (s *server) handler() http.Handler {
	return resilience.Recover(s.mux(), func(v any) {
		s.panics.Inc()
		log.Printf("panic in handler (recovered): %v\n%s", v, debug.Stack())
	})
}

// admit applies the request-lifecycle policy to a request that missed the
// response caches: attach the endpoint deadline, then take an engine slot
// from the admission gate at the endpoint's priority class (waiting in the
// bounded queue within the deadline). It answers 429 + Retry-After and
// reports ok=false when the server is saturated, the adaptive controller
// shed this class, the wait exhausted the deadline, or too little budget
// remains to start engine work — cache hits were served before this point,
// so under overload the server degrades to cache-hits-only instead of
// collapsing. On ok=true the caller must call release exactly once.
func (s *server) admit(w http.ResponseWriter, r *http.Request, deadline time.Duration, pri resilience.Priority) (ctx context.Context, release func(), ok bool) {
	// Every request that reaches admission gets a correlation ID (unless
	// the client's was already echoed): assigned before the gate so shed
	// responses carry one too. The miss path allocates anyway; cache hits
	// were served before this point and skip the assignment cost.
	if h := w.Header(); h[ridHeader] == nil {
		h[ridHeader] = []string{newRequestID()}
	}
	ctx = r.Context()
	cancel := func() {}
	if deadline > 0 {
		ctx, cancel = context.WithTimeout(ctx, deadline)
	}
	if err := s.gate.AcquirePri(ctx, pri); err != nil {
		cancel()
		switch {
		case errors.Is(err, resilience.ErrQueueDelay):
			s.shed(w, shedQueueDelay)
		case errors.Is(err, resilience.ErrSaturated):
			s.shed(w, shedSaturated)
		default: // deadline expired or client gone while queued
			s.shed(w, shedTimeout)
		}
		return nil, nil, false
	}
	release = func() {
		s.gate.Release()
		cancel()
	}
	if !resilience.Budget(ctx, minBudget) {
		s.degraded.Inc()
		release()
		s.shed(w, shedDegraded)
		return nil, nil, false
	}
	return ctx, release, true
}

// shedReason is the machine-readable cause a shed response body carries,
// so clients and dashboards can tell hard saturation from adaptive
// queue-delay shedding from deadline exhaustion without string-matching.
type shedReason uint8

const (
	shedSaturated  shedReason = iota // hard limit: every slot and queue position taken
	shedQueueDelay                   // adaptive controller: standing queue delay above target
	shedTimeout                      // deadline expired while queued or mid-engine
	shedDegraded                     // admitted with too little budget left to dispatch
	numShedReasons
)

// shedBodies are the complete response bodies, encoded once at init like
// the other tiny error responses — a shed burst is exactly when we least
// want to encode JSON per refusal.
var shedBodies = func() [numShedReasons][]byte {
	names := [numShedReasons]string{"saturated", "queue_delay", "timeout", "degraded"}
	var b [numShedReasons][]byte
	for i, n := range names {
		b[i] = []byte(`{"error":"server overloaded, retry later","reason":"` + n + `"}` + "\n")
	}
	return b
}()

// retryAfterStrs pre-renders every value RetryAfterSeconds can clamp to so
// shed responses never format an integer per refusal.
var retryAfterStrs = func() [31]string {
	var s [31]string
	for i := range s {
		s[i] = strconv.Itoa(i)
	}
	return s
}()

// shed answers 429 with a machine-readable reason and a Retry-After hint
// derived from the gate's observed drain rate (jittered, so a burst of
// simultaneously shed clients does not retry in lockstep) — the one
// overload response the server ever gives (never a timeout, never a 500),
// so clients and load balancers can tell "back off" from "broken".
func (s *server) shed(w http.ResponseWriter, reason shedReason) {
	secs := s.gate.RetryAfterSeconds()
	if secs < 1 {
		secs = 1
	} else if secs >= len(retryAfterStrs) {
		secs = len(retryAfterStrs) - 1
	}
	h := w.Header()
	h.Set("Retry-After", retryAfterStrs[secs])
	h.Set("Content-Type", "application/json")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(http.StatusTooManyRequests)
	_, _ = w.Write(shedBodies[reason])
}

// writeBodyError maps a request-body read failure to its status: 413 when
// the MaxBytesReader cap tripped, 400 for anything else.
func writeBodyError(w http.ResponseWriter, err error) {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		http.Error(w, "request body too large (max "+strconv.FormatInt(mbe.Limit, 10)+" bytes)",
			http.StatusRequestEntityTooLarge)
		return
	}
	http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
}

// handleHealthz is liveness: 200 as long as the process can run a handler
// at all — it must keep answering through overload, reload storms, and
// drain, so it touches no gate, no cache, no engine.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz is readiness: 503 while draining (shutdown has begun; load
// balancers must stop routing here) or while the admission gate is fully
// saturated (slots and queue exhausted — new work would only be shed).
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if s.gate.Saturated() {
		http.Error(w, "saturated", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ready\n"))
}

// tryReload performs one reload attempt — of the whole net, or of one
// shard of the store's newest generation when shard >= 0 — with the
// resilience bookkeeping: the skiplist hold (a shard of a rolled-back
// generation is held like the whole of it), post-swap validation, the
// breaker, failure counters and backoff. A whole-net failure feeds the
// breaker, and the failure that trips it rolls serving back; a shard's
// failure counts against that shard alone. Serving keeps the last good
// snapshot through any number of failures — a reload only ever publishes
// after full verification.
func (s *server) tryReload(shard int) (source string, err error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	// While the newest catalog generation is skiplisted (it failed
	// validation and was rolled back), hold rather than republish it; a
	// newer generation clears the hold. See snapstore.go.
	if hold := s.reloadGateLocked(); hold != "" {
		return "held: " + hold, nil
	}
	before := s.coco.ServingInfo().Generation
	source, err = s.reload(shard)
	if err == nil {
		err = s.validateSwapLocked(before)
	}
	if err == nil {
		s.breaker.Success()
		s.backoff.Reset()
		if shard >= 0 {
			delete(s.shardFails, shard)
		} else {
			clear(s.shardFails)
		}
		return source, nil
	}
	s.reloadFailedLocked(err)
	if shard >= 0 {
		return source, err
	}
	// Catalog-backed serving does not freeze on "last good in memory":
	// when whole-net reloads keep failing until the breaker trips,
	// re-anchor on the newest older generation that still loads and
	// validates clean.
	if s.breaker.Failure() {
		if rerr := s.autoRollbackLocked(0, fmt.Sprintf("reload breaker tripped: %v", err)); rerr != nil {
			log.Printf("auto-rollback: %v", rerr)
		}
	}
	return source, err
}

// reloadFailedLocked counts a failed reload and charges it to the shard
// whose file failed when the loader could attribute it. Callers hold
// reloadMu.
func (s *server) reloadFailedLocked(err error) {
	s.reloadFailures.Inc()
	var sle *snapstore.ShardLoadError
	if errors.As(err, &sle) {
		if s.shardFails == nil {
			s.shardFails = make(map[int]int)
		}
		s.shardFails[sle.Index]++
	}
}

// refreshLoop reloads on a stoppable ticker. A failed reload is retried up
// to cfg.retries times with jittered exponential backoff before waiting
// for the next tick; while the breaker is open the loop skips attempts
// entirely instead of hammering a file that keeps failing. The loop exits
// when done closes (shutdown), which also interrupts any backoff sleep —
// the goroutine can never leak the way the old time.Tick version did.
func (s *server) refreshLoop(interval time.Duration, done <-chan struct{}) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-done:
			return
		case <-ticker.C:
		}
		if !s.breaker.Allow() {
			continue
		}
		src, err := s.tryReload(-1)
		if err == nil {
			info := s.coco.ServingInfo()
			log.Printf("periodic reload from %s: %d nodes, %d edges", src, info.Nodes, info.Edges)
			continue
		}
		log.Printf("periodic reload: %v", err)
		for attempt := 0; attempt < s.cfg.retries; attempt++ {
			timer := time.NewTimer(s.backoff.Next())
			select {
			case <-done:
				timer.Stop()
				return
			case <-timer.C:
			}
			if !s.breaker.Allow() {
				break
			}
			s.reloadRetries.Inc()
			if _, err = s.tryReload(-1); err == nil {
				info := s.coco.ServingInfo()
				log.Printf("reload retry %d succeeded: %d nodes, %d edges", attempt+1, info.Nodes, info.Edges)
				break
			}
			log.Printf("reload retry %d: %v", attempt+1, err)
		}
	}
}

// serve runs the hardened server lifecycle on addr; see serveListener.
func serve(s *server, addr string, refresh, drainTimeout time.Duration, sigc <-chan os.Signal) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return serveListener(s, ln, refresh, drainTimeout, sigc)
}

// serveListener runs the full server lifecycle on ln: an http.Server with
// read/write/idle timeouts (a slow or stuck client cannot pin a connection
// goroutine forever), the stoppable refresh loop, and graceful shutdown —
// on SIGTERM/SIGINT the server flips /readyz to failing, stops the refresh
// loop, stops accepting connections, drains in-flight requests within
// drainTimeout and releases the served generation's hold before returning.
// sigc overrides the signal source for tests; nil subscribes to the real
// signals. It returns nil after a clean drain and the underlying error
// otherwise.
func serveListener(s *server, ln net.Listener, refresh, drainTimeout time.Duration, sigc <-chan os.Signal) error {
	srv := &http.Server{
		Handler:           s.handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	if s.cfg.pprofAddr != "" {
		stop, err := startPprof(s.cfg.pprofAddr)
		if err != nil {
			return err
		}
		defer stop()
	}
	if refresh > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.refreshLoop(refresh, done)
		}()
	}
	if s.cfg.scrubInterval > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.scrubLoop(s.cfg.scrubInterval, done)
		}()
	}
	if sigc == nil {
		c := make(chan os.Signal, 1)
		signal.Notify(c, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(c)
		sigc = c
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		// The listener failed outright; there is nothing to drain.
		close(done)
		wg.Wait()
		return err
	case sig := <-sigc:
		log.Printf("received %v: draining (readiness down, refresh stopped)", sig)
	}
	s.draining.Store(true) // /readyz fails from here on
	close(done)            // refresh loop winds down
	ctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	err := srv.Shutdown(ctx) // stop accepting, wait for in-flight requests
	wg.Wait()
	s.coco.Close() // release the served generation's hold
	if err != nil {
		return err
	}
	if serr := <-errc; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		return serr
	}
	return nil
}
