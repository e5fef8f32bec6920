// Production telemetry for the serving tier: the one registry behind
// /metrics (Prometheus text) and /stats "metrics" (JSON). It holds the
// per-request instruments (latency histograms, status-class counters,
// X-Request-Id correlation, the -slow-query log), the lifecycle counters,
// and scrape-time collectors over caches, gate, reload breaker, snapshot,
// shards and runtime. The request-path cost is strictly atomic ops plus
// one pooled wrapper — the cache-hit path keeps its 1-alloc/op budget,
// enforced by the alloc guards in chaos_test.go.
package serve

import (
	"crypto/rand"
	"encoding/hex"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alicoco/internal/obs"
	"alicoco/internal/qcache"
	"alicoco/internal/resilience"
	"alicoco/internal/serving"
)

// endpoint indexes the fixed set of instrumented routes. Label values
// derive from this enum — never from request data — which is the whole
// cardinality budget: the metric surface is sized at startup and cannot
// grow under traffic.
type endpoint uint8

const (
	epSearch endpoint = iota
	epSearchBatch
	epConcept
	epRecommend
	epRecommendBatch
	epHypernyms
	epReload
	epRollback
	epStats
	numEndpoints
)

var endpointNames = [numEndpoints]string{
	"search", "search_batch", "concept", "recommend", "recommend_batch",
	"hypernyms", "reload", "rollback", "stats",
}

// statusClass buckets response codes; 429 gets its own class because
// load shedding is the one "error" that is the server working as
// designed, and dashboards must separate it from real failures.
type statusClass uint8

const (
	cls2xx statusClass = iota
	cls4xx
	cls429
	cls5xx
	clsOther
	numClasses
)

var classNames = [numClasses]string{"2xx", "4xx", "429", "5xx", "other"}

func classify(status int) statusClass {
	switch {
	case status == http.StatusTooManyRequests:
		return cls429
	case status >= 200 && status < 300:
		return cls2xx
	case status >= 400 && status < 500:
		return cls4xx
	case status >= 500 && status < 600:
		return cls5xx
	}
	return clsOther
}

// serveMetrics is the server's metric surface: request-path instruments
// as fixed arrays of atomics (indexed lookups, zero per-request
// allocation) and one registry carrying them plus all the scrape-time
// collectors.
type serveMetrics struct {
	reg    *obs.Registry
	lat    [numEndpoints]*obs.Hist
	status [numEndpoints][numClasses]*obs.Counter
	slow   [numEndpoints]*obs.Counter

	shardMu sync.Mutex // serializes growShardSeries
	shards  int        // shard indexes with registered series
}

// MetricsHistogramName is the per-endpoint latency family cocoload's
// cross-check reconstructs from a scrape.
const MetricsHistogramName = "cocoserve_request_duration_seconds"

// newServeMetrics builds the registry: request-path instruments first,
// then scrape-time collectors over the server's existing state. Families
// render in this registration order.
func newServeMetrics(s *server) *serveMetrics {
	m := &serveMetrics{reg: obs.NewRegistry()}
	for ep := endpoint(0); ep < numEndpoints; ep++ {
		name := endpointNames[ep]
		m.lat[ep] = m.reg.NewHistogram(MetricsHistogramName,
			"Latency of successful (2xx) responses by endpoint; sheds and errors count in cocoserve_requests_total only.",
			"endpoint", name)
		for cls := statusClass(0); cls < numClasses; cls++ {
			m.status[ep][cls] = m.reg.NewCounter("cocoserve_requests_total",
				"Responses by endpoint and status class.",
				"endpoint", name, "class", classNames[cls])
		}
		m.slow[ep] = m.reg.NewCounter("cocoserve_slow_queries_total",
			"Responses slower than the -slow-query threshold.",
			"endpoint", name)
	}
	m.registerCacheCollectors(s)
	m.registerGateCollectors(s)
	m.registerSnapshotCollectors(s)
	m.registerLifecycleCollectors(s)
	obs.RegisterBuildInfo(m.reg, "cocoserve_build_info")
	obs.RegisterProcess(m.reg, "cocoserve_")
	return m
}

// registerCacheCollectors exposes the four cache layers' counters at
// scrape time. The layers: the facade's engine-level result caches
// (search, recommend) and the encoded-bytes caches of the single-query
// GETs (search_bytes, recommend_bytes). All reads are nil-tolerant —
// -cache-size 0 serves zeros, not a crash.
func (m *serveMetrics) registerCacheCollectors(s *server) {
	layers := []struct {
		name  string
		stats func() qcache.Stats
	}{
		{"search", func() qcache.Stats { st, _ := s.coco.QueryCacheStats(); return st }},
		{"recommend", func() qcache.Stats { _, st := s.coco.QueryCacheStats(); return st }},
		{"search_bytes", func() qcache.Stats { return s.searchBytes.Stats() }},
		{"recommend_bytes", func() qcache.Stats { return s.recBytes.Stats() }},
	}
	for _, l := range layers {
		stats := l.stats
		m.reg.NewCounterFunc("cocoserve_cache_hits_total",
			"Query cache hits by layer.",
			func() uint64 { return stats().Hits }, "layer", l.name)
		m.reg.NewCounterFunc("cocoserve_cache_misses_total",
			"Query cache misses by layer.",
			func() uint64 { return stats().Misses }, "layer", l.name)
		m.reg.NewCounterFunc("cocoserve_cache_evictions_total",
			"Query cache LRU evictions by layer.",
			func() uint64 { return stats().Evictions }, "layer", l.name)
		m.reg.NewCounterFunc("cocoserve_cache_declined_total",
			"Query cache offers declined by layer: first sightings of a key, which are not stored.",
			func() uint64 { return stats().Declined }, "layer", l.name)
		m.reg.NewGaugeFunc("cocoserve_cache_entries",
			"Entries currently held by layer.",
			func() float64 { return float64(stats().Entries) }, "layer", l.name)
		m.reg.NewGaugeFunc("cocoserve_cache_capacity",
			"Configured entry capacity by layer.",
			func() float64 { return float64(stats().Capacity) }, "layer", l.name)
	}
}

// registerGateCollectors exposes the adaptive admission gate: occupancy,
// adaptive-controller state (sojourn, dropping, drain rate), and the
// shed breakdown by priority class. Nil gate (admission disabled)
// reports zeros.
func (m *serveMetrics) registerGateCollectors(s *server) {
	gs := func() resilience.GateStats { return s.gate.Stats() }
	m.reg.NewGaugeFunc("cocoserve_gate_inflight",
		"Engine dispatches currently running.",
		func() float64 { return float64(gs().InFlight) })
	m.reg.NewGaugeFunc("cocoserve_gate_waiting",
		"Requests queued for an engine slot.",
		func() float64 { return float64(gs().Waiting) })
	m.reg.NewGaugeFunc("cocoserve_gate_capacity",
		"Configured engine slots (-max-inflight).",
		func() float64 { return float64(gs().Capacity) })
	m.reg.NewGaugeFunc("cocoserve_gate_queue_depth",
		"Configured queue positions (-queue-depth).",
		func() float64 { return float64(gs().QueueDepth) })
	m.reg.NewGaugeFunc("cocoserve_gate_target_seconds",
		"Queue delay the adaptive controller aims to stay under (-target-delay).",
		func() float64 { return float64(gs().TargetMicros) / 1e6 })
	m.reg.NewGaugeFunc("cocoserve_gate_interval_seconds",
		"How long queue delay must stay over target before the controller sheds (-shed-interval).",
		func() float64 { return float64(gs().IntervalMicros) / 1e6 })
	m.reg.NewCounterFunc("cocoserve_gate_admitted_total",
		"Requests admitted through the gate.",
		func() uint64 { return gs().Admitted })
	m.reg.NewCounterFunc("cocoserve_gate_shed_total",
		"Requests shed at the gate by priority class.",
		func() uint64 { return gs().ShedNormal }, "priority", "normal")
	m.reg.NewCounterFunc("cocoserve_gate_shed_total",
		"Requests shed at the gate by priority class.",
		func() uint64 { return gs().ShedLow }, "priority", "low")
	m.reg.NewCounterFunc("cocoserve_gate_shed_over_delay_total",
		"Sheds decided by the adaptive controller (standing queue delay over target).",
		func() uint64 { return gs().ShedOverDelay })
	m.reg.NewGaugeFunc("cocoserve_gate_dropping",
		"1 while the adaptive controller is in dropping mode.",
		func() float64 { return oneIf(gs().Dropping) })
	m.reg.NewGaugeFunc("cocoserve_gate_last_sojourn_seconds",
		"Most recent queued-acquire sojourn.",
		func() float64 { return float64(gs().LastSojournUS) / 1e6 })
	m.reg.NewGaugeFunc("cocoserve_gate_drain_per_sec",
		"Observed engine-slot release rate.",
		func() float64 { return gs().DrainPerSec })
	m.reg.NewGaugeFunc("cocoserve_gate_retry_after_seconds",
		"The Retry-After hint a shed response would carry now.",
		func() float64 { return float64(gs().RetryAfterSecs) })
}

// registerSnapshotCollectors exposes the serving snapshot's identity and
// freshness, plus the per-shard slice of the served partition.
func (m *serveMetrics) registerSnapshotCollectors(s *server) {
	m.reg.NewGaugeFunc("cocoserve_snapshot_generation",
		"Serving publish generation (increments with every swap).",
		func() float64 { return float64(s.coco.ServingInfo().Generation) })
	m.reg.NewGaugeFunc("cocoserve_snapshot_age_seconds",
		"Time since the serving snapshot was published.",
		func() float64 { return time.Since(s.coco.ServingInfo().PublishedAt).Seconds() })
	m.reg.NewGaugeFunc("cocoserve_snapshot_nodes",
		"Nodes in the serving snapshot.",
		func() float64 { return float64(s.coco.ServingInfo().Nodes) })
	m.reg.NewGaugeFunc("cocoserve_snapshot_edges",
		"Edges in the serving snapshot.",
		func() float64 { return float64(s.coco.ServingInfo().Edges) })
	m.growShardSeries(s)
}

// growShardSeries registers the per-shard series of every index of the
// served partition that has none yet. It runs at startup and before each
// render of /metrics or /stats, so after a reload grows the partition (3
// to 4 shards, say) both views carry the new index; an index past a
// shrunk partition keeps its series and reports zeros.
func (m *serveMetrics) growShardSeries(s *server) {
	n := s.coco.ServingInfo().Shards
	m.shardMu.Lock()
	defer m.shardMu.Unlock()
	for ; m.shards < n; m.shards++ {
		idx := m.shards
		label := strconv.Itoa(idx)
		info := func() (si serving.ShardServingInfo) {
			if all := s.coco.ShardInfos(); idx < len(all) {
				si = all[idx]
			}
			return si
		}
		m.reg.NewGaugeFunc("cocoserve_shard_generation",
			"Publish generation of one shard's content (reloads that skip it leave it alone).",
			func() float64 { return float64(info().Generation) }, "shard", label)
		m.reg.NewGaugeFunc("cocoserve_shard_checksum",
			"CRC-32 of one shard's loaded content, as a number so a change is visible as a step.",
			func() float64 {
				v, _ := strconv.ParseUint(info().Checksum, 16, 64) // 0 for an unstored shard
				return float64(v)
			}, "shard", label)
		m.reg.NewGaugeFunc("cocoserve_shard_load_failures",
			"Consecutive reload failures attributed to one shard.",
			func() float64 { return float64(s.coco.Lifecycle().ShardFails[idx]) }, "shard", label)
		m.reg.NewGaugeFunc("cocoserve_shard_nodes",
			"Nodes in one shard of the serving partition.",
			func() float64 { return float64(info().Nodes) }, "shard", label)
		m.reg.NewGaugeFunc("cocoserve_shard_edges",
			"Edges in one shard of the serving partition.",
			func() float64 { return float64(info().Edges) }, "shard", label)
	}
}

// registerLifecycleCollectors exposes the serving core's lifecycle record
// (reload, breaker, rollback and scrub counts, which a scrape reads
// without waiting for a load) and creates the handler counters the server
// increments.
func (m *serveMetrics) registerLifecycleCollectors(s *server) {
	lc := s.coco.Lifecycle
	counter := func(name, help string, v func(serving.Lifecycle) uint64) {
		m.reg.NewCounterFunc(name, help, func() uint64 { return v(lc()) })
	}
	counter("cocoserve_reload_failures_total", "Reload attempts that returned an error.",
		func(l serving.Lifecycle) uint64 { return l.ReloadFailures })
	counter("cocoserve_reload_retries_total", "Backoff retries after a failed reload.",
		func(l serving.Lifecycle) uint64 { return l.ReloadRetries })
	m.reg.NewGaugeFunc("cocoserve_reload_backoff_attempt",
		"Retry delays handed out since the last good reload: the position in the backoff schedule.",
		func() float64 { return float64(lc().BackoffAttempt) })
	for _, state := range []string{"closed", "open", "half-open"} {
		state := state
		m.reg.NewGaugeFunc("cocoserve_reload_breaker_state",
			"1 for the reload breaker's current state, 0 for the others.",
			func() float64 { return oneIf(lc().Breaker.State == state) }, "state", state)
	}
	m.reg.NewGaugeFunc("cocoserve_reload_breaker_consecutive_failures",
		"Whole-net reload failures since the last good reload; at the threshold the breaker opens and serving rolls back.",
		func() float64 { return float64(lc().Breaker.ConsecutiveFailures) })
	counter("cocoserve_reload_breaker_opens_total", "Times the reload breaker tripped open.",
		func(l serving.Lifecycle) uint64 { return l.Breaker.Opens })
	counter("cocoserve_reload_breaker_denied_total", "Reload attempts the open breaker refused.",
		func(l serving.Lifecycle) uint64 { return l.Breaker.Denied })
	counter("cocoserve_rollbacks_total", "Completed rollbacks (automatic and operator).",
		func(l serving.Lifecycle) uint64 { return l.Rollbacks })
	counter("cocoserve_validation_failures_total", "Post-swap validation rejections.",
		func(l serving.Lifecycle) uint64 { return l.ValidationFailures })
	counter("cocoserve_scrub_passes_total", "Completed scrub passes.",
		func(l serving.Lifecycle) uint64 { return l.ScrubPasses })
	counter("cocoserve_scrub_repairs_total", "Files re-materialized by the scrubber.",
		func(l serving.Lifecycle) uint64 { return l.ScrubRepairs })
	counter("cocoserve_scrub_quarantines_total", "Files quarantined by the scrubber.",
		func(l serving.Lifecycle) uint64 { return l.ScrubQuarantines })
	counter("cocoserve_scrub_unrepaired_total", "Scrub mismatches no repair source covered.",
		func(l serving.Lifecycle) uint64 { return l.ScrubUnrepaired })
	counter("cocoserve_scrub_errors_total", "Scrub passes that failed outright.",
		func(l serving.Lifecycle) uint64 { return l.ScrubErrors })
	s.panics = m.reg.NewCounter("cocoserve_panics_recovered_total",
		"Handler panics converted to 500s.")
	s.degraded = m.reg.NewCounter("cocoserve_degraded_refusals_total",
		"Misses refused for lack of deadline budget (cache-hits-only mode).")
	m.reg.NewGaugeFunc("cocoserve_draining",
		"1 once shutdown has begun and readiness is failing.",
		func() float64 { return oneIf(s.draining.Load()) })
}

// oneIf is a boolean as a gauge reading.
func oneIf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// statusWriter captures the response status so the instrument wrapper
// can classify and time it. Pooled: the wrapper itself must not allocate
// on the cache-hit path.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(status int) {
	if sw.status == 0 {
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

var statusWriters = sync.Pool{New: func() any { return &statusWriter{} }}

// ridHeader is the canonical correlation header name; direct map access
// against http.Header requires the canonical form.
const ridHeader = "X-Request-Id"

// ridPrefix is a per-process random prefix under which ridCounter mints
// request IDs, so IDs stay unique across restarts without per-request
// randomness (a crypto/rand read per request would allocate and
// serialize on the entropy pool).
var ridPrefix = func() string {
	var b [6]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "00000000-0000"
	}
	return hex.EncodeToString(b[:])
}()

var ridCounter atomic.Uint64

// newRequestID mints a process-unique request ID. It allocates, so it is
// called only where the request already allocates (the admitted miss
// path and shed responses) — a cache hit without a client-supplied ID
// goes un-assigned rather than costing its only spare alloc.
func newRequestID() string {
	return ridPrefix + "-" + strconv.FormatUint(ridCounter.Add(1), 16)
}

// validRequestID accepts a client-supplied correlation ID for echoing:
// printable ASCII, bounded length, no header-splitting characters.
func validRequestID(id string) bool {
	if len(id) == 0 || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c < 0x20 || c > 0x7e {
			return false
		}
	}
	return true
}

// instrument wraps a route handler with the telemetry envelope: echo a
// client correlation ID, time the handler, count the response by status
// class, record 2xx latency into the endpoint histogram, and emit the
// slow-query log line past the -slow-query threshold. Steady-state cost
// on a cache hit without a client ID: a pooled wrapper, a clock read,
// and two atomic adds — zero allocations.
func (s *server) instrument(ep endpoint, h http.HandlerFunc) http.HandlerFunc {
	m := s.metrics
	slowQuery := s.cfg.slowQuery
	return func(w http.ResponseWriter, r *http.Request) {
		if id := r.Header.Get(ridHeader); id != "" && validRequestID(id) {
			w.Header()[ridHeader] = []string{id}
		}
		sw := statusWriters.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, 0
		start := time.Now()
		h(sw, r)
		elapsed := time.Since(start)
		status := sw.status
		sw.ResponseWriter = nil
		statusWriters.Put(sw)
		if status == 0 {
			status = http.StatusOK // handler wrote nothing; net/http sends 200
		}
		cls := classify(status)
		m.status[ep][cls].Inc()
		if cls == cls2xx {
			m.lat[ep].Record(elapsed)
		}
		if slowQuery > 0 && elapsed >= slowQuery {
			m.slow[ep].Inc()
			rid := w.Header().Get(ridHeader)
			if rid == "" {
				rid = "-" // cache hits and ungated endpoints carry an ID only if the client sent one
			}
			log.Printf("slow query: endpoint=%s latency=%v status=%d gen=%d request_id=%s",
				endpointNames[ep], elapsed.Round(time.Microsecond), status,
				s.coco.CacheStamp().Gen, rid)
		}
	}
}

// handleMetrics serves the Prometheus scrape. Not itself instrumented —
// scrapes would otherwise dominate the low-traffic endpoint counters —
// and never gated: observability must keep answering through overload.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.metrics.growShardSeries(s)
	s.metrics.reg.Handler().ServeHTTP(w, r)
}
