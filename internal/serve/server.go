// Package serve implements the cocoserve HTTP server: the production
// serving tier of the concept net (semantic search with concept cards,
// concept lookup, cognitive recommendation, batch variants, snapshot
// lifecycle endpoints, health/readiness, /stats and /metrics). The cocoserve
// command is a thin wrapper around Main; cmd/cocoload embeds the same
// server in-process so load and chaos drills exercise the real thing.
//
// See the cmd/cocoserve command documentation for the endpoint list,
// flags, and operational behavior (PERF.md "Operational behavior" and
// "SLOs under load" carry the budgets and measured tails).
package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"flag"
	"log"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"alicoco"
	"alicoco/internal/obs"
	"alicoco/internal/qcache"
	"alicoco/internal/resilience"
	"alicoco/internal/snapstore"
)

// maxRecommendK caps the k parameter of /recommend so a single request
// cannot ask for an unbounded result set.
const maxRecommendK = 100

// defaultSearchItems is the per-card item count of GET /search and the
// default for batches; maxSearchItems caps what a batch may request.
const (
	defaultSearchItems = 12
	maxSearchItems     = 100
)

// maxBatch caps how many queries or sessions one batch request may carry.
const maxBatch = 256

// maxBatchBody caps a batch request's body size before decoding, so the
// maxBatch element cap cannot be sidestepped by one enormous JSON payload.
const maxBatchBody = 1 << 20

// maxPooledEncodeBuf is the largest response buffer worth keeping in the
// codec pool; a rare huge batch response should not pin megabytes per
// pool slot.
const maxPooledEncodeBuf = 64 << 10

type server struct {
	coco *alicoco.CoCo

	// searchBytes / recBytes cache the *encoded JSON bytes* of the hot
	// single-query GET endpoints, keyed on the raw query string and
	// stamped with the facade's serving generation (a /reload invalidates
	// them exactly like the engine-level result caches): a hit skips
	// parameter parsing, engine dispatch, and JSON encoding — one cache
	// lookup, one buffer write. nil disables the layer (-cache-size 0).
	searchBytes *qcache.Cache
	recBytes    *qcache.Cache

	// cfg holds the resilience policy; the zero value means no deadlines,
	// no gating and no reload breaker — the gate and the breaker tolerate
	// staying nil.
	cfg serveConfig

	// gate admits cache-missing engine dispatches: a bounded number run,
	// a bounded queue waits, everyone else is shed with 429. Cache hits
	// bypass it entirely, which is the degraded cache-hits-only mode.
	gate *resilience.Gate

	// breaker + backoff harden the snapshot reload path: consecutive
	// reload failures open the breaker (the -refresh loop stops hammering
	// the broken file) and retries within one refresh trigger space out
	// with jittered exponential backoff.
	breaker *resilience.Breaker
	backoff *resilience.Backoff

	// draining flips when shutdown starts: /readyz fails so load
	// balancers stop routing here while in-flight requests finish.
	draining atomic.Bool

	// Lifecycle counters, created in the metrics registry by
	// newServeMetrics (metrics.go).
	panics             *obs.Counter // handler panics converted to 500s
	degraded           *obs.Counter // misses refused for lack of deadline budget
	reloadFailures     *obs.Counter // reload attempts that returned an error
	reloadRetries      *obs.Counter // backoff retries after a failed reload
	rollbacks          *obs.Counter // completed rollbacks (automatic + operator)
	validationFailures *obs.Counter // post-swap validation rejections
	scrubPasses        *obs.Counter // completed scrub passes
	scrubRepairs       *obs.Counter // files re-materialized by the scrubber
	scrubQuarantines   *obs.Counter // files quarantined by the scrubber
	scrubUnrepaired    *obs.Counter // mismatches no repair source covered
	scrubErrors        *obs.Counter // scrub passes that failed outright

	// store is the root of the generation catalog behind -snapshot-dir;
	// "" means the net was built live, and /reload re-freezes it instead.
	// With a store, /reload diffs its newest generation against serving
	// (only shards whose checksums changed are re-read), /reload?shard=i
	// force-reloads one shard, and rollback and scrub repair work on it.
	// The server only lists the catalog, and the facade's reloads,
	// rollbacks and scrubs only read it. Reloads serialize on the facade's
	// own offline lock; queries are never blocked. See snapstore.go in
	// this package.
	store string

	// scrubMu guards the most recent scrub report for /stats.
	scrubMu   sync.Mutex
	lastScrub *snapstore.ScrubReport

	// reloadMu serializes reload attempts with their failure bookkeeping
	// (the breaker's trip drives the auto-rollback); the facade's offline
	// lock only serializes the swap itself.
	reloadMu   sync.Mutex
	shardFails map[int]int // consecutive failures per shard, guarded by reloadMu

	// badGens skiplists catalog generations that loaded but failed
	// post-swap validation (or failed to load during a rollback walk):
	// the refresh loop holds instead of republishing them, until a
	// generation newer than every bad one lands. Guarded by reloadMu.
	badGens map[uint64]bool

	// lastRollback describes the most recent rollback for /stats.
	// Guarded by reloadMu.
	lastRollback *rollbackStat

	// hook, when set before serving starts, is called at the top of the
	// query handlers ("search", "recommend", ...) and again after
	// admission ("search.engine", ...) — the fault-injection seam chaos
	// tests use to panic or stall inside a request.
	hook func(op string)

	// metrics is the registry behind /metrics and /stats plus the
	// request-path instruments; built by newServerCfg, which every server
	// comes from. See metrics.go in this package.
	metrics *serveMetrics
}

// newServer wires a server around a facade with the given per-cache entry
// budget (the facade's engine-level caches are resized to match) and the
// default resilience policy.
func newServer(coco *alicoco.CoCo, cacheSize int) *server {
	cfg := defaultServeConfig()
	cfg.cacheSize = cacheSize
	return newServerCfg(coco, cfg)
}

// newServerCfg is newServer with an explicit resilience policy.
func newServerCfg(coco *alicoco.CoCo, cfg serveConfig) *server {
	coco.SetQueryCacheCapacity(cfg.cacheSize)
	s := &server{coco: coco, cfg: cfg}
	if cfg.cacheSize > 0 {
		s.searchBytes = qcache.New(cfg.cacheSize)
		s.recBytes = qcache.New(cfg.cacheSize)
	}
	if cfg.maxInflight > 0 {
		s.gate = resilience.NewGateCfg(resilience.GateConfig{
			Capacity:   cfg.maxInflight,
			QueueDepth: cfg.queueDepth,
			Target:     cfg.targetDelay,
			Interval:   cfg.shedInterval,
		})
	}
	if cfg.breakerThreshold > 0 {
		s.breaker = resilience.NewBreaker(cfg.breakerThreshold, cfg.breakerCooldown)
	}
	s.backoff = resilience.NewBackoff(cfg.backoffBase, cfg.backoffMax, time.Now().UnixNano())
	s.metrics = newServeMetrics(s)
	return s
}

// jsonCodec is a pooled response encoder: the buffer and the encoder bound
// to it are recycled across requests, so steady-state encoding reuses one
// grown buffer instead of allocating per response.
type jsonCodec struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var codecs = sync.Pool{New: func() any {
	c := &jsonCodec{}
	c.enc = json.NewEncoder(&c.buf)
	return c
}}

// statusLen is the size of the big-endian HTTP status an encoded-bytes
// cache value carries behind the response body. Behind, not in front: the
// body then starts the value, which the cache keeps aligned, so a large
// hit is copied to the socket at full speed.
const statusLen = 2

// getCodec returns a pooled codec with an empty buffer.
func getCodec() *jsonCodec {
	c := codecs.Get().(*jsonCodec)
	c.buf.Reset()
	return c
}

func putCodec(c *jsonCodec) {
	if c.buf.Cap() <= maxPooledEncodeBuf {
		codecs.Put(c)
	}
}

// cacheValue appends status to the body in c's buffer and returns the
// buffer as it stands, the encoded-bytes cache value: the body, then the
// status.
func (c *jsonCodec) cacheValue(status int) []byte {
	c.buf.Write(binary.BigEndian.AppendUint16(c.buf.AvailableBuffer(), uint16(status)))
	return c.buf.Bytes()
}

func (s *server) writeJSON(w http.ResponseWriter, v any) {
	s.writeJSONCaching(w, v, nil, qcache.Stamp{}, "")
}

// writeJSONCaching encodes v through a pooled codec, writes it, and — when
// cache is non-nil — stores the encoded bytes, followed by the status,
// under (stamp, key), so the next identical request is a single buffer
// write.
// The body is encoded once, with the status appended behind it, and
// Put's copy into the entry's blob is the only other copy made of it.
// The stamp was read by the caller *before* computing v, which is what
// makes a cached entry never older than the generation it is keyed under
// (a concurrent reload can only make v newer than the stamp, and the new
// generation stops matching the old entries entirely).
func (s *server) writeJSONCaching(w http.ResponseWriter, v any, cache *qcache.Cache, stamp qcache.Stamp, key string) {
	c := getCodec()
	defer putCodec(c)
	if err := c.enc.Encode(v); err != nil {
		// Nothing has been written yet, so the client gets a clean 500
		// instead of a truncated body.
		log.Printf("encode: %v", err)
		http.Error(w, "encode failed", http.StatusInternalServerError)
		return
	}
	if cache != nil && s.coco.CacheStamp() == stamp {
		cache.PutString(stamp, key, c.cacheValue(http.StatusOK))
		c.buf.Truncate(c.buf.Len() - statusLen)
	}
	w.Header()["Content-Type"] = hdrJSON
	if _, err := w.Write(c.buf.Bytes()); err != nil {
		log.Printf("write: %v", err)
	}
}

// writeResults encodes {"results": v} by hand-appending the envelope
// around one Encode of the results slice itself, byte-identical to
// encoding a map[string]any{"results": v} but without allocating the
// one-entry map and reflecting over it per batch response.
func (s *server) writeResults(w http.ResponseWriter, results any) {
	c := getCodec()
	defer putCodec(c)
	c.buf.WriteString(`{"results":`)
	if err := c.enc.Encode(results); err != nil {
		log.Printf("encode: %v", err)
		http.Error(w, "encode failed", http.StatusInternalServerError)
		return
	}
	b := c.buf.Bytes()
	b[len(b)-1] = '}' // Encode's trailing newline becomes the closing brace
	c.buf.WriteByte('\n')
	w.Header()["Content-Type"] = hdrJSON
	if _, err := w.Write(c.buf.Bytes()); err != nil {
		log.Printf("write: %v", err)
	}
}

// Shared pre-allocated header values: assigning these slices directly
// into the (canonical-key) header map skips the []string{v} allocation
// Header().Set pays per call. net/http only reads header values, so one
// shared slice serving every response is safe — and it is what keeps the
// cache-hit path's single remaining allocation free for the request-ID
// echo instead of the Content-Type header; the miss path's JSON writers
// save the same allocation.
var (
	hdrJSON    = []string{"application/json"}
	hdrText    = []string{"text/plain; charset=utf-8"}
	hdrNosniff = []string{"nosniff"}
)

// writeCached replays a hit from an encoded-bytes cache: the value is the
// body — JSON for a 200, else the text http.Error wrote — then the status.
// The value is a view of the entry's blob, which is never written again,
// so it is safe to write out after the cache's lock is released.
func writeCached(w http.ResponseWriter, v []byte) {
	n := len(v) - statusLen
	status, body := int(binary.BigEndian.Uint16(v[n:])), v[:n]
	h := w.Header()
	if status == http.StatusOK {
		h["Content-Type"] = hdrJSON
	} else {
		// Exactly the headers http.Error sets for the same message.
		h["Content-Type"] = hdrText
		h["X-Content-Type-Options"] = hdrNosniff
		w.WriteHeader(status)
	}
	if _, err := w.Write(body); err != nil {
		log.Printf("write: %v", err)
	}
}

// errorCaching answers msg/status via http.Error and — when the outcome
// is deterministic for this snapshot generation — caches the error body
// http.Error writes (msg and a newline) and the status under (stamp, key),
// so the next identical request replays it without parsing anything.
// Requests that fail for this snapshot (unknown items, malformed
// parameters) repeat just like good ones. The same stamp discipline as
// writeJSONCaching applies: stamp was read before the request was
// evaluated, and a reload stops matching it.
func (s *server) errorCaching(w http.ResponseWriter, msg string, status int, cache *qcache.Cache, stamp qcache.Stamp, key string) {
	if cache != nil && s.coco.CacheStamp() == stamp {
		c := getCodec()
		c.buf.WriteString(msg)
		c.buf.WriteByte('\n')
		cache.PutString(stamp, key, c.cacheValue(status))
		putCodec(c)
	}
	http.Error(w, msg, status)
}

// statsResponse is the /stats payload: what no series can carry (the
// Table-2 net shape, build, the serving snapshot's identity, the catalog)
// and every runtime number as the registry's JSON view under "metrics".
type statsResponse struct {
	alicoco.Stats
	Build     obs.BuildInfo   `json:"build"`
	Snapshot  snapshotInfo    `json:"snapshot"`
	Snapstore snapstoreInfo   `json:"snapstore"`
	Metrics   json.RawMessage `json:"metrics"`
}

// snapshotInfo is the serving snapshot's identity. Its generation, age and
// counts are the cocoserve_snapshot_* and cocoserve_shard_* series.
type snapshotInfo struct {
	Source      string      `json:"source"`             // build | shards | refreeze | rollback
	Checksum    string      `json:"checksum,omitempty"` // CRC-32 of the loaded snapshot content
	Dir         string      `json:"dir,omitempty"`      // -snapshot-dir store root, when serving from one
	PublishedAt string      `json:"published_at"`       // RFC 3339
	Shards      []shardStat `json:"shards,omitempty"`   // the served partition, in shard order
}

// shardStat is one shard's identity: its content checksum and when that
// content was last published (a reload that skipped the shard leaves it).
type shardStat struct {
	Checksum    string `json:"checksum,omitempty"`
	PublishedAt string `json:"published_at"`
}

func (s *server) snapshotInfo() snapshotInfo {
	info := s.coco.ServingInfo()
	out := snapshotInfo{
		Source:      info.Source,
		Checksum:    info.Checksum,
		Dir:         s.store,
		PublishedAt: info.PublishedAt.UTC().Format(time.RFC3339),
	}
	for _, si := range s.coco.ShardInfos() {
		out.Shards = append(out.Shards, shardStat{
			Checksum:    si.Checksum,
			PublishedAt: si.PublishedAt.UTC().Format(time.RFC3339),
		})
	}
	return out
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.metrics.growShardSeries(s)
	s.writeJSON(w, statsResponse{
		Stats:     s.coco.Stats(),
		Build:     obs.CurrentBuildInfo(),
		Snapshot:  s.snapshotInfo(),
		Snapstore: s.snapstoreInfo(),
		Metrics:   s.metrics.reg.AppendJSON(nil),
	})
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if h := s.hook; h != nil {
		h("search")
	}
	// The stamp is read before anything else: a response computed after a
	// concurrent reload can only be newer than it, never staler.
	raw := r.URL.RawQuery
	stamp := s.coco.CacheStamp()
	if v, ok := s.searchBytes.GetString(stamp, raw); ok {
		writeCached(w, v)
		return
	}
	q := queryParam(raw, "q")
	if q == "" {
		s.errorCaching(w, "missing q parameter", http.StatusBadRequest, s.searchBytes, stamp, raw)
		return
	}
	ctx, release, ok := s.admit(w, r, s.cfg.deadline, resilience.PriorityNormal)
	if !ok {
		return
	}
	defer release()
	if h := s.hook; h != nil {
		h("search.engine")
	}
	res, err := s.coco.SearchCtx(ctx, q, defaultSearchItems)
	if err != nil {
		s.shed(w, shedTimeout)
		return
	}
	s.writeJSONCaching(w, res, s.searchBytes, stamp, raw)
}

// handleSearchBatch fans a page of queries across workers against one
// pinned snapshot: POST {"queries": [...], "max_items": 12} answers
// {"results": [...]} in request order.
func (s *server) handleSearchBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if h := s.hook; h != nil {
		h("search.batch")
	}
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.body, err = appendReadAll(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBatchBody)); err != nil {
		writeBodyError(w, err)
		return
	}
	queries, maxItems, err := parseSearchBatchBody(sc)
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(queries) == 0 {
		http.Error(w, "missing queries", http.StatusBadRequest)
		return
	}
	if len(queries) > maxBatch {
		http.Error(w, "too many queries (max "+strconv.Itoa(maxBatch)+")", http.StatusBadRequest)
		return
	}
	for _, q := range queries {
		if len(bytes.TrimSpace(q)) == 0 {
			http.Error(w, "empty query in batch", http.StatusBadRequest)
			return
		}
	}
	if maxItems <= 0 {
		maxItems = defaultSearchItems
	} else if maxItems > maxSearchItems {
		maxItems = maxSearchItems
	}
	ctx, release, ok := s.admit(w, r, s.cfg.batchDeadline, resilience.PriorityLow)
	if !ok {
		return
	}
	defer release()
	results, err := s.coco.SearchBatchBytesCtx(ctx, queries, maxItems)
	if err != nil {
		s.shed(w, shedTimeout)
		return
	}
	s.writeResults(w, results)
}

func (s *server) handleConcept(w http.ResponseWriter, r *http.Request) {
	name := queryParam(r.URL.RawQuery, "name")
	if name == "" {
		http.Error(w, "missing name parameter", http.StatusBadRequest)
		return
	}
	cpt, ok := s.coco.LookupConcept(name)
	if !ok {
		http.Error(w, "concept not found", http.StatusNotFound)
		return
	}
	s.writeJSON(w, cpt)
}

func (s *server) handleRecommend(w http.ResponseWriter, r *http.Request) {
	if h := s.hook; h != nil {
		h("recommend")
	}
	raw := r.URL.RawQuery
	stamp := s.coco.CacheStamp()
	if v, ok := s.recBytes.GetString(stamp, raw); ok {
		writeCached(w, v)
		return
	}
	sc := getScratch()
	defer putScratch(sc)
	ids, err := appendItemsParam(sc.ids[:0], queryParam(raw, "items"))
	sc.ids = ids
	if err != nil {
		s.errorCaching(w, "bad items parameter", http.StatusBadRequest, s.recBytes, stamp, raw)
		return
	}
	k := 10
	if ks := queryParam(raw, "k"); ks != "" {
		v, err := strconv.Atoi(ks)
		if err != nil || v <= 0 {
			s.errorCaching(w, "bad k parameter", http.StatusBadRequest, s.recBytes, stamp, raw)
			return
		}
		if v > maxRecommendK {
			v = maxRecommendK
		}
		k = v
	}
	ctx, release, admitted := s.admit(w, r, s.cfg.deadline, resilience.PriorityNormal)
	if !admitted {
		return
	}
	defer release()
	if h := s.hook; h != nil {
		h("recommend.engine")
	}
	rec, ok, err := s.coco.RecommendCtx(ctx, ids, k)
	if err != nil {
		s.shed(w, shedTimeout)
		return
	}
	if !ok {
		s.errorCaching(w, "no recommendation for these items", http.StatusNotFound, s.recBytes, stamp, raw)
		return
	}
	s.writeJSONCaching(w, rec, s.recBytes, stamp, raw)
}

// handleRecommendBatch recommends for a page of sessions against one
// pinned snapshot: POST {"sessions": [[1,2],[3]], "k": 10} answers
// {"results": [{"Found": ...}, ...]} in request order (sessions with no
// recommendation report Found: false instead of failing the batch).
func (s *server) handleRecommendBatch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	if h := s.hook; h != nil {
		h("recommend.batch")
	}
	sc := getScratch()
	defer putScratch(sc)
	var err error
	if sc.body, err = appendReadAll(sc.body[:0], http.MaxBytesReader(w, r.Body, maxBatchBody)); err != nil {
		writeBodyError(w, err)
		return
	}
	sessions, k, err := parseRecommendBatchBody(sc)
	if err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}
	if len(sessions) == 0 {
		http.Error(w, "missing sessions", http.StatusBadRequest)
		return
	}
	if len(sessions) > maxBatch {
		http.Error(w, "too many sessions (max "+strconv.Itoa(maxBatch)+")", http.StatusBadRequest)
		return
	}
	for _, sess := range sessions {
		for _, id := range sess {
			if id < 0 {
				http.Error(w, "negative item id in batch", http.StatusBadRequest)
				return
			}
		}
	}
	if k <= 0 {
		k = 10
	} else if k > maxRecommendK {
		k = maxRecommendK
	}
	ctx, release, ok := s.admit(w, r, s.cfg.batchDeadline, resilience.PriorityLow)
	if !ok {
		return
	}
	defer release()
	results, err := s.coco.RecommendBatchCtx(ctx, sessions, k)
	if err != nil {
		s.shed(w, shedTimeout)
		return
	}
	s.writeResults(w, results)
}

func (s *server) handleHypernyms(w http.ResponseWriter, r *http.Request) {
	name := queryParam(r.URL.RawQuery, "name")
	s.writeJSON(w, map[string]any{"name": name, "hypernyms": s.coco.Hypernyms(name)})
}

// handleReload swaps in a fresh serving snapshot: the newest generation of
// the snapshot store when serving from one, otherwise a re-freeze of the
// live net. The loader verifies every file's checksum and structure before
// anything is published, so a bad snapshot cannot displace the serving
// state; queries keep serving the old snapshot throughout, and the swap
// itself is one atomic pointer store.
func (s *server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST required", http.StatusMethodNotAllowed)
		return
	}
	// A manual reload bypasses the breaker's Allow (an operator poking the
	// endpoint is the half-open probe), but a whole-net failure still feeds
	// the breaker, and a good publish re-closes it for the -refresh loop.
	shard := -1
	if shardStr := queryParam(r.URL.RawQuery, "shard"); shardStr != "" {
		if s.store == "" {
			http.Error(w, "shard reload requires -snapshot-dir", http.StatusBadRequest)
			return
		}
		i, err := strconv.Atoi(shardStr)
		if err != nil || i < 0 {
			http.Error(w, "bad shard parameter", http.StatusBadRequest)
			return
		}
		// The index is client input: one the served partition does not
		// have is refused before any attempt, so it feeds no failure
		// counter and cannot trip the breaker.
		if n := s.coco.NumShards(); i >= n {
			http.Error(w, "shard parameter out of range [0,"+strconv.Itoa(n)+")", http.StatusBadRequest)
			return
		}
		shard = i
	}
	source, err := s.tryReload(shard)
	if err != nil {
		http.Error(w, "reload failed: "+err.Error(), http.StatusInternalServerError)
		return
	}
	s.writeJSON(w, map[string]any{
		"status":   "reloaded",
		"source":   source,
		"snapshot": s.snapshotInfo(),
	})
}

// reload publishes a fresh serving snapshot: shard >= 0 force-reloads that
// shard of the store's newest generation; otherwise the whole net is
// reloaded from the store, or re-frozen when serving has none.
func (s *server) reload(shard int) (source string, err error) {
	if shard >= 0 {
		return "shard:" + strconv.Itoa(shard), s.coco.ReloadShard(s.store, shard)
	}
	if s.store == "" {
		return "refreeze", s.coco.Refreeze()
	}
	changed, err := s.coco.ReloadShards(s.store)
	return "shards:" + s.store + " (" + strconv.Itoa(changed) + " reloaded)", err
}

// mux builds the route table. Query, lifecycle, and stats routes run
// inside the telemetry envelope (metrics.go); /metrics itself and the
// health probes stay outside it — probes and scrapes must not skew the
// traffic counters, and must keep answering no matter what.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/stats", s.instrument(epStats, s.handleStats))
	mux.HandleFunc("/search", s.instrument(epSearch, s.handleSearch))
	mux.HandleFunc("/search/batch", s.instrument(epSearchBatch, s.handleSearchBatch))
	mux.HandleFunc("/concept", s.instrument(epConcept, s.handleConcept))
	mux.HandleFunc("/recommend", s.instrument(epRecommend, s.handleRecommend))
	mux.HandleFunc("/recommend/batch", s.instrument(epRecommendBatch, s.handleRecommendBatch))
	mux.HandleFunc("/hypernyms", s.instrument(epHypernyms, s.handleHypernyms))
	mux.HandleFunc("/reload", s.instrument(epReload, s.handleReload))
	mux.HandleFunc("/rollback", s.instrument(epRollback, s.handleRollback))
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	return mux
}

// Main is the cocoserve entry point: it parses flags from the command
// line, builds or loads the net, and serves until drained.
func Main() {
	addr := flag.String("addr", ":8080", "listen address")
	scale := flag.String("scale", "small", "build scale: small or default")
	snapshotDir := flag.String("snapshot-dir", "",
		"serve the newest generation of this snapshot store instead of building; /reload re-reads only changed shards")
	shards := flag.Int("shards", 0,
		"partition a built net into N independently reloadable shards (ignored with -snapshot-dir)")
	refresh := flag.Duration("refresh", 0, "if > 0, reload the snapshot (or refreeze) on this interval")
	cacheSize := flag.Int("cache-size", alicoco.DefaultQueryCacheCapacity,
		"query cache capacity in entries per cache layer (0 disables caching); past an eighth of it, a key is cached from its second miss")
	cfg := defaultServeConfig()
	deadline := flag.Duration("deadline", cfg.deadline,
		"deadline for a single cache-missing query (0 disables)")
	batchDeadline := flag.Duration("batch-deadline", cfg.batchDeadline,
		"deadline for a batch request (0 disables)")
	maxInflight := flag.Int("max-inflight", cfg.maxInflight,
		"cache-missing engine dispatches allowed to run at once (0 disables admission control)")
	queueDepth := flag.Int("queue-depth", cfg.queueDepth,
		"requests allowed to wait for an engine slot before shedding with 429")
	targetDelay := flag.Duration("target-delay", cfg.targetDelay,
		"adaptive shedding target: queued admissions waiting longer than this for a full -shed-interval start shedding batch traffic first")
	shedInterval := flag.Duration("shed-interval", cfg.shedInterval,
		"how long queue delay must stay above -target-delay before adaptive shedding engages")
	drainTimeout := flag.Duration("drain-timeout", defaultDrainTimeout,
		"how long shutdown waits for in-flight requests before giving up")
	scrubInterval := flag.Duration("scrub-interval", 0,
		"if > 0, re-hash the served snapshot files against their manifest on this interval, quarantining and repairing corruption (ignored without -snapshot-dir)")
	slowQuery := flag.Duration("slow-query", 0,
		"if > 0, log responses slower than this (endpoint, latency, generation, request ID) and count them in cocoserve_slow_queries_total")
	pprofAddr := flag.String("pprof-addr", "",
		"if set, serve net/http/pprof on this address via a separate private listener (never on the serving mux)")
	flag.Parse()

	var coco *alicoco.CoCo
	var err error
	if *snapshotDir != "" {
		start := time.Now()
		coco, err = alicoco.LoadShardedFrozen(*snapshotDir)
		if err != nil {
			log.Fatalf("load snapshot: %v", err)
		}
		log.Printf("loaded %d shards from %s in %v", coco.NumShards(), *snapshotDir, time.Since(start).Round(time.Millisecond))
	} else {
		opts := alicoco.Small()
		if *scale == "default" {
			opts = alicoco.Default()
		}
		log.Printf("building net (scale=%s, shards=%d)...", *scale, *shards)
		coco, err = alicoco.BuildSharded(opts, *shards)
		if err != nil {
			log.Fatalf("build: %v", err)
		}
	}
	// Every handler reads the published frozen snapshot lock-free, so
	// request handling never contends with anything — including reloads.
	info := coco.ServingInfo()
	log.Printf("serving from frozen snapshot: %d nodes, %d edges (source %s)", info.Nodes, info.Edges, info.Source)
	cfg.cacheSize = *cacheSize
	cfg.deadline = *deadline
	cfg.batchDeadline = *batchDeadline
	cfg.maxInflight = *maxInflight
	cfg.queueDepth = *queueDepth
	cfg.targetDelay = *targetDelay
	cfg.shedInterval = *shedInterval
	cfg.scrubInterval = *scrubInterval
	cfg.slowQuery = *slowQuery
	cfg.pprofAddr = *pprofAddr
	s := newServerCfg(coco, cfg)
	if *snapshotDir != "" {
		s.store = *snapshotDir
		log.Printf("snapstore catalog at %s: serving gen %d, scrub interval %v",
			s.store, coco.ServingInfo().CatalogGen, *scrubInterval)
	}
	if *cacheSize > 0 {
		log.Printf("query caches enabled: %d entries per layer (result + encoded-bytes)", *cacheSize)
	} else {
		log.Printf("query caches disabled (-cache-size 0)")
	}
	log.Printf("serving on %s", *addr)
	if err := serve(s, *addr, *refresh, *drainTimeout, nil); err != nil {
		log.Fatal(err)
	}
	log.Printf("drained cleanly")
}
