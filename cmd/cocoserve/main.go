// Command cocoserve serves the concept net over HTTP, mirroring the
// production surfaces of Figure 2: semantic search with concept cards,
// concept lookup, and cognitive recommendation.
//
// Endpoints:
//
//	GET  /stats
//	GET  /metrics   (Prometheus text exposition)
//	GET  /search?q=outdoor+barbecue
//	POST /search/batch      {"queries": ["outdoor barbecue", ...], "max_items": 12}
//	GET  /concept?name=outdoor+barbecue
//	GET  /recommend?items=1,2,3&k=10
//	POST /recommend/batch   {"sessions": [[1,2,3], [4,5]], "k": 10}
//	GET  /hypernyms?name=coat
//	POST /reload
//	POST /rollback  (-snapshot-dir: republish an earlier generation)
//	GET  /healthz   (liveness: 200 while the process can answer at all)
//	GET  /readyz    (readiness: 503 while draining or saturated)
//
// The batch endpoints amortize one HTTP round-trip over a page of queries
// (up to 256 per request): the whole batch is pinned to a single frozen
// snapshot and fanned out across GOMAXPROCS workers. /search/batch answers
// {"results": [SearchResult, ...]} and /recommend/batch answers
// {"results": [{"Found": bool, "Reason": ..., "Card": ...}, ...]}, both in
// request order.
//
// /metrics renders the server's one metric registry as Prometheus text,
// and /stats carries the same series as JSON under "metrics" (a histogram
// as its count, sum, p50 and p99 in seconds) beside what no series can
// carry: the net shape, "build", and the serving "snapshot" identity
// (source, checksum and store root, publish times, per-shard checksums).
//
// Serving is cached at two layers, both stamped with the serving
// generation so POST /reload (or a refreeze) invalidates everything at
// once without scanning: the facade memoizes composed search/recommend
// results (shared by the single and batch endpoints), and the hot
// single-query GETs additionally cache their encoded JSON bytes keyed on
// the raw query string — a repeat request is one cache lookup and one
// buffer write. -cache-size sets the per-layer entry budget (0 disables);
// once a layer's shard is an eighth full, a key is cached from its second
// miss, so one-off queries do not fill it.
// Request decoding allocates next to nothing: batch bodies parse through
// a pooled fixed-shape scanner instead of encoding/json, and GET
// parameters resolve as substrings of the raw query, with net/url's
// semantics (see FuzzQueryParam).
//
// Usage: cocoserve [-addr :8080] [-scale small|default]
//
//	[-snapshot-dir store] [-shards N]
//	[-refresh 5m] [-cache-size 4096]
//	[-deadline 2s] [-batch-deadline 15s] [-max-inflight N] [-queue-depth N]
//	[-drain-timeout 15s] [-scrub-interval 10m]
//
// Without -snapshot-dir the server builds the net at startup (-shards N
// partitions it; refreezes then re-freeze all N shards in parallel) and
// POST /reload re-freezes the live net. Every partition, one shard or
// many, built or loaded, is queried through the same scatter-gather read
// path (core.ShardSet): -shards 1 is a one-shard partition, not a
// separate store.
//
// With -snapshot-dir, startup loads the newest committed generation of a
// snapshot store written by `alicoco snapshot save` or SaveShards — no
// rebuild, so cold start is proportional to disk bandwidth. A generation
// is a partition of N independently frozen shards (a manifest plus one
// file per shard) committed by an atomic rename of the store's CATALOG.
// POST /reload diffs the newest generation's manifest against serving and
// re-reads only the shards whose checksums changed — unchanged shards keep
// their in-memory form and their cache entries stay warm; a no-op reload
// swaps nothing at all. Every file's CRC-32 (along with every structural
// invariant) is verified before anything is swapped, so a corrupt or
// truncated generation leaves the current serving state untouched. The
// swap itself is one atomic pointer store — in-flight and concurrent
// queries keep answering without downtime; -refresh does the same on a
// timer. POST /reload?shard=i force-reloads one shard; an index the served
// partition does not have answers 400 and counts no reload failure. The
// cocoserve_shard_* series follow the served partition as it grows.
//
// Operational behavior (see PERF.md "Operational behavior" for budgets):
// handler panics become 500s behind recovery middleware; cache-missing
// queries carry a per-endpoint deadline and pass an admission gate that
// sheds with 429 + Retry-After once its bounded wait queue is full (cache
// hits always answer — the degraded cache-hits-only mode under overload);
// POST bodies are capped and answer 413 when oversized; /healthz is
// liveness, /readyz is readiness (fails while draining or saturated);
// SIGTERM/SIGINT drains in-flight requests within -drain-timeout before
// exiting; the -refresh loop retries failed reloads with jittered
// exponential backoff behind a circuit breaker, keeping the last good
// generation serving throughout. The cocoserve_gate_* and
// cocoserve_reload_* series count all of it.
//
// With -snapshot-dir the crash-safe snapshot lifecycle runs on top of all
// of the above. The server only reads the store: it never sweeps a torn or
// uncommitted save (the publisher's next save does, and loads never look
// at uncommitted directories) and never drops a generation (the
// publisher's commits do, by their own -retain window, but keep the
// generation this server serves: it holds that generation's directory
// until it publishes another). Every newly published generation — by a
// full or a single-shard reload — must pass post-swap validation or the
// server automatically rolls back down the catalog to the newest
// generation that loads and validates clean (the bad generation is
// skiplisted, and reloads hold, until a newer one lands); a reload breaker
// trip likewise re-anchors serving on the newest clean generation instead
// of freezing on "last good in memory"; POST /rollback?gen=N republishes
// an earlier generation on demand (404 when the catalog lists no such
// generation, or, without gen, none older than the one serving); and
// -scrub-interval runs a background integrity scrubber that re-hashes the
// served generation's files against its manifest — anchored by the
// catalog entry's manifest checksum — quarantining mismatches and
// repairing them from the newest clean source (another committed
// generation, else the in-memory shard). /stats gains a "snapstore"
// section listing the catalog with its skiplist, the last rollback and
// the last scrub report.
package main

import "alicoco/internal/serve"

func main() { serve.Main() }
