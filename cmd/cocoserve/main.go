// Command cocoserve serves the concept net over HTTP, mirroring the
// production surfaces of Figure 2: semantic search with concept cards,
// concept lookup, and cognitive recommendation.
//
// Endpoints:
//
//	GET  /stats
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
// /stats reports the net shape plus a "snapshot" section (source, serving
// generation, the content checksum and store root when loaded from disk,
// publish time, age, serving node/edge counts, per-shard state) and a
// "cache" section with hit/miss/eviction counters per cache layer.
//
// Serving is cached at two layers, both stamped with the serving
// generation so POST /reload (or a refreeze) invalidates everything at
// once without scanning: the facade memoizes composed search/recommend
// results (shared by the single and batch endpoints), and the hot
// single-query GETs additionally cache their encoded JSON bytes keyed on
// the raw query string — a repeat request is one cache lookup and one
// buffer write. -cache-size sets the per-layer entry budget (0 disables).
// Request decoding allocates next to nothing: batch bodies parse through
// a pooled fixed-shape scanner instead of encoding/json, and GET
// parameters resolve as substrings of the raw query.
//
// Usage: cocoserve [-addr :8080] [-scale small|default]
//
//	[-snapshot-dir store] [-shards N]
//	[-refresh 5m] [-cache-size 4096]
//	[-deadline 2s] [-batch-deadline 15s] [-max-inflight N] [-queue-depth N]
//	[-drain-timeout 15s] [-retain 4] [-scrub-interval 10m]
//
// Without -snapshot-dir the server builds the net at startup (-shards N
// partitions it; refreezes then re-freeze all N shards in parallel) and
// POST /reload re-freezes the live net.
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
// timer. POST /reload?shard=i force-reloads one shard. /stats lists
// per-shard generation, checksum, publish age, and consecutive-failure
// counts.
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
// generation serving throughout. /stats carries a "resilience" section
// with all of those counters.
//
// With -snapshot-dir the crash-safe snapshot lifecycle runs on top of all
// of the above: startup sweeps any torn/uncommitted save the publisher
// left behind; every newly published generation — by a full or a
// single-shard reload — must pass post-swap validation or the server
// automatically rolls back down the catalog to the newest generation that
// loads and validates clean (the bad generation is skiplisted, and reloads
// hold, until a newer one lands); a reload breaker trip likewise
// re-anchors serving on the newest clean generation instead of freezing
// on "last good in memory"; POST /rollback?gen=N republishes an earlier
// generation on demand; -retain N prunes the catalog after successful
// reloads (the serving generation is never dropped); and -scrub-interval
// runs a background integrity scrubber that re-hashes the served
// generation's files against its manifest — anchored by the catalog
// entry's manifest checksum — quarantining mismatches and repairing them
// from the newest clean source (another committed generation, else the
// in-memory shard). /stats gains a "snapstore" section reporting the
// catalog, rollback history, and scrub counters.
package main

import "alicoco/internal/serve"

func main() { serve.Main() }
