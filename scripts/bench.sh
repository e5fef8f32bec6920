#!/usr/bin/env bash
# bench.sh — run the core serving benchmarks and record the perf trajectory.
#
# Usage: scripts/bench.sh [benchtime]
#
# Runs the serving benchmark set across the packages that carry it — the
# BenchmarkFrozenVsLocked* and BenchmarkFrozenSearchEngine reads of the
# one-shard ShardSet (each a "/frozen" row), the
# BenchmarkColdStart{Live,Frozen} pair, the BenchmarkParallelFrozen*
# concurrent-serving benchmarks, the BenchmarkBatchServe* batch-vs-
# sequential pairs, the BenchmarkSearchIntoReused zero-allocation headline,
# BenchmarkSegmentInto (pooled DP scratch vs allocating MaxMatch), the
# BenchmarkServeCacheHit/Miss end-to-end query-cache pair, the
# BenchmarkServeCacheFill miss-fill-and-evict path of full caches,
# BenchmarkBatchDecode (fixed-shape scanner vs encoding/json), and the
# BenchmarkSharded* set (reads through a 1-shard vs a 4-shard ShardSet,
# the one frozen read path, and a whole-net vs a 4-shard freeze), and
# BenchmarkReload (a no-op, a single-shard and a reshard reload of a
# committed generation, the per-layer twin of the churn publish), and
# BenchmarkBuildSharded and BenchmarkSaveShards (the facade build and the
# commit that make up most of the bench harness's set-up) — and
# writes BENCH_core.json at the repo root: one record per benchmark with
# ns/op, B/op, and allocs/op. The FrozenVsLocked* rows keep the names
# they had when each was paired with a "/locked" read of the live net,
# whose read half is now only a test reference.
#
# Before overwriting, the committed BENCH_core.json is kept and a
# BENCH_delta table (ns/op, B/op and allocs/op, old vs new, per benchmark)
# is printed, so every PR's perf trajectory is visible without manual
# diffing.
# The run fails if any required benchmark is missing from the output —
# renaming or breaking a tracked benchmark cannot slip through silently.
set -euo pipefail

cd "$(dirname "$0")/.."
BENCHTIME="${1:-1s}"
OUT=BENCH_core.json
RAW="$(mktemp)"
OLD="$(mktemp)"
trap 'rm -f "$RAW" "$OLD"' EXIT

# Preserve the committed baseline for the delta report.
if [ -f "$OUT" ]; then
    cp "$OUT" "$OLD"
else
    echo "[]" > "$OLD"
fi

go test -run '^$' \
    -bench 'FrozenVsLocked|FrozenSearchEngine|ColdStart|ParallelFrozen|BatchServe|SearchIntoReused|SegmentInto|ServeCache|BatchDecode|Sharded|Reload|SaveShards' \
    -benchmem -benchtime="$BENCHTIME" \
    . ./internal/text ./internal/serve | tee "$RAW"

awk '
BEGIN { print "[" ; first = 1 }
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name)  # drop the -GOMAXPROCS suffix: names stay comparable across hosts
    ns = ""; bytes = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i-1)
        if ($(i) == "B/op")      bytes = $(i-1)
        if ($(i) == "allocs/op") allocs = $(i-1)
    }
    if (ns == "") next
    if (!first) print ","
    first = 0
    printf "  {\"name\": \"%s\", \"ns_per_op\": %s", name, ns
    if (bytes != "")  printf ", \"bytes_per_op\": %s", bytes
    if (allocs != "") printf ", \"allocs_per_op\": %s", allocs
    printf "}"
}
END { print "\n]" }
' "$RAW" > "$OUT"

echo "wrote $OUT ($(grep -c '"name"' "$OUT") benchmarks)"

# Every benchmark the trajectory tracks must be present; a silent drop
# (renamed benchmark, regex drift, build skip) fails the run.
for required in \
    BenchmarkFrozenVsLockedOut BenchmarkFrozenVsLockedRecommend \
    BenchmarkColdStartFrozen BenchmarkParallelFrozenSearch \
    BenchmarkBatchServeSearch BenchmarkSearchIntoReused \
    BenchmarkSegmentInto BenchmarkServeCacheHit BenchmarkServeCacheMiss \
    BenchmarkServeCacheFill/search BenchmarkServeCacheFill/recommend \
    BenchmarkBatchDecode BenchmarkShardedSearch/N=1 BenchmarkShardedSearch/N=4 \
    BenchmarkShardedRecommend/N=4 BenchmarkShardedFreeze \
    BenchmarkReload/noop BenchmarkReload/shard BenchmarkReload/reshard \
    BenchmarkBuildSharded BenchmarkSaveShards; do
    if ! grep -q "\"name\": \"$required" "$OUT"; then
        echo "bench.sh: required benchmark $required missing from $OUT" >&2
        exit 1
    fi
done

# BENCH_delta: fresh run vs the committed baseline.
echo
echo "BENCH_delta (vs committed $OUT):"
awk '
function field(s, key,   i, t) {
    i = index(s, "\"" key "\": ")
    if (i == 0) return ""
    t = substr(s, i + length(key) + 4)
    sub(/[,}].*/, "", t)
    gsub(/[\" ]/, "", t)
    return t
}
function pair(old, new) { return (old != "" && new != "") ? sprintf("%s -> %s", old, new) : "-" }
NR == FNR {
    n = field($0, "name")
    if (n != "") {
        oldns[n] = field($0, "ns_per_op"); oldby[n] = field($0, "bytes_per_op"); oldal[n] = field($0, "allocs_per_op")
    }
    next
}
{
    n = field($0, "name")
    if (n == "") next
    ns = field($0, "ns_per_op"); by = field($0, "bytes_per_op"); al = field($0, "allocs_per_op")
    if (n in oldns) {
        pct = (oldns[n] > 0) ? (ns - oldns[n]) / oldns[n] * 100 : 0
        printf "  %-55s %12s -> %10s ns/op  %+7.1f%%   B/op %s   allocs %s\n", n, oldns[n], ns, pct, pair(oldby[n], by), pair(oldal[n], al)
    } else {
        printf "  %-55s %12s -> %10s ns/op      (new)   B/op %s   allocs %s\n", n, "-", ns, by, al
    }
}
' "$OLD" "$OUT"
