package alicoco

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"alicoco/internal/faultfs"
)

// These tests prove the deadline propagates *through* the sharded
// scatter-gather, not just to its edge: a faultfs query-time delay on the
// shard boundaries must make a tight deadline cancel the in-flight query
// within budget, and an ample deadline must still produce results
// identical to the unfaulted, unbounded path. They arm process-global
// fault injection, so they never run in t.Parallel.

// buildShardedSlow builds a sharded small net with caches off, so every
// query takes the uncached engine path where ctx checks and shard-boundary
// probes live.
func buildShardedSlow(t *testing.T) *CoCo {
	t.Helper()
	c, err := BuildSharded(Small(), 4)
	if err != nil {
		t.Fatal(err)
	}
	c.SetQueryCacheCapacity(0)
	return c
}

// slowQueries are cache-missing, non-exact-match queries that force the
// voting + collection phases (many shard crossings each).
var slowQueries = []string{
	"outdoor barbecue grill party",
	"warm winter jacket hiking",
	"fresh fruit juice breakfast",
}

func TestDeadlinePropagatesThroughShardedSearch(t *testing.T) {
	c := buildShardedSlow(t)

	// Every shard-boundary crossing costs 10ms; the exact-match scatter
	// alone crosses all 4 shards (40ms), so a 25ms deadline must expire
	// mid-engine for any non-exact query.
	restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: -1, Delay: 10 * time.Millisecond})
	defer restore()

	const deadline = 25 * time.Millisecond
	for _, q := range slowQueries {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, err := c.SearchCtx(ctx, q, 12)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("SearchCtx(%q) with slow shards: err = %v, want DeadlineExceeded", q, err)
		}
		// Cancellation must land at the next shard boundary: one boundary's
		// injected delay past the deadline, plus generous CI scheduling
		// slack — not the seconds a full un-canceled scatter would take.
		if elapsed > deadline+500*time.Millisecond {
			t.Fatalf("SearchCtx(%q) returned %v after deadline %v — not canceled at a shard boundary", q, elapsed, deadline)
		}
	}
}

// TestQueryFaultReachesOneShardSearch: a one-shard CoCo (Build) serves
// through the same ShardSet read path as a partitioned one, so a query
// fault armed on its only shard reaches the search — the probe fires, and
// a deadline shorter than one injected delay cancels the query.
func TestQueryFaultReachesOneShardSearch(t *testing.T) {
	c, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	c.SetQueryCacheCapacity(0)
	restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: 0, Delay: 15 * time.Millisecond})
	defer restore()

	before := faultfs.Injected()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = c.SearchCtx(ctx, slowQueries[0], 12)
	if faultfs.Injected() == before {
		t.Fatal("the search never crossed into the armed shard")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SearchCtx on a slow one-shard net: err = %v, want DeadlineExceeded", err)
	}
}

func TestDeadlinePropagatesThroughShardedRecommend(t *testing.T) {
	c := buildShardedSlow(t)
	sessions := c.SampleSessions(4)
	if len(sessions) == 0 {
		t.Skip("no sessions at this scale")
	}

	// One crossing (15ms) exceeds the whole deadline: any session with at
	// least one resolvable item must cancel at the next boundary check.
	restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: -1, Delay: 15 * time.Millisecond})
	defer restore()

	const deadline = 10 * time.Millisecond
	canceled := false
	for _, sess := range sessions {
		ctx, cancel := context.WithTimeout(context.Background(), deadline)
		start := time.Now()
		_, _, err := c.RecommendCtx(ctx, sess, 10)
		elapsed := time.Since(start)
		cancel()
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("RecommendCtx: err = %v, want DeadlineExceeded", err)
			}
			canceled = true
			if elapsed > deadline+500*time.Millisecond {
				t.Fatalf("RecommendCtx returned %v after deadline %v", elapsed, deadline)
			}
		}
	}
	if !canceled {
		t.Fatal("no session hit the deadline despite slow shards — delay not propagating")
	}
}

func TestDeadlineBatchCanceledBySlowShard(t *testing.T) {
	c := buildShardedSlow(t)

	restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: 1, Delay: 2 * time.Millisecond})
	defer restore()

	queries := make([]string, 0, 32)
	for i := 0; i < 32; i++ {
		queries = append(queries, slowQueries[i%len(slowQueries)])
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := c.SearchBatchBytesCtx(ctx, queryBytes(queries), 12)
	elapsed := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("batch with one slow shard: err = %v (res len %d), want DeadlineExceeded", err, len(res))
	}
	if res != nil {
		t.Fatal("batch returned partial results alongside the ctx error")
	}
	if elapsed > time.Second {
		t.Fatalf("batch took %v to cancel — fan-out stalled on the slow shard", elapsed)
	}
}

// TestAmpleDeadlineIdenticalUnderSlowShard: with the fault still armed but
// a deadline far above the injected delays, every entry point must return
// results deeply equal to the unbounded, unfaulted call — slow is not
// wrong.
func TestAmpleDeadlineIdenticalUnderSlowShard(t *testing.T) {
	c := buildShardedSlow(t)

	want := make([]SearchResult, len(slowQueries))
	for i, q := range slowQueries {
		want[i] = mustSearch(t, c, q, 12)
	}
	sessions := c.SampleSessions(3)
	wantRec := make([]Recommendation, len(sessions))
	wantOK := make([]bool, len(sessions))
	for i, sess := range sessions {
		wantRec[i], wantOK[i] = mustRecommend(t, c, sess, 10)
	}

	restore := faultfs.InjectQuery(faultfs.QueryFault{Shard: 2, Delay: 200 * time.Microsecond})
	defer restore()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, q := range slowQueries {
		got, err := c.SearchCtx(ctx, q, 12)
		if err != nil {
			t.Fatalf("SearchCtx(%q) ample deadline: %v", q, err)
		}
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("SearchCtx(%q) differs under slow shard with ample deadline", q)
		}
	}
	batch, err := c.SearchBatchBytesCtx(ctx, queryBytes(slowQueries), 12)
	if err != nil {
		t.Fatalf("SearchBatchBytesCtx ample deadline: %v", err)
	}
	if !reflect.DeepEqual(batch, want) {
		t.Fatal("SearchBatchBytesCtx differs under slow shard with ample deadline")
	}
	for i, sess := range sessions {
		rec, ok, err := c.RecommendCtx(ctx, sess, 10)
		if err != nil {
			t.Fatalf("RecommendCtx ample deadline: %v", err)
		}
		if ok != wantOK[i] || !reflect.DeepEqual(rec, wantRec[i]) {
			t.Fatalf("RecommendCtx session %d differs under slow shard with ample deadline", i)
		}
	}
}
