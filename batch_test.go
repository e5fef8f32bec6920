package alicoco

import (
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// TestSearchBatchMatchesSequential runs randomized batches — with worker
// parallelism forced on — and compares every slot against the single-query
// path under -race: batching may never change an answer or its position.
func TestSearchBatchMatchesSequential(t *testing.T) {
	c := buildSmall(t)
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	rng := rand.New(rand.NewSource(23))
	pool := []string{"outdoor barbecue", "winter coat", "grill", "coat", "zzz nothing"}
	for _, qs := range c.Internal().World.QuerySet(30) {
		pool = append(pool, strings.Join(qs.Tokens, " "))
	}
	for trial := 0; trial < 10; trial++ {
		queries := make([]string, 1+rng.Intn(40))
		for i := range queries {
			queries[i] = pool[rng.Intn(len(pool))]
		}
		batch := mustSearchBatch(t, c, queries, 10)
		if len(batch) != len(queries) {
			t.Fatalf("trial %d: %d results for %d queries", trial, len(batch), len(queries))
		}
		for i, q := range queries {
			if want := mustSearch(t, c, q, 10); !reflect.DeepEqual(batch[i], want) {
				t.Fatalf("trial %d query %d (%q): batch %+v, sequential %+v", trial, i, q, batch[i], want)
			}
		}
	}
	if got := mustSearchBatch(t, c, nil, 10); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestRecommendBatchMatchesSequential does the same for recommendation
// sessions, including sessions that produce no recommendation.
func TestRecommendBatchMatchesSequential(t *testing.T) {
	c := buildSmall(t)
	prev := runtime.GOMAXPROCS(8)
	defer runtime.GOMAXPROCS(prev)
	sessions := c.SampleSessions(20)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	sessions = append(sessions, []int{1 << 28}, nil) // unknown item and empty session
	batch := mustRecommendBatch(t, c, sessions, 5)
	if len(batch) != len(sessions) {
		t.Fatalf("%d results for %d sessions", len(batch), len(sessions))
	}
	for i, sess := range sessions {
		rec, ok := mustRecommend(t, c, sess, 5)
		if batch[i].Found != ok {
			t.Fatalf("session %d: batch found=%v, sequential ok=%v", i, batch[i].Found, ok)
		}
		if ok && !reflect.DeepEqual(batch[i].Recommendation, rec) {
			t.Fatalf("session %d: batch %+v, sequential %+v", i, batch[i].Recommendation, rec)
		}
	}
}

// TestBatchPinnedDuringRefreeze hammers SearchBatchBytesCtx while Refreeze
// republishes: every batch must come back complete and internally
// consistent (all slots answered, no mixed-version partial results),
// proving the batch reads one pinned snapshot.
func TestBatchPinnedDuringRefreeze(t *testing.T) {
	c := buildSmall(t)
	queries := []string{"outdoor barbecue", "grill", "winter coat"}
	want := mustSearchBatch(t, c, queries, 8)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := c.Refreeze(); err != nil {
					t.Errorf("refreeze: %v", err)
					return
				}
			}
		}
	}()
	for i := 0; i < 50; i++ {
		got := mustSearchBatch(t, c, queries, 8)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("iteration %d: batch answer drifted during refreeze", i)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestServingInfoLifecycle follows the generation counter and source label
// through build, refreeze, save, load, and rollback.
func TestServingInfoLifecycle(t *testing.T) {
	c := buildSmall(t)
	info := c.ServingInfo()
	if info.Source != "build" || info.Generation != 1 || info.Checksum != "" {
		t.Fatalf("after build: %+v", info)
	}
	if info.Nodes == 0 || info.Edges == 0 || info.PublishedAt.IsZero() {
		t.Fatalf("empty serving counts: %+v", info)
	}
	if err := c.Refreeze(); err != nil {
		t.Fatal(err)
	}
	info = c.ServingInfo()
	if info.Source != "refreeze" || info.Generation != 2 {
		t.Fatalf("after refreeze: %+v", info)
	}
	dir := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, err := c.SaveShards(dir, 1); err != nil {
			t.Fatal(err)
		}
	}
	loaded, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	linfo := loaded.ServingInfo()
	if linfo.Source != "shards" || linfo.Generation != 1 || linfo.Checksum == "" || linfo.CatalogGen != 2 {
		t.Fatalf("after load: %+v", linfo)
	}
	if linfo.Nodes != info.Nodes || linfo.Edges != info.Edges {
		t.Fatalf("loaded counts differ: %+v vs %+v", linfo, info)
	}
	// Rolling back to a generation with the same content republishes it
	// under the same content checksum.
	if _, err := loaded.RollbackTo(1); err != nil {
		t.Fatal(err)
	}
	linfo2 := loaded.ServingInfo()
	if linfo2.Generation != 2 || linfo2.Checksum != linfo.Checksum || linfo2.CatalogGen != 1 {
		t.Fatalf("after rollback: %+v", linfo2)
	}
}
