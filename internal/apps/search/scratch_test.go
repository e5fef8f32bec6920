package search

import (
	"context"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/raceflag"
)

// respEqual compares two responses structurally.
func respEqual(a, b Response) bool {
	if len(a.Cards) != len(b.Cards) || len(a.Items) != len(b.Items) {
		return false
	}
	for i := range a.Cards {
		if a.Cards[i].Concept != b.Cards[i].Concept || a.Cards[i].Name != b.Cards[i].Name {
			return false
		}
		if len(a.Cards[i].Items) != len(b.Cards[i].Items) {
			return false
		}
		for j := range a.Cards[i].Items {
			if a.Cards[i].Items[j] != b.Cards[i].Items[j] {
				return false
			}
		}
	}
	for i := range a.Items {
		if a.Items[i] != b.Items[i] {
			return false
		}
	}
	return true
}

// TestSearchIntoReusedMatchesFresh replays a randomized query stream
// through one reused Response and compares every answer against a fresh
// SearchCtx call — proving buffer recycling never leaks one query's result
// into the next (the dedicated equivalence leg of the zero-alloc path).
func TestSearchIntoReusedMatchesFresh(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	rng := rand.New(rand.NewSource(3))
	var queries []string
	queries = append(queries, "outdoor barbecue", "barbecue outdoor", "grill", "", "  ", "UNKNOWN tokens here")
	for _, qs := range a.World.QuerySet(60) {
		queries = append(queries, strings.Join(qs.Tokens, " "))
	}
	var reused Response
	for trial := 0; trial < 300; trial++ {
		q := queries[rng.Intn(len(queries))]
		maxItems := rng.Intn(12) // includes 0 = unlimited
		mustSearchInto(t, e, &reused, q, maxItems)
		fresh := mustSearch(t, e, q, maxItems)
		if !respEqual(reused, fresh) {
			t.Fatalf("trial %d: reused response differs for %q (maxItems=%d):\nreused %+v\nfresh  %+v",
				trial, q, maxItems, reused, fresh)
		}
	}
}

// TestSearchIntoConcurrent hammers SearchInto from several goroutines with
// per-goroutine Responses; -race proves the pooled scratches never share
// state between in-flight queries.
func TestSearchIntoConcurrent(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	queries := []string{"outdoor barbecue", "barbecue outdoor", "grill", "coat"}
	want := make([]Response, len(queries))
	for i, q := range queries {
		want[i] = mustSearch(t, e, q, 10)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var resp Response
			for i := 0; i < 200; i++ {
				qi := (g + i) % len(queries)
				err := e.SearchInto(context.Background(), &resp, []byte(queries[qi]), 10)
				if err != nil || !respEqual(resp, want[qi]) {
					t.Errorf("goroutine %d: answer for %q drifted", g, queries[qi])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestSearchExactMatchZeroAllocs is the CI guard for the tentpole property:
// an exact e-commerce concept query served from a frozen snapshot into a
// reused Response does zero allocations per call.
func TestSearchExactMatchZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race (sync.Pool drops items)")
	}
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	ctx, q := context.Background(), []byte("outdoor barbecue")
	var resp Response
	mustSearchInto(t, e, &resp, string(q), 10) // warm the pooled scratch
	if len(resp.Cards) == 0 {
		t.Fatal("exact query should produce a card")
	}
	allocs := testing.AllocsPerRun(200, func() {
		_ = e.SearchInto(ctx, &resp, q, 10)
	})
	if allocs != 0 {
		t.Fatalf("exact-match SearchInto allocates %.1f times per op, want 0", allocs)
	}
}

// TestSearchVotingPathStillCorrectAfterPooling pins the voting path's
// interaction with scratch reuse: a query with leftover state from a much
// larger previous query must not see stale votes or seen-items.
func TestSearchVotingPathStillCorrectAfterPooling(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	var resp Response
	// Large voting query first to dirty the scratch maps...
	mustSearchInto(t, e, &resp, "barbecue outdoor", 0)
	// ...then a query that matches nothing may not inherit anything.
	mustSearchInto(t, e, &resp, "zzz unknown words", 10)
	if len(resp.Cards) != 0 || len(resp.Items) != 0 {
		t.Fatalf("unknown query inherited pooled state: %+v", resp)
	}
}
