package search

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/pipeline"
)

func buildArts(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	a, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// loadedShards freezes n into count shards, saves each and loads it back,
// and assembles the loaded shards into a set.
func loadedShards(t *testing.T, n *core.Net, count int) *core.ShardSet {
	t.Helper()
	shards := n.FreezeShards(count)
	for i, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := core.LoadFrozen(&buf)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = loaded
	}
	set, err := core.NewShardSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// mustSearch runs one query through SearchCtx with no deadline.
func mustSearch(t testing.TB, e *Engine, query string, maxItems int) Response {
	t.Helper()
	resp, err := e.SearchCtx(context.Background(), query, maxItems)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// mustSearchInto runs one query through SearchInto with no deadline.
func mustSearchInto(t testing.TB, e *Engine, resp *Response, query string, maxItems int) {
	t.Helper()
	if err := e.SearchInto(context.Background(), resp, []byte(query), maxItems); err != nil {
		t.Fatal(err)
	}
}

func TestSearchExactConceptCard(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	resp := mustSearch(t, e, "outdoor barbecue", 10)
	if len(resp.Cards) == 0 {
		t.Fatal("no card for exact concept query")
	}
	card := resp.Cards[0]
	if card.Name != "outdoor barbecue" {
		t.Fatalf("card name: %q", card.Name)
	}
	if len(card.Items) == 0 {
		t.Fatal("card has no items")
	}
	// Card items should include a grill.
	foundGrill := false
	for _, it := range card.Items {
		nd, _ := a.Net.Node(it)
		if strings.HasSuffix(nd.Name, "grill") {
			foundGrill = true
		}
	}
	if !foundGrill {
		t.Fatal("outdoor barbecue card should surface a grill")
	}
}

func TestSearchPrimitiveVoting(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	// "barbecue outdoor" is not an exact concept name; primitive voting
	// should still surface the outdoor barbecue card (the intro's
	// "barbecue outdoor" example).
	resp := mustSearch(t, e, "barbecue outdoor", 10)
	found := false
	for _, c := range resp.Cards {
		if c.Name == "outdoor barbecue" {
			found = true
		}
	}
	if !found {
		t.Fatalf("voting failed to surface the concept: %+v", resp.Cards)
	}
}

func TestSearchPlainCategory(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	resp := mustSearch(t, e, "grill", 5)
	if len(resp.Items) == 0 {
		t.Fatal("category query should return items")
	}
	for _, it := range resp.Items {
		nd, _ := a.Net.Node(it)
		if nd.Kind != core.KindItem {
			t.Fatal("non-item in item results")
		}
	}
}

func TestCoverageConceptNetBeatsCPV(t *testing.T) {
	a := buildArts(t)
	net := a.Net.Freeze()
	full := NewEngine(net, a.World.Stopwords())
	cpv := NewCPVEngine(net, a.World.Stopwords())
	qs := a.World.QuerySet(400)
	queries := make([][]string, len(qs))
	for i, q := range qs {
		queries[i] = q.Tokens
	}
	cFull := MeasureCoverage(full, queries)
	cCPV := MeasureCoverage(cpv, queries)
	if cFull.Rate() <= cCPV.Rate() {
		t.Fatalf("concept net coverage (%.2f) should beat CPV (%.2f)", cFull.Rate(), cCPV.Rate())
	}
	if cFull.Rate() < 0.55 {
		t.Fatalf("full coverage too low: %.2f", cFull.Rate())
	}
	if cCPV.Rate() > 0.55 {
		t.Fatalf("CPV coverage suspiciously high: %.2f", cCPV.Rate())
	}
}

func TestRelevanceIsAExpansion(t *testing.T) {
	a := buildArts(t)
	net := a.Net.Freeze()
	cases := BuildRelevanceCases(net, 200, 3)
	if len(cases) < 50 {
		t.Fatalf("too few relevance cases: %d", len(cases))
	}
	plain := EvalRelevance(net, cases, false)
	expanded := EvalRelevance(net, cases, true)
	if expanded.AUC <= plain.AUC {
		t.Fatalf("isA expansion should raise AUC: %.3f vs %.3f", expanded.AUC, plain.AUC)
	}
	if expanded.BadCases >= plain.BadCases {
		t.Fatalf("isA expansion should cut bad cases: %d vs %d", expanded.BadCases, plain.BadCases)
	}
}

func TestCoveredRespectsStopwords(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	if !e.Covered([]string{"outdoor", "barbecue"}) {
		t.Fatal("known phrase should be covered")
	}
	if e.Covered([]string{"outdoor", "zzzgizmo"}) {
		t.Fatal("unknown token should break coverage")
	}
}

// TestSearchMaxItemsCapAcrossPrimitives is the regression test for the
// overflow where the per-primitive break let resp.Items grow past maxItems
// once several primitives matched.
func TestSearchMaxItemsCapAcrossPrimitives(t *testing.T) {
	a := buildArts(t)
	e := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	// "barbecue outdoor" matches two primitives, each with item postings.
	for _, maxItems := range []int{1, 2, 3, 5} {
		resp := mustSearch(t, e, "barbecue outdoor", maxItems)
		if len(resp.Items) > maxItems {
			t.Fatalf("maxItems=%d but got %d items", maxItems, len(resp.Items))
		}
	}
	// maxItems <= 0 means unlimited: same hits as a huge cap.
	unlimited := mustSearch(t, e, "grill", 0)
	capped := mustSearch(t, e, "grill", 1<<20)
	if len(unlimited.Items) == 0 || len(unlimited.Items) != len(capped.Items) {
		t.Fatalf("maxItems=0 should mean unlimited: got %d vs %d", len(unlimited.Items), len(capped.Items))
	}
}

// TestSearchFrozenMatchesLive runs the same queries against an engine on
// the net's one-shard freeze ("live") and one on a 3-shard partition saved
// and loaded back ("frozen"), the form a served catalog takes.
func TestSearchFrozenMatchesLive(t *testing.T) {
	a := buildArts(t)
	live := NewEngine(a.Net.Freeze(), a.World.Stopwords())
	frozen := NewEngine(loadedShards(t, a.Net, 3), a.World.Stopwords())
	queries := []string{"outdoor barbecue", "barbecue outdoor", "grill", "coat"}
	for _, qs := range a.World.QuerySet(50) {
		queries = append(queries, strings.Join(qs.Tokens, " "))
	}
	for _, q := range queries {
		lr := mustSearch(t, live, q, 10)
		fr := mustSearch(t, frozen, q, 10)
		if len(lr.Cards) != len(fr.Cards) {
			t.Fatalf("query %q: card count differs (live %d, frozen %d)", q, len(lr.Cards), len(fr.Cards))
		}
		for i := range lr.Cards {
			if lr.Cards[i].Name != fr.Cards[i].Name || len(lr.Cards[i].Items) != len(fr.Cards[i].Items) {
				t.Fatalf("query %q: card %d differs", q, i)
			}
		}
		if len(lr.Items) != len(fr.Items) {
			t.Fatalf("query %q: item count differs (live %d, frozen %d)", q, len(lr.Items), len(fr.Items))
		}
		for i := range lr.Items {
			if lr.Items[i] != fr.Items[i] {
				t.Fatalf("query %q: item %d differs", q, i)
			}
		}
	}
}
