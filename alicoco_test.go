package alicoco

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func buildSmall(t *testing.T) *CoCo {
	t.Helper()
	c, err := Build(Small())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The must* helpers run one query method with no deadline, which cannot
// fail; an error is reported with t.Error, so query goroutines may call
// them too.

func mustSearch(t testing.TB, c *CoCo, query string, maxItems int) SearchResult {
	t.Helper()
	res, err := c.SearchCtx(context.Background(), query, maxItems)
	if err != nil {
		t.Error(err)
	}
	return res
}

func mustRecommend(t testing.TB, c *CoCo, viewedItemIDs []int, k int) (Recommendation, bool) {
	t.Helper()
	rec, ok, err := c.RecommendCtx(context.Background(), viewedItemIDs, k)
	if err != nil {
		t.Error(err)
	}
	return rec, ok
}

func mustSearchBatch(t testing.TB, c *CoCo, queries []string, maxItems int) []SearchResult {
	t.Helper()
	res, err := c.SearchBatchBytesCtx(context.Background(), queryBytes(queries), maxItems)
	if err != nil {
		t.Error(err)
	}
	return res
}

func mustRecommendBatch(t testing.TB, c *CoCo, sessions [][]int, k int) []BatchRecommendation {
	t.Helper()
	recs, err := c.RecommendBatchCtx(context.Background(), sessions, k)
	if err != nil {
		t.Error(err)
	}
	return recs
}

// queryBytes converts queries to the byte slices the batch call takes.
func queryBytes(queries []string) [][]byte {
	qb := make([][]byte, len(queries))
	for i, q := range queries {
		qb[i] = []byte(q)
	}
	return qb
}

func TestBuildAndStats(t *testing.T) {
	c := buildSmall(t)
	s := c.Stats()
	if s.Primitives == 0 || s.EConcepts == 0 || s.Items == 0 || s.Classes == 0 {
		t.Fatalf("missing layer: %+v", s)
	}
	if len(s.PrimitivesByDomain) != 20 {
		t.Fatalf("expected 20 domains, got %d", len(s.PrimitivesByDomain))
	}
	if !strings.Contains(s.Render(), "E-commerce concepts") {
		t.Fatal("Render missing content")
	}
}

func TestFacadeSearch(t *testing.T) {
	c := buildSmall(t)
	res := mustSearch(t, c, "outdoor barbecue", 8)
	if len(res.Cards) == 0 {
		t.Fatal("no concept card")
	}
	if res.Cards[0].Name != "outdoor barbecue" {
		t.Fatalf("card: %q", res.Cards[0].Name)
	}
	if len(res.Cards[0].Items) == 0 {
		t.Fatal("card without items")
	}
}

func TestFacadeRecommend(t *testing.T) {
	c := buildSmall(t)
	sessions := c.SampleSessions(5)
	if len(sessions) == 0 {
		t.Fatal("no sessions")
	}
	rec, ok := mustRecommend(t, c, sessions[0], 5)
	if !ok {
		t.Fatal("no recommendation")
	}
	if !strings.HasPrefix(rec.Reason, "for ") {
		t.Fatalf("reason: %q", rec.Reason)
	}
	if len(rec.Card.Items) == 0 {
		t.Fatal("recommendation without items")
	}
}

// TestRecommendDropsUnknownItemIDs: world IDs outside the item table, -1
// and len(Items()), are dropped from a session rather than looked up.
func TestRecommendDropsUnknownItemIDs(t *testing.T) {
	c := buildSmall(t)
	sess := c.SampleSessions(1)[0]
	want, wantOK := mustRecommend(t, c, sess, 5)
	if !wantOK {
		t.Fatal("no recommendation for a sampled session")
	}
	unknown := []int{-1, len(c.Items())}
	got, ok := mustRecommend(t, c, append(unknown, sess...), 5)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("unknown IDs changed the recommendation: %+v, want %+v", got, want)
	}
	if rec, ok := mustRecommend(t, c, unknown, 5); ok {
		t.Fatalf("a session of unknown IDs was recommended %+v", rec)
	}
}

func TestFacadeConceptLookup(t *testing.T) {
	c := buildSmall(t)
	cpt, ok := c.LookupConcept("outdoor barbecue")
	if !ok {
		t.Fatal("concept missing")
	}
	if cpt.ItemCount == 0 || len(cpt.Primitives) != 2 {
		t.Fatalf("concept malformed: %+v", cpt)
	}
	if _, ok := c.LookupConcept("no such concept"); ok {
		t.Fatal("phantom concept")
	}
}

func TestFacadeHypernymsAndGlosses(t *testing.T) {
	c := buildSmall(t)
	h := c.Hypernyms("coat")
	if len(h) == 0 {
		t.Fatal("coat should have hypernyms")
	}
	foundClothing := false
	for _, x := range h {
		if x == "clothing" {
			foundClothing = true
		}
	}
	if !foundClothing {
		t.Fatalf("coat ancestors should include clothing: %v", h)
	}
	g := c.Glosses("barbecue")
	if len(g) == 0 || !strings.Contains(g[0], "grill") {
		t.Fatalf("barbecue gloss should mention grill: %v", g)
	}
}

func TestFacadeItems(t *testing.T) {
	c := buildSmall(t)
	items := c.Items()
	if len(items) == 0 {
		t.Fatal("no items")
	}
	if items[0].Title == "" || items[0].Category == "" {
		t.Fatalf("item malformed: %+v", items[0])
	}
}

func TestFacadeConceptsList(t *testing.T) {
	c := buildSmall(t)
	cs := c.Concepts()
	if len(cs) == 0 {
		t.Fatal("no concepts")
	}
}

// TestSaveSnapshot: every save commits the next generation of the store,
// and a snapshot-loaded CoCo, which has no live net, cannot save.
func TestSaveSnapshot(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	for want := uint64(1); want <= 2; want++ {
		_, g, err := c.SaveShardsRetain(dir, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		if g.ID != want {
			t.Fatalf("save committed generation %d, want %d", g.ID, want)
		}
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.SaveShards(t.TempDir(), 1); err == nil {
		t.Fatal("save of a snapshot-loaded CoCo should error")
	}
}

// TestFrozenSnapshotRoundTripFacade: a one-shard generation restores a
// CoCo that answers every query path like the original, ingests a reload,
// and reports clean errors on the offline-only paths.
func TestFrozenSnapshotRoundTripFacade(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	cs, ls := c.Stats(), l.Stats()
	if cs.Relations != ls.Relations || cs.Items != ls.Items || cs.EConcepts != ls.EConcepts {
		t.Fatalf("stats differ:\nbuilt  %+v\nloaded %+v", cs, ls)
	}
	cr, lr := mustSearch(t, c, "outdoor barbecue", 8), mustSearch(t, l, "outdoor barbecue", 8)
	if len(cr.Cards) == 0 || len(cr.Cards) != len(lr.Cards) || cr.Cards[0].Name != lr.Cards[0].Name {
		t.Fatalf("search differs: %+v vs %+v", cr.Cards, lr.Cards)
	}
	if len(cr.Cards[0].Items) != len(lr.Cards[0].Items) {
		t.Fatal("card items differ")
	}
	ci, li := c.Items(), l.Items()
	if len(ci) != len(li) || ci[0] != li[0] {
		t.Fatalf("items differ: %d vs %d", len(ci), len(li))
	}
	sessions := c.SampleSessions(3)
	for _, sess := range sessions {
		crec, cok := mustRecommend(t, c, sess, 5)
		lrec, lok := mustRecommend(t, l, sess, 5)
		if cok != lok || crec.Reason != lrec.Reason || len(crec.Card.Items) != len(lrec.Card.Items) {
			t.Fatalf("recommendation differs for %v", sess)
		}
	}
	if h := l.Hypernyms("coat"); len(h) == 0 {
		t.Fatal("loaded net lost hypernyms")
	}
	// Offline-only paths degrade cleanly on a snapshot-loaded CoCo.
	if l.SampleSessions(1) != nil {
		t.Fatal("snapshot-loaded CoCo should have no sessions")
	}
	if l.Glosses("barbecue") != nil {
		t.Fatal("snapshot-loaded CoCo should have no glosses")
	}
	if _, err := l.InferImplicitRelations(); err == nil {
		t.Fatal("infer on snapshot-loaded CoCo should error")
	}
	if err := l.Refreeze(); err == nil {
		t.Fatal("refreeze on snapshot-loaded CoCo should error")
	}
	// A newer generation reloads in place.
	if _, err := c.SaveShards(dir, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := l.ReloadShards(dir); err != nil {
		t.Fatal(err)
	}
	if info := l.ServingInfo(); info.CatalogGen != 2 || info.Shards != 1 {
		t.Fatalf("after reload: %+v", info)
	}
	if res := mustSearch(t, l, "outdoor barbecue", 8); len(res.Cards) == 0 {
		t.Fatal("no card after reload")
	}
}

// TestLoadFrozenRejectsMissingAndCorrupt: the load and reload entry points
// accept only a store root with a loadable newest generation.
func TestLoadFrozenRejectsMissingAndCorrupt(t *testing.T) {
	c := buildSmall(t)
	if _, err := LoadShardedFrozen(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing directory should error")
	}
	flat := t.TempDir()
	if err := os.WriteFile(filepath.Join(flat, "shard-0000.fz"), []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFrozen(flat); err == nil {
		t.Fatal("non-catalog directory should error")
	}
	store := t.TempDir()
	if _, err := c.SaveShards(store, 2); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(store)
	if err != nil {
		t.Fatal(err)
	}
	genDir := filepath.Join(store, "gen-000001")
	if _, err := LoadShardedFrozen(genDir); err == nil {
		t.Fatal("generation directory should error: only store roots load")
	}
	if _, err := l.ReloadShards(genDir); err == nil {
		t.Fatal("ReloadShards of a generation directory should error")
	}
	if err := l.ReloadShard(flat, 0); err == nil {
		t.Fatal("ReloadShard of a non-catalog directory should error")
	}
	victim := filepath.Join(genDir, "shard-0001.fz")
	if err := os.WriteFile(victim, []byte("definitely not a snapshot"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedFrozen(store); err == nil {
		t.Fatal("corrupt shard file should error")
	}
}

func TestWorldDomains(t *testing.T) {
	if len(WorldDomains()) != 20 {
		t.Fatal("paper defines 20 domains")
	}
}

func TestInferImplicitRelations(t *testing.T) {
	c := buildSmall(t)
	rels, err := c.InferImplicitRelations()
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) == 0 {
		t.Fatal("no implied relations")
	}
	for _, r := range rels {
		if r.Concept == "" || !strings.Contains(r.Primitive, ":") || r.Lift < 1 {
			t.Fatalf("malformed relation: %+v", r)
		}
	}
}

// TestConcurrentServeDuringRefreeze drives queries while inference
// re-freezes and swaps the serving snapshot; run with -race to prove the
// atomic swap is sound.
func TestConcurrentServeDuringRefreeze(t *testing.T) {
	c := buildSmall(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := c.InferImplicitRelations(); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < 200; i++ {
		mustSearch(t, c, "outdoor barbecue", 5)
		c.Hypernyms("coat")
		c.LookupConcept("outdoor barbecue")
	}
	<-done
	// After the swap, serving still answers.
	if res := mustSearch(t, c, "outdoor barbecue", 5); len(res.Cards) == 0 {
		t.Fatal("no card after refreeze")
	}
}
