package alicoco

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/snapstore"
)

// flipByte corrupts one byte of a file in place — the silent bit rot the
// scrubber exists to catch.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off = len(raw) + off
	}
	raw[off] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestScrubOnceRepairsCorruption: flip a byte in a served shard file, run
// one scrub pass under concurrent query traffic, and the poisoned file is
// quarantined and re-materialized byte-verified — while every concurrent
// and subsequent answer stays byte-identical and the warm query caches
// survive untouched (serving reads memory; the scrub is disk-only).
func TestScrubOnceRepairsCorruption(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := resolveShardDir(root)
	if err != nil {
		t.Fatal(err)
	}

	queries := equivalenceQueries(c)
	want := make([]any, len(queries))
	for i, q := range queries {
		want[i] = l.Search(q, 8) // also warms the result cache
	}
	stamp := l.CacheStamp()
	hitsBefore, _ := l.QueryCacheStats()

	// Rot shard 1 on disk. Serving answers from memory, so nothing notices
	// until the scrubber re-hashes the files.
	victim := filepath.Join(loc.dir, "shard-0001.fz")
	flipByte(t, victim, -10)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				q := queries[(i+w)%len(queries)]
				if got := l.Search(q, 8); !reflect.DeepEqual(got, want[(i+w)%len(queries)]) {
					t.Errorf("Search(%q) changed during scrub", q)
					return
				}
			}
		}(w)
	}

	rep, err := l.ScrubOnce()
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("ScrubOnce: %v", err)
	}
	if t.Failed() {
		return
	}
	if rep.Clean() || len(rep.Mismatches) != 1 || rep.Mismatches[0] != "shard-0001.fz" {
		t.Fatalf("scrub report missed the corruption: %+v", rep)
	}
	if len(rep.Quarantined) != 1 || len(rep.Repaired) != 1 || len(rep.Unrepaired) != 0 {
		t.Fatalf("scrub did not quarantine+repair: %+v", rep)
	}
	if _, err := os.Stat(rep.Quarantined[0]); err != nil {
		t.Fatalf("quarantined evidence missing: %v", err)
	}

	// The re-materialized file must satisfy a second, clean pass.
	rep2, err := l.ScrubOnce()
	if err != nil || !rep2.Clean() {
		t.Fatalf("second scrub pass not clean: %+v err=%v", rep2, err)
	}

	// Warm caches survived: same stamp, and repeats hit.
	if l.CacheStamp() != stamp {
		t.Fatal("scrub changed the cache stamp")
	}
	if got := l.Search(queries[0], 8); !reflect.DeepEqual(got, want[0]) {
		t.Fatal("answer changed after scrub repair")
	}
	hitsAfter, _ := l.QueryCacheStats()
	if hitsAfter.Hits <= hitsBefore.Hits {
		t.Fatalf("query cache went cold across scrub: hits %d -> %d", hitsBefore.Hits, hitsAfter.Hits)
	}

	// And the repaired directory reloads from disk bit-for-bit.
	l2, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatalf("reload after repair: %v", err)
	}
	for i, q := range queries {
		if !reflect.DeepEqual(l2.Search(q, 8), want[i]) {
			t.Fatalf("Search(%q) differs on fresh load of the repaired store", q)
		}
	}
}

// TestScrubRepairFromOlderGeneration: when the store holds an older
// generation with the same shard content, repair draws on it even though
// the served generation's copy is rotten.
func TestScrubRepairFromOlderGeneration(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	// Two commits of identical content: gen 1 and gen 2 share every
	// checksum; serving resolves to gen 2.
	if _, err := c.SaveShards(root, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveShards(root, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	if g := l.ServingInfo().CatalogGen; g != 2 {
		t.Fatalf("serving gen %d, want 2", g)
	}
	loc, err := resolveShardDir(root)
	if err != nil {
		t.Fatal(err)
	}
	flipByte(t, filepath.Join(loc.dir, "shard-0002.fz"), -10)
	rep, err := l.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Repaired) != 1 || rep.Repaired[0] != "shard-0002.fz" {
		t.Fatalf("repair from older generation failed: %+v", rep)
	}
	if rep2, err := l.ScrubOnce(); err != nil || !rep2.Clean() {
		t.Fatalf("post-repair pass not clean: %+v err=%v", rep2, err)
	}
}

// TestScrubManifestMismatchUnrepairable: a manifest whose bytes disagree
// with the catalog entry invalidates the whole chain of trust — the scrub
// reports it unrepaired (there is no other copy of a generation's
// manifest) and stops before "verifying" files against lies.
func TestScrubManifestMismatchUnrepairable(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 2); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	loc, err := resolveShardDir(root)
	if err != nil {
		t.Fatal(err)
	}
	// Whitespace keeps the manifest parseable but changes its bytes.
	man := filepath.Join(loc.dir, "manifest.json")
	raw, err := os.ReadFile(man)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(man, append(raw, ' ', '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := l.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || len(rep.Unrepaired) != 1 || rep.Unrepaired[0] != "manifest.json" {
		t.Fatalf("manifest mismatch not reported unrepairable: %+v", rep)
	}
}

// TestRollbackToFacade: RollbackTo republishes an earlier committed
// generation — by explicit ID or "the previous one" — and serving answers
// match a fresh load of that generation.
func TestRollbackToFacade(t *testing.T) {
	c := buildSmall(t)
	root, refRoot := t.TempDir(), t.TempDir()
	manA, err := c.SaveShards(root, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.SaveShards(refRoot, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	manB, err := c.SaveShards(root, 3)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(manA, manB) {
		t.Fatal("both generations identical; rollback would be unobservable")
	}

	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	if g := l.ServingInfo().CatalogGen; g != 2 {
		t.Fatalf("fresh load serves gen %d, want newest (2)", g)
	}
	afterB := l.Search("outdoor barbecue", 8)

	// Default rollback: one generation down.
	g, err := l.RollbackTo(0)
	if err != nil || g.ID != 1 {
		t.Fatalf("RollbackTo(0): gen %d err=%v, want 1", g.ID, err)
	}
	info := l.ServingInfo()
	if info.CatalogGen != 1 || info.Source != "rollback" {
		t.Fatalf("serving info after rollback: %+v", info)
	}

	// Answers now match generation A, loaded independently from a store
	// holding only that content.
	refA, err := LoadShardedFrozen(refRoot)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range equivalenceQueries(c) {
		if !reflect.DeepEqual(refA.Search(q, 8), l.Search(q, 8)) {
			t.Fatalf("Search(%q) differs from generation 1 after rollback", q)
		}
	}

	// No older generation left: a further default rollback errors.
	if _, err := l.RollbackTo(0); err == nil {
		t.Fatal("rollback below the oldest generation succeeded")
	}
	// Unknown generations error.
	if _, err := l.RollbackTo(99); err == nil {
		t.Fatal("rollback to uncommitted generation succeeded")
	}
	// Roll forward again by explicit ID.
	if g, err := l.RollbackTo(2); err != nil || g.ID != 2 {
		t.Fatalf("RollbackTo(2): gen %d err=%v", g.ID, err)
	}
	if got := l.Search("outdoor barbecue", 8); !reflect.DeepEqual(got, afterB) {
		t.Fatal("roll-forward did not restore generation 2's answers")
	}

	// A CoCo not serving from a catalog cannot roll back.
	if _, err := c.RollbackTo(0); err == nil {
		t.Fatal("rollback on a live-built CoCo succeeded")
	}
}

// TestSaveShardsRetainWindow: the facade save honors the retention window
// and the committed generation is reported back.
func TestSaveShardsRetainWindow(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	var last snapstore.Gen
	for i := 0; i < 4; i++ {
		var err error
		_, last, err = c.SaveShardsRetain(root, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
	}
	if last.ID != 4 {
		t.Fatalf("last committed generation %d, want 4", last.ID)
	}
	gens, err := snapstore.ListGenerations(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 2 || gens[0].ID != 3 || gens[1].ID != 4 {
		t.Fatalf("retention kept %+v, want generations 3 and 4", gens)
	}
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), "gen-") && e.Name() != "gen-000003" && e.Name() != "gen-000004" {
			t.Fatalf("pruned generation directory %s survived", e.Name())
		}
	}
}
