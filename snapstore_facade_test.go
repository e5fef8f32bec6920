package alicoco

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"alicoco/internal/faultfs"
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

// newestGenDir returns the directory of the newest committed generation
// of the store at root.
func newestGenDir(t testing.TB, root string) string {
	t.Helper()
	g, err := snapstore.Lookup(root, nil)
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Join(root, g.Dir)
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
	genDir := newestGenDir(t, root)

	queries := equivalenceQueries(c)
	want := make([]any, len(queries))
	for i, q := range queries {
		want[i] = mustSearch(t, l, q, 8) // also warms the result cache
	}
	stamp := l.CacheStamp()
	hitsBefore, _ := l.QueryCacheStats()

	// Rot shard 1 on disk. Serving answers from memory, so nothing notices
	// until the scrubber re-hashes the files.
	victim := filepath.Join(genDir, "shard-0001.fz")
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
				if got := mustSearch(t, l, q, 8); !reflect.DeepEqual(got, want[(i+w)%len(queries)]) {
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
	if got := mustSearch(t, l, queries[0], 8); !reflect.DeepEqual(got, want[0]) {
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
		if !reflect.DeepEqual(mustSearch(t, l2, q, 8), want[i]) {
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
	genDir := newestGenDir(t, root)
	flipByte(t, filepath.Join(genDir, "shard-0002.fz"), -10)
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

// TestScrubRepairsMetaFromMemory: a store of one generation holds no other
// copy of a rotten meta.bin, so the scrub rewrites it from the served item
// table, whose encoding hashes to the manifest's checksum — and a fresh
// load of the store then succeeds.
func TestScrubRepairsMetaFromMemory(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	genDir := newestGenDir(t, root)
	flipByte(t, filepath.Join(genDir, "meta.bin"), 16)
	rep, err := l.ScrubOnce()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Mismatches) != 1 || rep.Mismatches[0] != "meta.bin" || len(rep.Quarantined) != 1 ||
		len(rep.Repaired) != 1 || rep.Repaired[0] != "meta.bin" || len(rep.Unrepaired) != 0 {
		t.Fatalf("meta.bin not repaired from memory: %+v", rep)
	}
	if rep2, err := l.ScrubOnce(); err != nil || !rep2.Clean() {
		t.Fatalf("post-repair pass not clean: %+v err=%v", rep2, err)
	}
	fresh, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatalf("fresh load of the repaired store: %v", err)
	}
	if !reflect.DeepEqual(fresh.Items(), l.Items()) {
		t.Fatal("items differ on a fresh load of the repaired store")
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
	genDir := newestGenDir(t, root)
	// Whitespace keeps the manifest parseable but changes its bytes.
	man := filepath.Join(genDir, "manifest.json")
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
	afterB := mustSearch(t, l, "outdoor barbecue", 8)

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
		if !reflect.DeepEqual(mustSearch(t, refA, q, 8), mustSearch(t, l, q, 8)) {
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
	if got := mustSearch(t, l, "outdoor barbecue", 8); !reflect.DeepEqual(got, afterB) {
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

// TestCommitKeepsServedGeneration: a facade rolled back past a
// publisher's retention window keeps its generation through the
// publisher's next commit — the scrubber still finds its files, and a
// rollback can return to it — and once a reload moves serving off it,
// the next commit drops it.
func TestCommitKeepsServedGeneration(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	save := func(retain int) {
		t.Helper()
		if _, _, err := c.SaveShardsRetain(root, 3, retain); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		save(4)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	if g, err := l.RollbackTo(1); err != nil || g.ID != 1 {
		t.Fatalf("RollbackTo(1): gen %d, %v", g.ID, err)
	}
	save(2) // gen 4: gens 1 and 2 are past the window, and gen 1 is served
	if rep, err := l.ScrubOnce(); err != nil || !rep.Clean() {
		t.Fatalf("scrub of the served generation after a commit: %+v, %v", rep, err)
	}
	if g, err := l.RollbackTo(1); err != nil || g.ID != 1 {
		t.Fatalf("RollbackTo(1) after a commit: gen %d, %v", g.ID, err)
	}

	if _, err := l.ReloadShards(root); err != nil {
		t.Fatal(err)
	}
	if g := l.ServingInfo().CatalogGen; g != 4 {
		t.Fatalf("serving gen %d after the reload, want 4", g)
	}
	save(2) // gen 5
	gens, err := snapstore.ListGenerations(root)
	if err != nil || len(gens) != 2 || gens[0].ID != 4 || gens[1].ID != 5 {
		t.Fatalf("catalog after serving moved off gen 1: %+v, %v; want gens 4 and 5", gens, err)
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000001")); !os.IsNotExist(err) {
		t.Fatalf("gen 1's directory survived the commit after serving moved off it: %v", err)
	}
}

// TestNoopReloadTakesNoHold: a reload of the generation already served
// reads the catalog no more often than one lookup of the store. Serving's
// hold keeps the generation's files while they are read, so the reload
// neither locks the generation again nor re-reads the catalog to check
// that it is still committed. A forced shard reload of that generation
// publishes, so it holds the generation again: a commit at retain 1 keeps
// it, and the served generation scrubs clean.
func TestNoopReloadTakesNoHold(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	if _, err := c.SaveShards(root, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	restore := faultfs.Inject(faultfs.Fault{PathContains: snapstore.CatalogName, Delay: time.Nanosecond})
	defer restore()
	catalogReads := func(op func() error) uint64 {
		t.Helper()
		before := faultfs.Injected()
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return faultfs.Injected() - before
	}
	lookup := catalogReads(func() error {
		_, err := snapstore.Lookup(root, nil)
		return err
	})
	reload := catalogReads(func() error {
		n, err := l.ReloadShards(root)
		if err == nil && n != 0 {
			err = fmt.Errorf("no-op reload read %d shards", n)
		}
		return err
	})
	if lookup == 0 {
		t.Fatal("the fault counted no catalog read")
	}
	if reload > lookup {
		t.Fatalf("a no-op reload made %d catalog reads, one lookup %d", reload, lookup)
	}
	restore()

	if err := l.ReloadShard(root, 0); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SaveShardsRetain(root, 3, 1); err != nil {
		t.Fatal(err)
	}
	if rep, err := l.ScrubOnce(); err != nil || !rep.Clean() {
		t.Fatalf("scrub of the served generation after a commit at retain 1: %+v, %v", rep, err)
	}
}

// TestCloseReleasesGeneration: Close releases a loaded facade's hold on
// its generation at once, so the next commit at retain 1 drops it with no
// garbage collection involved (the facade stays reachable throughout). The
// closed facade still answers queries from memory, and its store
// operations fail.
func TestCloseReleasesGeneration(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	save := func() {
		t.Helper()
		if _, _, err := c.SaveShardsRetain(root, 3, 1); err != nil {
			t.Fatal(err)
		}
	}
	save()
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	save() // gen 2: gen 1 is past the window but held
	if _, err := os.Stat(filepath.Join(root, "gen-000001")); err != nil {
		t.Fatalf("the served generation is gone before Close: %v", err)
	}
	l.Close()
	l.Close() // a second Close does nothing
	save()    // gen 3
	gens, err := snapstore.ListGenerations(root)
	if err != nil || len(gens) != 1 || gens[0].ID != 3 {
		t.Fatalf("catalog after Close and a commit: %+v, %v; want gen 3 alone", gens, err)
	}
	if _, err := os.Stat(filepath.Join(root, "gen-000001")); !os.IsNotExist(err) {
		t.Fatalf("gen 1's directory survived the commit after Close: %v", err)
	}

	if res, err := l.SearchCtx(context.Background(), "outdoor barbecue", 12); err != nil || len(res.Cards) == 0 {
		t.Fatalf("search after Close: %+v, %v", res, err)
	}
	if g := l.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after Close, want 1", g)
	}
	if _, err := l.ReloadShards(root); err == nil {
		t.Error("ReloadShards after Close succeeded")
	}
	if err := l.ReloadShard(root, 0); err == nil {
		t.Error("ReloadShard after Close succeeded")
	}
	if _, err := l.RollbackTo(0); err == nil {
		t.Error("RollbackTo after Close succeeded")
	}
	if _, err := l.ScrubOnce(); err == nil {
		t.Error("ScrubOnce after Close succeeded")
	}
}
