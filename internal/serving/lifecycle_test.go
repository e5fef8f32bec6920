package serving

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/pipeline"
	"alicoco/internal/resilience"
	"alicoco/internal/snapstore"
)

// These tests drive the lifecycle through its one-step calls (Reload,
// RollbackTo, ScrubOnce, and Load's startup walk) over stores that
// pipeline saves; some arm the process-global faultfs, so none runs in
// parallel.

// build builds the small test net (the root facade's Small options).
func build(t *testing.T) *pipeline.Artifacts {
	t.Helper()
	opts := pipeline.DefaultOptions()
	opts.World.Seed = 7
	opts.World.ItemsPerLeaf = 3
	opts.World.GeneratedFrames = 20
	opts.Queries, opts.Reviews, opts.Guides = 300, 300, 300
	a, err := pipeline.BuildNet(opts)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// commit saves a's net into the store at root as a new generation of n
// shards and returns its ID.
func commit(t *testing.T, a *pipeline.Artifacts, root string, n int) uint64 {
	t.Helper()
	_, g, err := a.SaveShardsRetain(root, n, 0)
	if err != nil {
		t.Fatal(err)
	}
	return g.ID
}

// edit changes the content of a's net but not its shape: an item gains an
// edge to a primitive, or that edge the weight w.
func edit(t *testing.T, a *pipeline.Artifacts, w float64) {
	t.Helper()
	if err := a.Net.AddEdge(a.ItemNode[0], a.PrimNode[0], core.EdgeItemPrimitive, "", w); err != nil {
		t.Fatal(err)
	}
}

// start loads the store at root as Load does, with validate as the
// post-swap check (nil keeps production's) and, for threshold > 0, a
// breaker that opens after threshold failures and stays open for an hour.
func start(t *testing.T, root string, validate func(*Core) error, threshold int) *Core {
	t.Helper()
	c := New()
	if validate != nil {
		c.validate = validate
	}
	if threshold > 0 {
		c.breaker = resilience.NewBreaker(threshold, time.Hour)
	}
	if err := c.start(root); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

// genFile is the path of file in generation id of the store at root.
func genFile(root string, id uint64, file string) string {
	return filepath.Join(root, fmt.Sprintf("gen-%06d", id), file)
}

// corruptFile flips one byte in the middle of path on disk.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// servingGen is the generation the listing marks serving, 0 when none is.
func servingGen(sn StoreInfo) uint64 {
	for _, g := range sn.Generations {
		if g.Serving {
			return g.ID
		}
	}
	return 0
}

// answer is the test query's answer.
func answer(t *testing.T, c *Core) SearchResult {
	t.Helper()
	res, err := c.SearchCtx(context.Background(), "outdoor barbecue", 12)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestLoadFallsBackPastDamagedNewest: startup takes the rollback walk.
// With one byte flipped in the newest generation's shard file, Load serves
// the generation before it and marks the newest bad, and reloads hold on
// it until a newer commit lands. A store whose only generation is damaged
// does not load, and the error names that generation's failure.
func TestLoadFallsBackPastDamagedNewest(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 1)
	commit(t, a, dir, 1)
	corruptFile(t, genFile(dir, 2, "shard-0000.fz"))
	c, err := Load(dir)
	if err != nil {
		t.Fatalf("load past a damaged newest generation: %v", err)
	}
	defer c.Close()
	sn := c.StoreInfo()
	if got := c.ServingInfo().CatalogGen; got != 1 || servingGen(sn) != 1 || !sn.Generations[1].Bad || sn.Generations[0].Bad {
		t.Fatalf("serving gen %d after the startup walk, listing %+v", got, sn.Generations)
	}
	if src, err := c.Reload(-1); err != nil || !strings.HasPrefix(src, "held: ") {
		t.Fatalf("reload onto the damaged generation: %q, %v; want a hold", src, err)
	}
	if next := commit(t, a, dir, 1); next != 3 {
		t.Fatalf("committed gen %d, want 3", next)
	}
	if _, err := c.Reload(-1); err != nil || c.ServingInfo().CatalogGen != 3 {
		t.Fatalf("reload of a newer commit: %v, serving gen %d", err, c.ServingInfo().CatalogGen)
	}

	only := t.TempDir()
	commit(t, a, only, 1)
	corruptFile(t, genFile(only, 1, "shard-0000.fz"))
	if _, err := Load(only); err == nil || !strings.Contains(err.Error(), "gen 1: ") || !strings.Contains(err.Error(), "shard-0000.fz") {
		t.Fatalf("load of a store whose only generation is damaged: %v", err)
	}
}

// TestScrubCrashBetweenQuarantineAndRepair: a crash after the scrubber
// renamed a damaged file of the served, newest generation aside and
// before its repair wrote anything leaves that generation with a file
// missing. Loading the store again serves the older generation and lists
// the newer one as bad.
func TestScrubCrashBetweenQuarantineAndRepair(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	newest := commit(t, a, dir, 4)
	c := start(t, dir, nil, 0)
	victim := genFile(dir, newest, "shard-0001.fz")
	corruptFile(t, victim)

	// The first write in the generation after the quarantine rename (its
	// first write) crashes, and with it every write after.
	restore := faultfs.InjectCrash(faultfs.CrashPoint{PathContains: fmt.Sprintf("gen-%06d", newest), After: 1})
	rep, err := c.ScrubOnce()
	restore()
	if err != nil || !faultfs.CrashFired() || len(rep.Quarantined) != 1 || len(rep.Repaired) != 0 {
		t.Fatalf("scrub into the crash: %+v, %v, crash fired %v", rep, err, faultfs.CrashFired())
	}
	if _, err := os.Stat(victim); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the damaged file is still in place after its quarantine: %v", err)
	}
	c.Close()

	r, err := Load(dir)
	if err != nil {
		t.Fatalf("restart after the crash: %v", err)
	}
	defer r.Close()
	sn := r.StoreInfo()
	if got := r.ServingInfo().CatalogGen; got != 1 || servingGen(sn) != 1 || !sn.Generations[1].Bad {
		t.Fatalf("restart serves gen %d, listing %+v; want gen 1, gen %d bad", got, sn.Generations, newest)
	}
}

// TestAutoRollbackOnValidationFailure: a new generation that loads
// cleanly but fails post-swap validation is rolled back automatically,
// the fallback is in the lifecycle record, the bad generation stays
// skiplisted, and the next good commit recovers.
func TestAutoRollbackOnValidationFailure(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	poison := errors.New("golden query came back empty")
	c := start(t, dir, func(c *Core) error {
		if c.ServingInfo().CatalogGen == 2 {
			return poison
		}
		return nil
	}, 0)

	// Generation 2: loads and verifies clean — only validation hates it.
	edit(t, a, 0.25)
	commit(t, a, dir, 3)

	_, err := c.Reload(-1)
	if err == nil || !strings.Contains(err.Error(), "validation") {
		t.Fatalf("reload of invalid generation: %v, want validation failure", err)
	}
	if g := c.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after auto-rollback, want 1", g)
	}
	lc, sn := c.Lifecycle(), c.StoreInfo()
	if lc.ValidationFailures != 1 || lc.Rollbacks != 1 || servingGen(sn) != 1 {
		t.Fatalf("lifecycle after auto-rollback: %v validation failures, %v rollbacks, %+v",
			lc.ValidationFailures, lc.Rollbacks, sn)
	}
	if sn.LastRollback == nil || !strings.Contains(sn.LastRollback.Reason, "validation") {
		t.Fatalf("last_rollback: %+v", sn.LastRollback)
	}

	// The refresh loop no longer fights the bad generation.
	src, err := c.Reload(-1)
	if err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("post-rollback reload: %q err=%v, want a hold", src, err)
	}

	// Generation 3 passes validation and serving moves on.
	commit(t, a, dir, 3)
	if _, err := c.Reload(-1); err != nil {
		t.Fatalf("reload of fixed generation: %v", err)
	}
	if g := c.ServingInfo().CatalogGen; g != 3 {
		t.Fatalf("serving gen %d, want 3", g)
	}
}

// TestReloadShardHeldAfterRollback: a single-shard reload gets the same
// skiplist hold and post-swap validation as a full reload. After an
// auto-rollback off a bad generation it must not load a shard of that
// generation and publish it unvalidated (which left /stats reporting the
// bad generation as serving), and a shard of a newer generation that
// fails validation is rolled back like any other publish.
func TestReloadShardHeldAfterRollback(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	c := start(t, dir, func(c *Core) error {
		if c.ServingInfo().CatalogGen > 1 {
			return errors.New("golden query came back empty")
		}
		return nil
	}, 0)
	// Generation 2 has the same partition shape as generation 1, so a
	// shard of it could be spliced into serving.
	edit(t, a, 0.25)
	commit(t, a, dir, 3)
	if _, err := c.Reload(-1); err == nil {
		t.Fatal("reload of invalid generation succeeded")
	}
	if g := c.ServingInfo().CatalogGen; g != 1 {
		t.Fatalf("serving gen %d after auto-rollback, want 1", g)
	}

	before := c.ServingInfo().Generation
	src, err := c.Reload(1)
	if err != nil || !strings.HasPrefix(src, "held: ") {
		t.Fatalf("shard reload onto the skiplisted gen: %q, %v", src, err)
	}
	if g := servingGen(c.StoreInfo()); g != 1 {
		t.Fatalf("the listing reports gen %d serving after a held shard reload, want 1", g)
	}
	if got := c.ServingInfo().Generation; got != before {
		t.Fatalf("held shard reload republished: generation %d -> %d", before, got)
	}

	// Generation 3 lifts the hold, but its shard fails validation too:
	// serving rolls back instead of keeping it.
	commit(t, a, dir, 3)
	if _, err := c.Reload(1); err == nil || !strings.Contains(err.Error(), "validation") {
		t.Fatalf("shard reload of an invalid generation: %v", err)
	}
	sn := c.StoreInfo()
	if vf := c.Lifecycle().ValidationFailures; servingGen(sn) != 1 || vf < 2 {
		t.Fatalf("lifecycle after invalid shard reload: %v validation failures, %+v", vf, sn)
	}
}

// TestScrubTickRepairsAndReports: one scrub pass finds injected
// corruption, quarantines and repairs it, and the lifecycle record
// carries the counts and the last report.
func TestScrubTickRepairsAndReports(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	c := start(t, dir, nil, 0)
	gens, err := snapstore.ListGenerations(dir)
	if err != nil || len(gens) != 1 {
		t.Fatalf("generations: %v err=%v", gens, err)
	}
	victim := filepath.Join(dir, gens[0].Dir, "shard-0001.fz")
	raw, err := os.ReadFile(victim)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-10] ^= 0x40
	if err := os.WriteFile(victim, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	// scrubCounts reads passes, quarantines, repairs and unrepaired.
	scrubCounts := func() [4]uint64 {
		lc := c.Lifecycle()
		return [4]uint64{lc.ScrubPasses, lc.ScrubQuarantines, lc.ScrubRepairs, lc.ScrubUnrepaired}
	}
	c.ScrubOnce()
	sn := c.StoreInfo()
	if n := scrubCounts(); n != [4]uint64{1, 1, 1, 0} {
		t.Fatalf("scrub counts (passes, quarantines, repairs, unrepaired) after corrupt pass: %v", n)
	}
	if sn.LastScrub == nil || len(sn.LastScrub.Mismatches) != 1 {
		t.Fatalf("last scrub report: %+v", sn.LastScrub)
	}

	// A second pass over the repaired store is clean.
	c.ScrubOnce()
	sn = c.StoreInfo()
	if n := scrubCounts(); n[0] != 2 || n[1] != 1 || sn.LastScrub == nil || !sn.LastScrub.Clean() {
		t.Fatalf("scrub after clean pass: counts %v, last %+v", n, sn.LastScrub)
	}
}

// TestChaosQuarantineAndRecovery drives the full bad-file story: the
// newest generation is corrupted on disk, reloads of it fail until the
// breaker trips, serving rolls back to the last clean generation (newer
// than the one it started on) and holds there; corruption of a served file
// is quarantined and repaired by the scrubber without disturbing serving;
// and a newer commit re-closes the breaker on the next publish.
func TestChaosQuarantineAndRecovery(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	c := start(t, dir, nil, 2)
	wantSearch := answer(t, c)
	clean := commit(t, a, dir, 4)
	bad := commit(t, a, dir, 4)
	corruptFile(t, genFile(dir, bad, "shard-0002.fz"))

	for i := 0; i < 2; i++ {
		if _, err := c.Reload(-1); err == nil {
			t.Fatalf("reload %d of corrupt generation succeeded", i)
		}
	}
	// The second consecutive failure tripped the breaker: serving skipped
	// the corrupt generation and rolled back to the newest clean one.
	if lc := c.Lifecycle(); lc.Breaker.State != "open" || lc.ReloadFailures != 2 {
		t.Fatalf("after corrupt reloads: breaker %s, %v failures", lc.Breaker.State, lc.ReloadFailures)
	}
	if g := c.ServingInfo().CatalogGen; g != clean {
		t.Fatalf("serving gen %d after breaker rollback, want %d", g, clean)
	}
	// Further reloads hold instead of retrying the skiplisted generation.
	if src, err := c.Reload(-1); err != nil || !strings.HasPrefix(src, "held:") {
		t.Fatalf("reload after rollback: %q err=%v, want a hold", src, err)
	}
	if got := answer(t, c); !reflect.DeepEqual(got, wantSearch) {
		t.Fatalf("search after rollback: %+v", got)
	}

	// A served file rots on disk: the scrubber quarantines it and repairs
	// it, and serving never notices.
	victim := genFile(dir, clean, "shard-0001.fz")
	corruptFile(t, victim)
	genBefore := c.ServingInfo().Generation
	c.ScrubOnce()
	if lc := c.Lifecycle(); lc.ScrubQuarantines != 1 || lc.ScrubRepairs != 1 || lc.ScrubUnrepaired != 0 {
		t.Fatalf("scrub after corruption: %v quarantines, %v repairs, %v unrepaired", lc.ScrubQuarantines, lc.ScrubRepairs, lc.ScrubUnrepaired)
	}
	if _, err := os.Stat(victim + ".quarantined"); err != nil {
		t.Fatalf("rotten file not quarantined: %v", err)
	}
	if got := c.ServingInfo().Generation; got != genBefore {
		t.Fatalf("scrub republished serving: generation %d -> %d", genBefore, got)
	}

	// A newer commit: the next reload publishes it and closes the breaker.
	next := commit(t, a, dir, 3)
	if _, err := c.Reload(-1); err != nil {
		t.Fatalf("reload of newer commit: %v", err)
	}
	if lc := c.Lifecycle(); lc.Breaker.State != "closed" || lc.Breaker.ConsecutiveFailures != 0 {
		t.Fatalf("breaker did not recover: %s, %v consecutive reload failures", lc.Breaker.State, lc.Breaker.ConsecutiveFailures)
	}
	if g := c.ServingInfo().CatalogGen; g != next {
		t.Fatalf("serving gen %d after newer commit, want %d", g, next)
	}
	if got := answer(t, c); !reflect.DeepEqual(got, wantSearch) {
		t.Fatalf("search after recovery: %+v", got)
	}
}

// TestShardReloadFailureSparesBreaker: a failed single-shard reload counts
// against its shard alone. Only whole-net failures feed the breaker, and
// the one that opens it rolls serving back.
func TestShardReloadFailureSparesBreaker(t *testing.T) {
	a, dir := build(t), t.TempDir()
	commit(t, a, dir, 3)
	c := start(t, dir, nil, 2)
	bad := commit(t, a, dir, 4) // over the 3-shard partition serving
	corruptFile(t, genFile(dir, bad, "shard-0002.fz"))

	if _, err := c.Reload(0); err == nil {
		t.Fatal("shard reload across a shard-count change succeeded")
	}
	if _, err := c.Reload(-1); err == nil {
		t.Fatal("reload of the corrupt generation succeeded")
	}
	if lc := c.Lifecycle(); lc.Breaker.State != "closed" || lc.Breaker.ConsecutiveFailures != 1 {
		t.Fatalf("after a shard and a whole-net failure: breaker %s with %v failures, want closed with 1", lc.Breaker.State, lc.Breaker.ConsecutiveFailures)
	}
	if rollbacks := c.Lifecycle().Rollbacks; rollbacks != 0 {
		t.Fatalf("%v rollbacks before the breaker opened", rollbacks)
	}

	if _, err := c.Reload(-1); err == nil {
		t.Fatal("second reload of the corrupt generation succeeded")
	}
	if lc := c.Lifecycle(); lc.Breaker.State != "open" || lc.Rollbacks != 1 {
		t.Fatalf("after a second whole-net failure: breaker %s, %v rollbacks; want open and 1", lc.Breaker.State, lc.Rollbacks)
	}
	if g := c.ServingInfo().CatalogGen; g == bad {
		t.Fatalf("serving the corrupt generation %d", g)
	}
}
