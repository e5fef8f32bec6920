package alicoco

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/qcache"
	"alicoco/internal/snapstore"
)

// holdSave begins a publisher's save in st, as a second process would,
// and fills it with a copy of the generation directory src, so committing
// it adds a loadable generation with src's content.
func holdSave(t *testing.T, st *snapstore.Store, src string) *snapstore.Tx {
	t.Helper()
	tx, err := st.Begin()
	if err != nil {
		t.Fatal(err)
	}
	copyGenFiles(t, src, tx.Dir())
	return tx
}

// TestReadersLeaveSaveInFlight: a publisher's save in flight survives
// every reader of its store — a load, a reload, a shard reload, a rollback
// and a scrub — and every other writer — another publisher's save and its
// opening of the store — and commits afterwards. Readers only read the
// catalog; a writer's recovery sweep skips a directory whose lock a live
// transaction holds.
func TestReadersLeaveSaveInFlight(t *testing.T) {
	c := buildSmall(t)
	root := t.TempDir()
	for i := 0; i < 2; i++ {
		if _, err := c.SaveShards(root, 3); err != nil {
			t.Fatal(err)
		}
	}
	st, err := snapstore.Open(root, snapstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := holdSave(t, st, newestGenDir(t, root))
	defer tx.Abort()

	var l *CoCo
	steps := []struct {
		name string
		run  func() error
	}{
		{"LoadShardedFrozen", func() (err error) { l, err = LoadShardedFrozen(root); return err }},
		{"ReloadShards", func() error { _, err := l.ReloadShards(root); return err }},
		{"ReloadShard", func() error { return l.ReloadShard(root, 1) }},
		{"RollbackTo", func() error { _, err := l.RollbackTo(0); return err }},
		{"ScrubOnce", func() error { _, err := l.ScrubOnce(); return err }},
		{"SaveShardsRetain", func() error { _, _, err := c.SaveShardsRetain(root, 3, 0); return err }},
		{"snapstore.Open", func() error { _, err := snapstore.Open(root, snapstore.Options{}); return err }},
	}
	for _, step := range steps {
		if err := step.run(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if _, err := os.Stat(tx.Dir()); err != nil {
			t.Fatalf("%s deleted the save in flight: %v", step.name, err)
		}
	}
	g, err := tx.Commit()
	if err != nil {
		t.Fatalf("held save does not commit: %v", err)
	}
	if _, err := l.ReloadShards(root); err != nil {
		t.Fatalf("reload of the held save's generation: %v", err)
	}
	if got := l.ServingInfo().CatalogGen; got != g.ID {
		t.Fatalf("serving gen %d after the held save committed, want %d", got, g.ID)
	}
}

// genModel is what the lifecycle model knows of one committed generation:
// its manifest, the cache stamp a fresh load of it serves under, and what
// the live net answered when it was saved.
type genModel struct {
	man      *snapstore.ShardManifest
	stamp    qcache.Stamp
	searches []SearchResult
	recs     []BatchRecommendation
}

// sums returns the manifest's shard checksums.
func (g *genModel) sums() []uint32 {
	out := make([]uint32, g.man.NumShards())
	for i, e := range g.man.Shards {
		out[i] = e.Checksum
	}
	return out
}

// TestLifecycleMatchesModel drives one store and one facade loaded from it
// through a seeded random sequence of about 60 steps — saves of 3 or 4
// shards (the live net gaining an edge before some), whole-net and
// single-shard reloads, rollbacks (to the previous, to a committed and to
// an uncommitted generation), and scrubs of a corrupted served file — and
// after every step compares the facade with a reference model: the catalog
// generation served, each served shard's checksum, whether the item table
// was kept, and, when the served shards are one generation's, the cache
// stamp and the answers the live net gave when that generation was saved.
// A publisher's save is held open
// across every step and must still commit: readers never sweep, and the
// sweep of each save step skips a save whose writer holds its lock. Run it
// under -race.
func TestLifecycleMatchesModel(t *testing.T) {
	const retain = 1 << 10 // nothing is pruned
	live, err := BuildSharded(Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	queries := equivalenceQueries(live)[:12]
	sessions := live.SampleSessions(4)
	root := t.TempDir()
	genDir := func(id uint64) string { return filepath.Join(root, fmt.Sprintf("gen-%06d", id)) }
	rng := rand.New(rand.NewSource(22))

	gens := map[uint64]*genModel{}
	var ids []uint64 // committed, ascending
	save := func(n int) {
		man, g, err := live.SaveShardsRetain(root, n, retain)
		if err != nil {
			t.Fatalf("save %d shards: %v", n, err)
		}
		fresh, err := LoadShardedFrozen(root)
		if err != nil {
			t.Fatalf("fresh load of gen %d: %v", g.ID, err)
		}
		gens[g.ID] = &genModel{man, fresh.CacheStamp(), mustSearchBatch(t, live, queries, 8), mustRecommendBatch(t, live, sessions, 5)}
		ids = append(ids, g.ID)
	}
	save(3)

	// The model of what is served: the catalog generation, the shape of
	// the partition (a manifest describing it) and each shard's checksum.
	l, err := LoadShardedFrozen(root)
	if err != nil {
		t.Fatal(err)
	}
	servingGen := ids[0]
	shape := gens[servingGen].man
	sums := gens[servingGen].sums()

	st, err := snapstore.Open(root, snapstore.Options{Retain: retain})
	if err != nil {
		t.Fatal(err)
	}
	tx := holdSave(t, st, genDir(ids[0]))
	defer tx.Abort()

	check := func(step string) {
		t.Helper()
		if got := l.ServingInfo().CatalogGen; got != servingGen {
			t.Fatalf("%s: serving gen %d, model %d", step, got, servingGen)
		}
		infos := l.ShardInfos()
		if len(infos) != len(sums) {
			t.Fatalf("%s: %d shards served, model %d", step, len(infos), len(sums))
		}
		for i, si := range infos {
			if want := fmt.Sprintf("%08x", sums[i]); si.Checksum != want {
				t.Fatalf("%s: shard %d serves %s, model %s", step, i, si.Checksum, want)
			}
		}
		for _, id := range ids {
			g := gens[id]
			if !slices.Equal(g.sums(), sums) || g.man.MetaChecksum != shape.MetaChecksum {
				continue
			}
			if got, want := l.CacheStamp(), g.stamp; got != want {
				t.Fatalf("%s: serving gen %d's content under stamp %+v, want %+v", step, id, got, want)
			}
			if !reflect.DeepEqual(mustSearchBatch(t, l, queries, 8), g.searches) {
				t.Fatalf("%s: search answers differ from gen %d's", step, id)
			}
			if !reflect.DeepEqual(mustRecommendBatch(t, l, sessions, 5), g.recs) {
				t.Fatalf("%s: recommendations differ from gen %d's", step, id)
			}
			break
		}
	}
	// unchanged asserts that a refused step published nothing.
	unchanged := func(step string, before uint64, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s: succeeded, model says it must fail", step)
		}
		if got := l.ServingInfo().Generation; got != before {
			t.Fatalf("%s: failed but republished (generation %d -> %d)", step, before, got)
		}
	}
	check("load")

	for n := 0; n < 60; n++ {
		newest := gens[ids[len(ids)-1]]
		before := l.ServingInfo().Generation
		table := l.Meta()
		// A reload keeps the item table served while the meta checksum and
		// the node total match, across a shard-count change too.
		keepsTable := newest.man.MetaChecksum == shape.MetaChecksum && newest.man.TotalNodes == shape.TotalNodes
		var step string
		switch op := rng.Intn(9); op {
		case 0, 1: // save
			count := 3 + rng.Intn(2)
			step = fmt.Sprintf("save %d shards", count)
			if rng.Intn(2) == 0 {
				step += " after an edit"
				net := live.Internal().Net
				item, prim := unlinkedItemPrimitive(t, net)
				if err := net.AddEdge(item, prim, core.EdgeItemPrimitive, "", 0.5); err != nil {
					t.Fatal(err)
				}
				if err := refreezeLive(live); err != nil {
					t.Fatal(err)
				}
			}
			save(count)
		case 2: // whole-net reload
			step = "ReloadShards"
			want := newest.man.NumShards()
			if shape.SameShape(newest.man) {
				want = 0
				for i, sum := range newest.sums() {
					if sum != sums[i] {
						want++
					}
				}
			}
			changed, err := l.ReloadShards(root)
			if err != nil || changed != want {
				t.Fatalf("%s: %d shards read, err %v; model %d", step, changed, err, want)
			}
			noop := want == 0 && servingGen == ids[len(ids)-1]
			if republished := l.ServingInfo().Generation != before; republished == noop {
				t.Fatalf("%s: republished %v, model no-op %v", step, republished, noop)
			}
			if kept := l.Meta() == table; kept != keepsTable {
				t.Fatalf("%s: kept the item table %v, model %v", step, kept, keepsTable)
			}
			servingGen, shape, sums = ids[len(ids)-1], newest.man, newest.sums()
			// Reloading the generation just published reads and publishes
			// nothing.
			again := l.ServingInfo().Generation
			if changed, err := l.ReloadShards(root); err != nil || changed != 0 || l.ServingInfo().Generation != again {
				t.Fatalf("%s again: %d shards read, err %v, generation %d -> %d; model no-op",
					step, changed, err, again, l.ServingInfo().Generation)
			}
		case 3, 4: // single-shard reload
			i := rng.Intn(len(sums))
			step = fmt.Sprintf("ReloadShard(%d)", i)
			err := l.ReloadShard(root, i)
			if !shape.SameShape(newest.man) {
				unchanged(step+" across a shape change", before, err)
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			// The forced shard is read and published afresh, whatever its
			// checksum; the item table stays.
			if got := l.ShardInfos()[i].Generation; got != l.ServingInfo().Generation {
				t.Fatalf("%s: shard %d still carries generation %d, not the publish's %d", step, i, got, l.ServingInfo().Generation)
			}
			if l.Meta() != table {
				t.Fatalf("%s: published a new item table", step)
			}
			servingGen = ids[len(ids)-1]
			sums[i] = newest.man.Shards[i].Checksum
		case 5: // rollback to the previous generation
			step = "RollbackTo(0)"
			g, err := l.RollbackTo(0)
			k, _ := slices.BinarySearch(ids, servingGen)
			if k == 0 {
				unchanged(step+" from the oldest generation", before, err)
				break
			}
			if want := ids[k-1]; err != nil || g.ID != want {
				t.Fatalf("%s: gen %d, err %v; model %d", step, g.ID, err, want)
			}
			if l.Meta() == table {
				t.Fatalf("%s: kept the item table; a rollback reads every file", step)
			}
			servingGen, shape, sums = ids[k-1], gens[ids[k-1]].man, gens[ids[k-1]].sums()
		case 6: // rollback to a committed generation
			id := ids[rng.Intn(len(ids))]
			step = fmt.Sprintf("RollbackTo(%d)", id)
			if g, err := l.RollbackTo(id); err != nil || g.ID != id {
				t.Fatalf("%s: gen %d, err %v", step, g.ID, err)
			}
			if l.Meta() == table {
				t.Fatalf("%s: kept the item table; a rollback reads every file", step)
			}
			servingGen, shape, sums = id, gens[id].man, gens[id].sums()
		case 7: // rollback to an uncommitted generation
			id := ids[len(ids)-1] + 1 + uint64(rng.Intn(3))
			step = fmt.Sprintf("RollbackTo(%d)", id)
			_, err := l.RollbackTo(id)
			unchanged(step+" of an uncommitted generation", before, err)
		case 8: // a served file rots on disk; one scrub repairs it
			files := []string{gens[servingGen].man.MetaFile}
			for i, e := range gens[servingGen].man.Shards {
				if e.Checksum == sums[i] {
					files = append(files, e.File)
				}
			}
			victim := files[rng.Intn(len(files))]
			step = "scrub of a rotten " + victim
			flipByte(t, filepath.Join(genDir(servingGen), victim), -10)
			rep, err := l.ScrubOnce()
			if err != nil {
				t.Fatalf("%s: %v", step, err)
			}
			if !slices.Equal(rep.Mismatches, []string{victim}) || !slices.Equal(rep.Repaired, []string{victim}) || len(rep.Unrepaired) != 0 {
				t.Fatalf("%s: report %+v", step, rep)
			}
			if l.ServingInfo().Generation != before {
				t.Fatalf("%s: the scrub republished", step)
			}
		}
		if _, err := os.Stat(tx.Dir()); err != nil {
			t.Fatalf("step %d, %s: the held save is gone: %v", n, step, err)
		}
		check(fmt.Sprintf("step %d, %s", n, step))
	}
	if _, err := tx.Commit(); err != nil {
		t.Fatalf("held save does not commit: %v", err)
	}
}
