package alicoco

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/core"
)

// equivalenceQueries is a deterministic query mix: known concepts, partial
// and unknown phrases, unicode, and degenerate inputs — plus every concept
// name in the net, so each shard's owned range is exercised.
func equivalenceQueries(c *CoCo) []string {
	queries := []string{
		"outdoor barbecue", "winter coat", "grill", "coat",
		"zzz no such thing", "控制", "emoji \U0001F600", "",
	}
	for _, cpt := range c.Concepts() {
		queries = append(queries, cpt.Name)
	}
	return queries
}

// TestShardedServingEquivalence: a CoCo serving from an N-shard partition
// must answer every query path byte-identically to the unsharded build —
// search (single, bytes batch), recommend (single, batch), concept lookup,
// hypernyms, and stats.
func TestShardedServingEquivalence(t *testing.T) {
	base := buildSmall(t)
	queries := equivalenceQueries(base)
	sessions := base.SampleSessions(6)
	sessions = append(sessions, []int{1 << 28}) // unknown item: Found must stay false

	for _, n := range []int{2, 3, 4, 7} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			sharded, err := BuildSharded(Small(), n)
			if err != nil {
				t.Fatal(err)
			}
			if got := sharded.ServingInfo().Shards; got != n {
				t.Fatalf("ServingInfo().Shards = %d, want %d", got, n)
			}
			if got := sharded.ServingInfo().Generation; got != 1 {
				t.Fatalf("BuildSharded published %d serving states, want 1", got)
			}
			want := make([]SearchResult, len(queries))
			for i, q := range queries {
				a, b := mustSearch(t, base, q, 8), mustSearch(t, sharded, q, 8)
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("SearchCtx(%q) differs:\nunsharded: %+v\nsharded:   %+v", q, a, b)
				}
				want[i] = a
			}
			for _, sess := range sessions {
				ra, oka := mustRecommend(t, base, sess, 5)
				rb, okb := mustRecommend(t, sharded, sess, 5)
				if oka != okb || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("Recommend(%v) differs: (%v,%v) vs (%v,%v)", sess, ra, oka, rb, okb)
				}
			}
			if !reflect.DeepEqual(mustSearchBatch(t, sharded, queries, 8), want) {
				t.Fatal("sharded SearchBatchBytesCtx differs from unsharded SearchCtx")
			}
			if !reflect.DeepEqual(mustRecommendBatch(t, base, sessions, 5), mustRecommendBatch(t, sharded, sessions, 5)) {
				t.Fatal("RecommendBatchCtx differs between sharded and unsharded")
			}
			for _, name := range []string{"coat", "grill", "outdoor barbecue", "nope"} {
				if !reflect.DeepEqual(base.Hypernyms(name), sharded.Hypernyms(name)) {
					t.Fatalf("Hypernyms(%q) differs", name)
				}
				ca, oka := base.LookupConcept(name)
				cb, okb := sharded.LookupConcept(name)
				if oka != okb || !reflect.DeepEqual(ca, cb) {
					t.Fatalf("LookupConcept(%q) differs", name)
				}
			}
			if !reflect.DeepEqual(base.Stats(), sharded.Stats()) {
				t.Fatalf("Stats differ:\nunsharded %+v\nsharded   %+v", base.Stats(), sharded.Stats())
			}
			// A refreeze re-partitions into the same shard count and
			// still answers identically.
			if err := refreezeLive(sharded); err != nil {
				t.Fatal(err)
			}
			if got := sharded.ServingInfo().Shards; got != n {
				t.Fatalf("ServingInfo().Shards after refreeze = %d, want %d", got, n)
			}
			for _, q := range queries[:8] {
				if !reflect.DeepEqual(mustSearch(t, base, q, 8), mustSearch(t, sharded, q, 8)) {
					t.Fatalf("Search(%q) differs after refreeze", q)
				}
			}
		})
	}
}

// TestShardedSnapshotRoundTripFacade: SaveShards -> LoadShardedFrozen
// restores a CoCo answering like the original, for both the N=1 fast path
// and a real partition.
func TestShardedSnapshotRoundTripFacade(t *testing.T) {
	c := buildSmall(t)
	queries := equivalenceQueries(c)
	sessions := c.SampleSessions(4)
	for _, n := range []int{1, 4} {
		t.Run(fmt.Sprintf("N=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			man, err := c.SaveShards(dir, n)
			if err != nil {
				t.Fatal(err)
			}
			if man.NumShards() != n {
				t.Fatalf("manifest has %d shards, want %d", man.NumShards(), n)
			}
			l, err := LoadShardedFrozen(dir)
			if err != nil {
				t.Fatal(err)
			}
			info := l.ServingInfo()
			if info.Source != "shards" || info.Shards != n || info.Checksum == "" {
				t.Fatalf("serving info: %+v", info)
			}
			infos := l.ShardInfos()
			if len(infos) != n {
				t.Fatalf("%d shard infos, want %d", len(infos), n)
			}
			for i, si := range infos {
				if si.Index != i || si.Checksum == "" || si.Nodes == 0 || si.Generation == 0 {
					t.Fatalf("shard info %d malformed: %+v", i, si)
				}
			}
			for _, q := range queries {
				if !reflect.DeepEqual(mustSearch(t, c, q, 8), mustSearch(t, l, q, 8)) {
					t.Fatalf("Search(%q) differs after round trip", q)
				}
			}
			for _, sess := range sessions {
				ra, oka := mustRecommend(t, c, sess, 5)
				rb, okb := mustRecommend(t, l, sess, 5)
				if oka != okb || !reflect.DeepEqual(ra, rb) {
					t.Fatalf("Recommend(%v) differs after round trip", sess)
				}
			}
			cs, ls := c.Stats(), l.Stats()
			if cs.Relations != ls.Relations || cs.Items != ls.Items || cs.EConcepts != ls.EConcepts {
				t.Fatalf("stats differ: %+v vs %+v", cs, ls)
			}
			ci, li := c.Items(), l.Items()
			if !reflect.DeepEqual(ci, li) {
				t.Fatal("items differ after round trip")
			}
			// Offline-only paths degrade cleanly (no live net behind shards).
			if _, err := l.SaveShards(t.TempDir(), n); err == nil {
				t.Fatal("SaveShards on shard-loaded CoCo should error")
			}
		})
	}
}

// TestRelationNamesSurviveShardedRoundTrip: every named relation of the
// built net — the four schema relations and inference's "implied" — is
// served under the same name after SaveShards and LoadShardedFrozen,
// compared edge by edge across all shards. Shard files carry (name,
// weight) pairs, not the process-local labels, and each file lists them in
// its own order.
func TestRelationNamesSurviveShardedRoundTrip(t *testing.T) {
	c, err := BuildSharded(Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, got := namedEdges(c.Internal().Net.Freeze()), namedEdges(l.ShardSet())
	for _, rel := range []string{"has_property", "used_in", "suitable_when", "has_function", "implied"} {
		if !slices.ContainsFunc(want, func(e string) bool { return strings.HasSuffix(e, " "+rel) }) {
			t.Errorf("the built net has no %q edge", rel)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("named edges differ after the round trip: %d loaded, %d built", len(got), len(want))
	}
}

// namedEdges lists both halves of every edge that carries a relation name,
// as sorted "from dir peer kind weight name" lines.
func namedEdges(r *core.ShardSet) []string {
	var out []string
	add := func(id core.NodeID, dir string, hes []core.HalfEdge) {
		for _, he := range hes {
			if name := he.Rel(); name != "" {
				out = append(out, fmt.Sprintf("%d %s %d %s %g %s", id, dir, he.Peer, he.Kind, he.Weight(), name))
			}
		}
	}
	for id := core.NodeID(0); int(id) < r.NumNodes(); id++ {
		add(id, "->", r.Out(id, -1))
		add(id, "<-", r.In(id, -1))
	}
	slices.Sort(out)
	return out
}

// TestReloadShardsNoop: pointing ReloadShards at a directory whose content
// is already being served must reload nothing, keep the serving generation
// and cache stamp, and leave the query caches warm.
func TestReloadShardsNoop(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	warm := mustSearch(t, l, "outdoor barbecue", 8) // populate the search cache
	stamp := l.CacheStamp()
	gen := l.ServingInfo().Generation
	infos := l.ShardInfos()

	changed, err := l.ReloadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if changed != 0 {
		t.Fatalf("no-op reload reported %d changed shards", changed)
	}
	if l.CacheStamp() != stamp {
		t.Fatal("no-op reload changed the cache stamp")
	}
	if g := l.ServingInfo().Generation; g != gen {
		t.Fatalf("no-op reload republished: generation %d -> %d", gen, g)
	}
	if !reflect.DeepEqual(infos, l.ShardInfos()) {
		t.Fatal("no-op reload changed shard infos")
	}
	before, _ := l.QueryCacheStats()
	if got := mustSearch(t, l, "outdoor barbecue", 8); !reflect.DeepEqual(got, warm) {
		t.Fatal("answer changed across no-op reload")
	}
	after, _ := l.QueryCacheStats()
	if after.Hits != before.Hits+1 {
		t.Fatalf("cache went cold across no-op reload: hits %d -> %d", before.Hits, after.Hits)
	}
}

// TestReloadReusesItemTable: a forced single-shard reload, and a reload of
// a newer generation with the same content, republish the item table that
// was loaded: its checksum did not change, so it is neither re-read nor
// re-indexed.
func TestReloadReusesItemTable(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	meta := l.Meta()
	gen := l.ServingInfo().Generation
	if err := l.ReloadShard(dir, 1); err != nil {
		t.Fatal(err)
	}
	if g := l.ServingInfo().Generation; g == gen {
		t.Fatal("ReloadShard did not republish")
	}
	if l.Meta() != meta {
		t.Fatal("ReloadShard published a new item table")
	}
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	gen = l.ServingInfo().Generation
	changed, err := l.ReloadShards(dir)
	if err != nil || changed != 0 {
		t.Fatalf("reload of an identical generation: %d changed, err %v", changed, err)
	}
	if g := l.ServingInfo().Generation; g == gen {
		t.Fatal("reload of a newer generation did not republish its location")
	}
	if l.Meta() != meta {
		t.Fatal("no-op ReloadShards published a new item table")
	}
}

// TestReloadChecksItemKinds: a reload that keeps the served item table
// checks it against the shards it is about to publish, as a full load
// does, and refuses a partition that does not hold every item on an item
// node.
func TestReloadChecksItemKinds(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Put item 0 of the served table on an e-commerce concept; a reload
	// keeps the served table, and this is it.
	l.Meta().Items[0].Node = l.ShardSet().NodesOfKind(core.KindEConcept)[0]
	gen := l.ServingInfo().Generation
	if err := l.ReloadShard(dir, 0); err == nil || !strings.Contains(err.Error(), "not an item node") {
		t.Fatalf("ReloadShard under a mismatched item table: %v", err)
	}
	if g := l.ServingInfo().Generation; g != gen {
		t.Fatalf("refused reload republished: generation %d -> %d", gen, g)
	}
}

// TestLoadedItemNamesMatchBuild: a loaded facade reads an item's title and
// category as the names of its node and of its category node in the
// shards, and they are the built facade's: Items() is equal, and so is
// every item of every card and every item hit that a search or a
// recommendation returns. The built facade's are the world's: an item's
// title is its title tokens joined and its category the name of its leaf
// primitive.
func TestLoadedItemNamesMatchBuild(t *testing.T) {
	c, err := BuildSharded(Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	w := c.Internal().World
	built := c.Items()
	if len(built) != len(w.Items) {
		t.Fatalf("%d items served, the world has %d", len(built), len(w.Items))
	}
	for i, it := range built {
		wi := w.Items[i]
		if want := (Item{ID: wi.ID, Title: strings.Join(wi.Title, " "), Category: w.Prim(wi.Leaf).Name()}); it != want {
			t.Fatalf("built item %d is %+v, want %+v", i, it, want)
		}
	}
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(l.Items(), built) {
		t.Fatal("loaded Items() differ from the built facade's")
	}
	check := func(what string, items []Item) {
		t.Helper()
		for _, it := range items {
			if it != built[it.ID] {
				t.Fatalf("%s: loaded item %+v, built %+v", what, it, built[it.ID])
			}
		}
	}
	cards := 0
	for _, q := range equivalenceQueries(c) {
		br, lr := mustSearch(t, c, q, 12), mustSearch(t, l, q, 12)
		if !reflect.DeepEqual(br, lr) {
			t.Fatalf("Search(%q) differs after the round trip", q)
		}
		for _, card := range lr.Cards {
			check(fmt.Sprintf("Search(%q) card %q", q, card.Name), card.Items)
			cards++
		}
		check(fmt.Sprintf("Search(%q) items", q), lr.Items)
	}
	if cards == 0 {
		t.Fatal("no search returned a card")
	}
	for _, sess := range c.SampleSessions(8) {
		br, bok := mustRecommend(t, c, sess, 5)
		lr, lok := mustRecommend(t, l, sess, 5)
		if bok != lok || !reflect.DeepEqual(br, lr) {
			t.Fatalf("Recommend(%v) differs after the round trip", sess)
		}
		check(fmt.Sprintf("Recommend(%v)", sess), lr.Card.Items)
	}
}

// TestReloadShardsDiff: after the net changes and is re-saved, ReloadShards
// re-reads exactly the shards whose checksums changed, keeps the in-memory
// form (and publication metadata) of unchanged ones, and serves the new
// content.
func TestReloadShardsDiff(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	manA, err := c.SaveShards(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	before := l.ShardInfos()

	// Mutate the net (inference adds relations) and overwrite the snapshot
	// directory in place — each file lands via temp-and-rename, manifest
	// last, so the directory is always loadable.
	if _, err := c.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	manB, err := c.SaveShards(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantChanged := 0
	for i := range manB.Shards {
		if manB.Shards[i].Checksum != manA.Shards[i].Checksum {
			wantChanged++
		}
	}
	if wantChanged == 0 {
		t.Fatal("inference did not change any shard file; test net too small?")
	}

	changed, err := l.ReloadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if manA.MetaChecksum == manB.MetaChecksum {
		// Same shape: the diff path must reload exactly the changed shards.
		if changed != wantChanged {
			t.Fatalf("reloaded %d shards, want %d", changed, wantChanged)
		}
		after := l.ShardInfos()
		for i := range after {
			if manB.Shards[i].Checksum == manA.Shards[i].Checksum {
				if after[i].Generation != before[i].Generation || !after[i].PublishedAt.Equal(before[i].PublishedAt) {
					t.Fatalf("unchanged shard %d lost its publication metadata: %+v -> %+v", i, before[i], after[i])
				}
			} else if after[i].Generation <= before[i].Generation {
				t.Fatalf("changed shard %d did not advance: %+v -> %+v", i, before[i], after[i])
			}
		}
	} else if changed != 4 {
		t.Fatalf("shape change must fall back to a full reload, got %d", changed)
	}
	// The reloaded partition answers like the mutated net.
	for _, q := range equivalenceQueries(c) {
		if !reflect.DeepEqual(mustSearch(t, c, q, 8), mustSearch(t, l, q, 8)) {
			t.Fatalf("Search(%q) differs after diff reload", q)
		}
	}
}

// copyShardDir copies every file of a sharded snapshot between the two
// stores' newest generation directories (see copyGenFiles).
func copyShardDir(t *testing.T, src, dst string) {
	t.Helper()
	copyGenFiles(t, newestGenDir(t, src), newestGenDir(t, dst))
}

// copyGenFiles copies every file of the generation directory src into the
// directory dst, manifest last (mirroring the writer's commit ordering).
func copyGenFiles(t testing.TB, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	cp := func(name string) {
		in, err := os.Open(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, name))
		if err != nil {
			t.Fatal(err)
		}
		defer out.Close()
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if e.Name() != "manifest.json" {
			cp(e.Name())
		}
	}
	cp("manifest.json")
}

// TestReloadShardUnderHammer rolls a 4-shard partition from content A to
// content B one forced shard reload at a time while query goroutines
// hammer every read path; run with -race. Requests pinned mid-roll answer
// from a consistent published state; once the roll completes, answers are
// byte-identical to a fresh load of B — including through the query
// caches, which must not leak mid-roll entries into the final state.
func TestReloadShardUnderHammer(t *testing.T) {
	c := buildSmall(t)
	dirA, dirB := t.TempDir(), t.TempDir()
	manA, err := c.SaveShards(dirA, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InferImplicitRelations(); err != nil {
		t.Fatal(err)
	}
	manB, err := c.SaveShards(dirB, 4)
	if err != nil {
		t.Fatal(err)
	}
	if manA.MetaChecksum != manB.MetaChecksum {
		t.Fatalf("inference changed serving metadata; per-shard roll needs a stable shape")
	}

	l, err := LoadShardedFrozen(dirA)
	if err != nil {
		t.Fatal(err)
	}
	refB, err := LoadShardedFrozen(dirB)
	if err != nil {
		t.Fatal(err)
	}
	queries := equivalenceQueries(c)
	sessions := c.SampleSessions(4)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
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
				mustSearch(t, l, q, 8)
				mustRecommend(t, l, sessions[(i+w)%len(sessions)], 5)
				l.Hypernyms("coat")
			}
		}(w)
	}

	// Roll the partition: drop B's files into A's directory, then force-
	// reload one shard at a time under the hammer.
	copyShardDir(t, dirB, dirA)
	for i := 0; i < manB.NumShards(); i++ {
		if err := l.ReloadShard(dirA, i); err != nil {
			t.Errorf("reload shard %d: %v", i, err)
			break
		}
	}
	close(stop)
	wg.Wait()
	if t.Failed() {
		return
	}

	// Fully rolled: serving must be indistinguishable from a fresh load of
	// B, and its content stamp must match (so only full-B cache entries
	// are live).
	if l.CacheStamp() != refB.CacheStamp() {
		t.Fatalf("stamp after roll %+v != fresh-B stamp %+v", l.CacheStamp(), refB.CacheStamp())
	}
	for _, q := range queries {
		if !reflect.DeepEqual(mustSearch(t, refB, q, 8), mustSearch(t, l, q, 8)) {
			t.Fatalf("Search(%q) differs from fresh-B after roll", q)
		}
	}
	for _, sess := range sessions {
		ra, oka := mustRecommend(t, refB, sess, 5)
		rb, okb := mustRecommend(t, l, sess, 5)
		if oka != okb || !reflect.DeepEqual(ra, rb) {
			t.Fatalf("Recommend(%v) differs from fresh-B after roll", sess)
		}
	}
}

// TestReloadShardValidation: forced single-shard reloads are refused when
// serving is not shard-backed, the index is out of range, or the partition
// shape on disk no longer matches serving.
func TestReloadShardValidation(t *testing.T) {
	c := buildSmall(t)
	dir := t.TempDir()
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	if err := c.ReloadShard(dir, 0); err == nil {
		t.Fatal("built (non-shard-backed) CoCo must refuse ReloadShard")
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.ReloadShard(dir, -1); err == nil {
		t.Fatal("negative index must be refused")
	}
	if err := l.ReloadShard(dir, 3); err == nil {
		t.Fatal("out-of-range index must be refused")
	}
	// A different partition shape on disk refuses the forced reload.
	dir2 := t.TempDir()
	if _, err := c.SaveShards(dir2, 4); err != nil {
		t.Fatal(err)
	}
	if err := l.ReloadShard(dir2, 0); err == nil {
		t.Fatal("shape change must be refused by ReloadShard")
	}
	if err := l.ReloadShard(dir, 1); err != nil {
		t.Fatalf("valid forced reload failed: %v", err)
	}
}
