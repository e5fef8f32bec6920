package alicoco

import (
	"path/filepath"
	"slices"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/snapstore"
)

// unlinkedItemPrimitive returns an item and a primitive of the live net that
// no edge joins yet.
func unlinkedItemPrimitive(t *testing.T, live *core.Net) (item, prim core.NodeID) {
	t.Helper()
	n := live.Freeze()
	prims := n.NodesOfKind(core.KindPrimitive)
	for _, item := range n.NodesOfKind(core.KindItem) {
		for _, prim := range prims {
			linked := slices.ContainsFunc(n.Out(item, core.EdgeItemPrimitive), func(he core.HalfEdge) bool { return he.Peer == prim })
			if !linked {
				return item, prim
			}
		}
	}
	t.Fatal("every item is linked to every primitive")
	return 0, 0
}

// hasEdge reports whether r holds both halves of the item→primitive edge.
func hasEdge(r *core.ShardSet, item, prim core.NodeID) bool {
	out := slices.ContainsFunc(r.Out(item, core.EdgeItemPrimitive), func(he core.HalfEdge) bool { return he.Peer == prim })
	in := slices.ContainsFunc(r.In(prim, core.EdgeItemPrimitive), func(he core.HalfEdge) bool { return he.Peer == item })
	return out && in
}

// TestSaveShardsSeesLiveEdits: a save writes the served partition only
// while it is the live net's current state. An edge added to the live net
// after the build is not in the served shards, so the next save refreezes
// and the new generation holds it.
func TestSaveShardsSeesLiveEdits(t *testing.T) {
	c, err := BuildSharded(Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	arts := c.Internal()
	if !arts.Net.IsCurrentPartition(arts.Shards) {
		t.Fatal("the built facade's served partition is not the live net's current partition")
	}
	dir := t.TempDir()
	first, err := c.SaveShards(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	item, prim := unlinkedItemPrimitive(t, arts.Net)
	if err := arts.Net.AddEdge(item, prim, core.EdgeItemPrimitive, "", 0.5); err != nil {
		t.Fatal(err)
	}
	if arts.Net.IsCurrentPartition(arts.Shards) {
		t.Fatal("the served partition still reports current after a live edit")
	}
	second, err := c.SaveShards(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	if second.TotalEdges != first.TotalEdges+1 {
		t.Fatalf("saved %d edges after adding one to %d", second.TotalEdges, first.TotalEdges)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !hasEdge(l.ShardSet(), item, prim) {
		t.Fatalf("the saved generation lacks the live edge %d -> %d", item, prim)
	}
}

// TestSaveShardsRefreezesSwappedShard: a build partition in which one
// shard was replaced by a copy loaded from disk is not written as it is
// even though its shape still matches: the loaded shard records no source
// net, so the save refreezes. Here the loaded copy predates an edit, so
// writing it would lose the edit.
func TestSaveShardsRefreezesSwappedShard(t *testing.T) {
	c, err := BuildSharded(Small(), 3)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	man, err := c.SaveShards(dir, 3)
	if err != nil {
		t.Fatal(err)
	}
	net := c.Internal().Net
	item, prim := unlinkedItemPrimitive(t, net)
	if err := net.AddEdge(item, prim, core.EdgeItemPrimitive, "", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := refreezeLive(c); err != nil {
		t.Fatal(err)
	}
	g, err := snapstore.Lookup(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	k := int(item) / man.Stride // the shard holding the edit's out half
	stale, err := snapstore.LoadShard(filepath.Join(dir, g.Dir), man, k)
	if err != nil {
		t.Fatal(err)
	}
	// Swap the loaded shard into the build's partition, beside the live
	// net.
	c.Internal().Shards = slices.Clone(c.Internal().Shards)
	c.Internal().Shards[k] = stale
	if c.Internal().Net != net || c.Internal().Shards[k] != stale {
		t.Fatal("the swap did not keep the live net beside the loaded shard")
	}
	if _, err := c.SaveShards(dir, 3); err != nil {
		t.Fatal(err)
	}
	l, err := LoadShardedFrozen(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !hasEdge(l.ShardSet(), item, prim) {
		t.Fatalf("the save wrote the swapped-in shard %d, which lacks the edge %d -> %d", k, item, prim)
	}
}

// TestBuiltFacadeKeepsNoCorpus: the facade drops the build's corpus, which
// only model training reads, so its artifacts cannot train models.
func TestBuiltFacadeKeepsNoCorpus(t *testing.T) {
	arts := buildSmall(t).Internal()
	if arts.Corpus != nil {
		t.Fatal("a built facade keeps its corpus")
	}
	if m, err := arts.TrainModels(); err == nil || m != nil {
		t.Fatalf("TrainModels on a built facade's artifacts: %v, %v", m, err)
	}
}
