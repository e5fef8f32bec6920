package core

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// denseOffsets is the reference layout the group index replaces: one offset
// per (node, edge kind) pair plus the end, computed straight from the live
// adjacency.
func denseOffsets(adj [][]HalfEdge) []int32 {
	k := int(numEdgeKinds)
	off := make([]int32, len(adj)*k+1)
	for id, hes := range adj {
		for _, he := range hes {
			off[id*k+int(he.Kind)+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	return off
}

// checkGroupIndex compares one direction of a shard owning [base, base+
// len(c.groups)) with the dense offsets of the live net's adjacency: every
// (node, kind) read, all kinds, and the isA/instanceOf span the traversals
// read.
func checkGroupIndex(t *testing.T, ctx string, c *csr, adj [][]HalfEdge) {
	t.Helper()
	want := denseOffsets(adj)
	k := int(numEdgeKinds)
	at := func(id, lo, hi int) []HalfEdge { return c.edges[want[id*k+lo]:want[id*k+hi]] }
	same := func(a, b []HalfEdge) bool {
		return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
	}
	for id := range adj {
		for kind := EdgeKind(0); kind < numEdgeKinds; kind++ {
			if got := c.slice(NodeID(id), kind); !same(got, at(id, int(kind), int(kind)+1)) {
				t.Fatalf("%s: node %d kind %v: %d edges at the wrong place", ctx, id, kind, len(got))
			}
		}
		if got := c.slice(NodeID(id), -1); !same(got, at(id, 0, k)) {
			t.Fatalf("%s: node %d all kinds: %d edges at the wrong place", ctx, id, len(got))
		}
		if got := c.span(NodeID(id), EdgeIsA, EdgeInstanceOf+1); !same(got, at(id, int(EdgeIsA), int(EdgeInstanceOf)+1)) {
			t.Fatalf("%s: node %d isA+instanceOf: %d edges at the wrong place", ctx, id, len(got))
		}
	}
	for _, id := range []NodeID{-1, NodeID(len(adj)), NodeID(len(adj) + 7)} {
		if got := c.slice(id, -1); got != nil {
			t.Fatalf("%s: node %d outside the shard reads %d edges", ctx, id, len(got))
		}
	}
	if got := c.slice(0, numEdgeKinds); got != nil {
		t.Fatalf("%s: kind %d reads %d edges", ctx, numEdgeKinds, len(got))
	}
}

// TestGroupIndexMatchesDenseOffsets: on randomized nets, frozen whole and in
// 2–5 shards, each also through Save→Load, the group index of both
// directions answers every (node, kind) read where the dense offsets put
// it.
func TestGroupIndexMatchesDenseOffsets(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := buildRandomNet(t, seed)
		_, out, in := n.lists()
		for count := 1; count <= 5; count++ {
			for i, sh := range n.FreezeShards(count) {
				loaded, err := LoadFrozen(bytes.NewReader(saveFrozen(t, sh)))
				if err != nil {
					t.Fatalf("seed %d: shard %d/%d: %v", seed, i, count, err)
				}
				lo, hi := int(sh.Base()), int(sh.Base())+sh.NumNodes()
				for form, f := range map[string]*FrozenNet{"frozen": sh, "loaded": loaded} {
					ctx := fmt.Sprintf("seed %d shard %d/%d %s", seed, i, count, form)
					checkGroupIndex(t, ctx+" out", &f.out, out[lo:hi])
					checkGroupIndex(t, ctx+" in", &f.in, in[lo:hi])
				}
			}
		}
	}
}

// TestGroupIndexIsContentSized: the index holds one 4-byte entry per node
// and one 4-byte start per non-empty group plus the end, with no pointers,
// whatever the number of empty groups.
func TestGroupIndexIsContentSized(t *testing.T) {
	var c csr
	for _, field := range []struct {
		name string
		typ  reflect.Type
	}{
		{"groups", reflect.TypeOf(c.groups).Elem()},
		{"starts", reflect.TypeOf(c.starts).Elem()},
	} {
		if field.typ.Size() != 4 {
			t.Fatalf("csr.%s elements are %d bytes, want 4", field.name, field.typ.Size())
		}
		if path := pointerField(field.typ, field.name); path != "" {
			t.Fatalf("csr.%s elements hold a pointer at %s", field.name, path)
		}
	}
	n := buildRandomNet(t, 3)
	f := n.Freeze().Shard(0)
	_, out, in := n.lists()
	for dir, c := range map[string]*csr{"out": &f.out, "in": &f.in} {
		groups := 0
		for id := 0; id < n.NumNodes(); id++ {
			kinds := map[EdgeKind]bool{}
			adj := out[id]
			if dir == "in" {
				adj = in[id]
			}
			for _, he := range adj {
				kinds[he.Kind] = true
			}
			groups += len(kinds)
		}
		if len(c.groups) != n.NumNodes() || cap(c.groups) != n.NumNodes() || len(c.starts) != groups+1 || cap(c.starts) != groups+1 {
			t.Fatalf("%s: %d/%d entries and %d/%d starts for %d nodes and %d non-empty groups",
				dir, len(c.groups), cap(c.groups), len(c.starts), cap(c.starts), n.NumNodes(), groups)
		}
	}
	if got, want := f.AdjacencyIndexBytes(), 4*(2*n.NumNodes()+len(f.out.starts)+len(f.in.starts)); got != want {
		t.Fatalf("AdjacencyIndexBytes = %d, want %d", got, want)
	}
}

// TestGroupIndexEmpty: a net without edges, and an empty shard, read no
// edges and save degrees that load back.
func TestGroupIndexEmpty(t *testing.T) {
	n := NewNet()
	n.AddNode(KindClass, "a", "")
	n.AddNode(KindItem, "b", "")
	for _, sh := range n.FreezeShards(4) {
		loaded, err := LoadFrozen(bytes.NewReader(saveFrozen(t, sh)))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range []*FrozenNet{sh, loaded} {
			for id := f.Base(); int(id) < int(f.Base())+f.NumNodes(); id++ {
				if got := f.out.slice(id-f.Base(), -1); len(got) != 0 {
					t.Fatalf("node %d has %d out edges", id, len(got))
				}
			}
			if len(f.out.starts) != 1 || len(f.in.starts) != 1 {
				t.Fatalf("shard at %d: %d and %d starts, want only the end", f.Base(), len(f.out.starts), len(f.in.starts))
			}
		}
	}
}

// TestNewCSRRejectsBadRuns: the one csr constructor refuses a run whose
// kinds descend and degrees that do not cover the edges exactly. The
// loader's degree-sum check stops the last two before they reach newCSR,
// so only this test reaches them.
func TestNewCSRRejectsBadRuns(t *testing.T) {
	edges := func(kinds ...EdgeKind) []HalfEdge {
		hes := make([]HalfEdge, len(kinds))
		for i, k := range kinds {
			hes[i].Kind = k
		}
		return hes
	}
	for _, tc := range []struct {
		name    string
		degrees []uint32
		edges   []HalfEdge
		errWant string
	}{
		{"kinds descend in a run", []uint32{1, 2}, edges(EdgeIsA, EdgeSchema, EdgeIsA), "kind order"},
		{"a degree overruns the edges", []uint32{2, 2}, edges(EdgeIsA, EdgeIsA, EdgeIsA), "overrun"},
		{"edges left over", []uint32{1, 1}, edges(EdgeIsA, EdgeIsA, EdgeIsA), "cover 2 of 3"},
	} {
		if _, err := newCSR(tc.degrees, tc.edges); err == nil || !strings.Contains(err.Error(), tc.errWant) {
			t.Errorf("%s: got %v, want an error mentioning %q", tc.name, err, tc.errWant)
		}
	}
}
