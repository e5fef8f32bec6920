package core

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"alicoco/internal/fzio"
)

// TestNodeRecordIsTwelvePointerFreeBytes: a frozen node is at most 12 bytes
// with nothing for the garbage collector to scan, and neither the name
// arena nor the name and kind indexes hold a pointer per element.
func TestNodeRecordIsTwelvePointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(nodeRec{}); got > 12 {
		t.Fatalf("nodeRec is %d bytes, want at most 12", got)
	}
	if path := pointerField(reflect.TypeOf(nodeRec{}), "nodeRec"); path != "" {
		t.Fatalf("nodeRec holds a pointer at %s", path)
	}
	var tab nodeTable
	for _, field := range []struct {
		name string
		typ  reflect.Type
	}{
		{"recs", reflect.TypeOf(tab.recs)},
		{"arena", reflect.TypeOf(tab.arena)},
		{"slots", reflect.TypeOf(tab.slots)},
		{"first", reflect.TypeOf(tab.first)},
		{"post", reflect.TypeOf(tab.post)},
		{"kinds", reflect.TypeOf(tab.kinds)},
		{"kindOff", reflect.TypeOf(tab.kindOff)},
	} {
		typ := field.typ
		if typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if path := pointerField(typ, field.name); path != "" {
			t.Fatalf("nodeTable.%s elements hold a pointer at %s", field.name, path)
		}
	}
}

// checkNameReads compares every view's node and name reads with the live
// net's, node by node: same Node, and the same first node of every kind
// from both name lookups.
func checkNameReads(t *testing.T, ctx string, n *Net, views map[string]*ShardSet) {
	t.Helper()
	for view, r := range views {
		for id := NodeID(0); int(id) < n.NumNodes(); id++ {
			want, _ := n.Node(id)
			got, ok := r.Node(id)
			if !ok || got != want {
				t.Fatalf("%s %s: Node(%d) = %+v, %v; want %+v", ctx, view, id, got, ok, want)
			}
			name := want.Name
			for kind := NodeKind(0); kind < numKinds; kind++ {
				want := n.FirstByNameKind(name, kind)
				if got := r.FirstByNameKind(name, kind); got != want {
					t.Fatalf("%s %s: FirstByNameKind(%q, %v) = %d, want %d", ctx, view, name, kind, got, want)
				}
				if got := r.FirstByNameKindBytes([]byte(name), kind); got != want {
					t.Fatalf("%s %s: FirstByNameKindBytes(%q, %v) = %d, want %d", ctx, view, name, kind, got, want)
				}
			}
		}
		if got := r.FirstByNameKindBytes([]byte("no such name"), KindItem); got != InvalidNode {
			t.Fatalf("%s %s: FirstByNameKindBytes of an unknown name = %d", ctx, view, got)
		}
	}
}

// TestNodeTableMatchesLiveNet: on randomized nets, in every frozen form
// (frozenViews), every node and name read answers exactly like the live
// net.
func TestNodeTableMatchesLiveNet(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		n := buildRandomNet(t, seed)
		checkNameReads(t, fmt.Sprintf("seed %d", seed), n, frozenViews(t, n))
	}
}

// TestNodeTableSharedAndStraddlingNames: one name held by nodes of every
// kind and several domains, spread so that each partition splits it across
// shards, still resolves to all its nodes in ascending ID order.
func TestNodeTableSharedAndStraddlingNames(t *testing.T) {
	n := NewNet()
	var shared []NodeID
	for i, nd := range []struct {
		kind   NodeKind
		domain string
	}{
		{KindClass, "Category"}, {KindPrimitive, "Color"}, {KindPrimitive, "Material"},
		{KindEConcept, ""}, {KindItem, "fam"}, {KindPrimitive, "Color2"},
	} {
		n.AddNode(nd.kind, fmt.Sprintf("other%d", i), nd.domain)
		shared = append(shared, n.AddNode(nd.kind, "shared", nd.domain))
	}
	for kind, want := range map[NodeKind]NodeID{KindClass: shared[0], KindPrimitive: shared[1], KindEConcept: shared[3], KindItem: shared[4]} {
		if got := n.FirstByNameKind("shared", kind); got != want {
			t.Fatalf("live FirstByNameKind(shared, %v) = %d, want %d", kind, got, want)
		}
	}
	views := frozenViews(t, n)
	checkNameReads(t, "shared", n, views)
	for view, r := range views {
		if got := r.FirstByNameKind("shared", KindPrimitive); got != shared[1] {
			t.Fatalf("%s: FirstByNameKind(shared, primitive) = %d, want %d", view, got, shared[1])
		}
		if nd, _ := r.Node(shared[2]); nd.Domain != "Material" {
			t.Fatalf("%s: Node(%d).Domain = %q", view, shared[2], nd.Domain)
		}
	}
	// Each shard's name index holds its own nodes of the name only.
	for _, sh := range n.FreezeShards(3) {
		var own []NodeID
		for _, id := range shared {
			if id >= sh.Base() && int(id) < int(sh.Base())+sh.NumNodes() {
				own = append(own, id)
			}
		}
		if len(own) == 0 || len(own) == len(shared) {
			t.Fatalf("shard at %d holds %d of %d shared nodes; the name must straddle shards", sh.Base(), len(own), len(shared))
		}
		if got := sh.nodes.find(nameHash("shared"), "shared"); !idsEqual(got, own) {
			t.Fatalf("shard at %d: name index lists %v for shared, want %v", sh.Base(), got, own)
		}
	}
}

// TestNodeTableEmptyNames: an empty name reads back as "" wherever it sits,
// including as the last name of an arena that ends there and in a shard
// whose arena holds no bytes at all.
func TestNodeTableEmptyNames(t *testing.T) {
	n := NewNet()
	first := n.AddNode(KindClass, "", "Category")
	n.AddNode(KindPrimitive, "x", "")
	last := n.AddNode(KindItem, "", "")
	views := frozenViews(t, n)
	checkNameReads(t, "empty names", n, views)
	for view, r := range views {
		if got := r.FirstByNameKind("", KindClass); got != first {
			t.Fatalf("%s: FirstByNameKind(\"\", class) = %d, want %d", view, got, first)
		}
		if got := r.FirstByNameKind("", KindItem); got != last {
			t.Fatalf("%s: FirstByNameKind(\"\", item) = %d, want %d", view, got, last)
		}
	}
	// Three shards of one node: the first and last arenas are empty.
	shards := n.FreezeShards(3)
	for _, sh := range []*FrozenNet{shards[0], shards[2]} {
		if nd, _ := sh.Node(sh.Base()); nd.Name != "" || len(sh.nodes.arena) != 0 {
			t.Fatalf("shard at %d: node %+v over a %d-byte arena", sh.Base(), nd, len(sh.nodes.arena))
		}
	}
	// A net with only empty names, so the whole arena is empty.
	n = NewNet()
	n.AddNode(KindClass, "", "")
	n.AddNode(KindItem, "", "")
	checkNameReads(t, "only empty names", n, frozenViews(t, n))
}

// TestLoadFrozenAllocsIndependentOfNodeCount: loading a shard costs a fixed
// number of allocations, none per node and none per name, so ten times the
// nodes make at most a few more (slices that outgrow their first capacity).
func TestLoadFrozenAllocsIndependentOfNodeCount(t *testing.T) {
	loadAllocs := func(nodes int) float64 {
		n := NewNet()
		var prim NodeID
		for i := 0; i < nodes; i++ {
			kind := NodeKind(i % int(numKinds))
			id := n.AddNode(kind, fmt.Sprintf("node number %d", i), fmt.Sprintf("domain%d", i%7))
			switch kind {
			case KindPrimitive:
				prim = id
			case KindItem:
				if err := n.AddEdge(id, prim, EdgeItemPrimitive, "", 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		data := saveFrozen(t, n.Freeze().Shard(0))
		return testing.AllocsPerRun(5, func() {
			if _, err := LoadFrozen(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := loadAllocs(300), loadAllocs(3000)
	if large > small+4 {
		t.Fatalf("loading 3000 nodes takes %.0f allocations, 300 nodes %.0f: the loader allocates per node or per name", large, small)
	}
}

// TestAppendStrRejectsOverflowBeforeAllocating: a string that would grow
// the buffer past its limit is rejected from its length alone, so a shard
// whose names overflow the arena's offsets fails before its bytes are read.
func TestAppendStrRejectsOverflowBeforeAllocating(t *testing.T) {
	var in bytes.Buffer
	fw := fzio.Writer{W: &in}
	fw.Str("abcd")
	fw.Str("efgh")
	fr := fzio.Reader{R: &in}
	buf := fr.AppendStr(make([]byte, 0, 4), 6)
	if fr.Err != nil || string(buf) != "abcd" {
		t.Fatalf("first string: %q, %v", buf, fr.Err)
	}
	buf = fr.AppendStr(buf, 6)
	if fr.Err == nil || !strings.Contains(fr.Err.Error(), "exceed") {
		t.Fatalf("overflowing string: got %v", fr.Err)
	}
	if string(buf) != "abcd" || cap(buf) != 4 {
		t.Fatalf("rejected string grew the buffer to %q (cap %d)", buf, cap(buf))
	}
	if rest, _ := io.ReadAll(&in); len(rest) != 4 {
		t.Fatalf("the rejected string's bytes were read: %d left", len(rest))
	}
}
