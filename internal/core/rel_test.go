package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"alicoco/internal/fzio"
)

// TestHalfEdgeIsSixteenPointerFreeBytes: a half-edge in memory is the
// 16-byte on-disk record, and the garbage collector has nothing to scan in
// it.
func TestHalfEdgeIsSixteenPointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(HalfEdge{}); got != frozenEdgeRecSize {
		t.Fatalf("HalfEdge is %d bytes, want %d (the on-disk record)", got, frozenEdgeRecSize)
	}
	if path := pointerField(reflect.TypeOf(HalfEdge{}), "HalfEdge"); path != "" {
		t.Fatalf("HalfEdge holds a pointer at %s", path)
	}
}

// pointerField returns the path of the first field in t whose type holds a
// pointer, or "" when t holds none.
func pointerField(t reflect.Type, path string) string {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
		return ""
	case reflect.Array:
		return pointerField(t.Elem(), path+"[]")
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	default: // pointer, string, slice, map, chan, func, interface
		return path + " (" + t.Kind().String() + ")"
	}
}

// relTableSpan returns the byte range of a saved snapshot's rel table (its
// count and its names) and the names it lists.
func relTableSpan(data []byte) (start, end int, names []string) {
	// After magic, version, the two kind counts and five u32 header fields.
	const at = 4 + 2 + 1 + 1 + 5*4
	end = at + 4
	for i := uint32(0); i < fzio.GetU32(data[at:]); i++ {
		n := int(fzio.GetU32(data[end:]))
		names = append(names, string(data[end+4:end+4+n]))
		end += 4 + n
	}
	return at, end, names
}

// withRelTable returns a saved snapshot with its rel table replaced by
// names and its trailing CRC recomputed, so the file verifies.
func withRelTable(data []byte, names []string) []byte {
	start, end, _ := relTableSpan(data)
	return spliced(data, start, end, func(fw *fzio.Writer) {
		fw.U32(uint32(len(names)))
		for _, name := range names {
			fw.Str(name)
		}
	})
}

// spliced returns a saved snapshot with the bytes in [start, end) replaced
// by what write emits and the trailing CRC recomputed over the new body.
func spliced(data []byte, start, end int, write func(fw *fzio.Writer)) []byte {
	var b bytes.Buffer
	fw := fzio.Writer{W: &b}
	fw.Bytes(data[:start])
	write(&fw)
	fw.Bytes(data[end : len(data)-4])
	fw.U32(crc32.ChecksumIEEE(b.Bytes()[6:]))
	return b.Bytes()
}

// withLastRelIndex points the file's final edge record (the last in-CSR
// record, just before the CRC) at rel table index idx. The CRC goes stale.
func withLastRelIndex(data []byte, idx uint32) []byte {
	out := append([]byte(nil), data...)
	rec := out[len(out)-4-frozenEdgeRecSize:]
	fzio.PutU32(rec[4:], fzio.GetU32(rec[4:])&0xFF000000|idx)
	return out
}

func interned(name string) bool {
	rels.RLock()
	defer rels.RUnlock()
	_, ok := rels.ids[name]
	return ok
}

func internedCount() int {
	rels.RLock()
	defer rels.RUnlock()
	return len(rels.names)
}

// TestLoadFrozenRejectsRelTableBeyondRelIDSpace: a verified file may name
// at most maxRels relations. One more is rejected before any record is
// decoded, so an edge pointing at file index maxRels is never truncated
// into RelID 0.
func TestLoadFrozenRejectsRelTableBeyondRelIDSpace(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze().Shard(0))

	fits := withRelTable(withLastRelIndex(full, maxRels-1), make([]string, maxRels))
	g, err := LoadFrozen(bytes.NewReader(fits))
	if err != nil {
		t.Fatalf("a %d-name rel table must load: %v", maxRels, err)
	}
	if g.NumEdges() != n.NumEdges() {
		t.Fatalf("loaded %d edges, want %d", g.NumEdges(), n.NumEdges())
	}

	over := withRelTable(withLastRelIndex(full, maxRels), make([]string, maxRels+1))
	if _, err := LoadFrozen(bytes.NewReader(over)); err == nil || !strings.Contains(err.Error(), "RelID space") {
		t.Fatalf("a %d-name rel table: got %v, want a RelID space error", maxRels+1, err)
	}
}

// TestLoadFrozenInternsOnlyVerifiedNames: a file that fails its checksum
// adds nothing to the relation intern table; the same file with a good
// checksum does.
func TestLoadFrozenInternsOnlyVerifiedNames(t *testing.T) {
	fresh := "rel_named_only_in_this_file"
	for i := 0; interned(fresh); i++ { // a name no earlier run interned
		fresh = fmt.Sprintf("rel_named_only_in_this_file_%d", i)
	}
	n, _ := buildToyNet(t)
	good := withRelTable(saveFrozen(t, n.Freeze().Shard(0)), []string{"", fresh})
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF

	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checksum: got %v", err)
	}
	if interned(fresh) {
		t.Fatal("a file that failed its checksum interned its relation names")
	}
	if _, err := LoadFrozen(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if !interned(fresh) {
		t.Fatal("a verified file did not intern its relation names")
	}
}

// TestLoadFrozenMapsFileOrderToRelIDs: a file lists relation names in the
// order its edges first use them, which need not be the order the process
// interned them in; loading maps every file index to the right RelID.
func TestLoadFrozenMapsFileOrderToRelIDs(t *testing.T) {
	n := NewNet()
	a := n.AddNode(KindClass, "a", "d")
	b := n.AddNode(KindClass, "b", "d")
	// Interned first, but saved second: a's out edges precede b's.
	if err := n.AddEdge(b, a, EdgeSchema, "rel_interned_first", 1); err != nil {
		t.Fatal(err)
	}
	if err := n.AddEdge(a, b, EdgeSchema, "rel_interned_second", 1); err != nil {
		t.Fatal(err)
	}
	f := n.Freeze()
	data := saveFrozen(t, f.Shard(0))
	if _, _, names := relTableSpan(data); !reflect.DeepEqual(names, []string{"rel_interned_second", "rel_interned_first"}) {
		t.Fatalf("rel table %q is not in order of first appearance", names)
	}
	g := loadFrozenSet(t, data)
	for _, id := range []NodeID{a, b} {
		if !edgesEqual(f.Out(id, -1), g.Out(id, -1)) || !edgesEqual(f.In(id, -1), g.In(id, -1)) {
			t.Fatalf("node %d: loaded edges differ", id)
		}
	}
	if got := g.Out(a, EdgeSchema)[0].Rel.String(); got != "rel_interned_second" {
		t.Fatalf("a's schema edge loaded as %q", got)
	}
}

// TestInternRelsAllOrNothing: when the table cannot hold every new name,
// none of them is interned, and the table is left as it was.
func TestInternRelsAllOrNothing(t *testing.T) {
	rels.Lock()
	savedNames, savedIDs := slices.Clone(rels.names), maps.Clone(rels.ids)
	// Pretend the table is one name short of full.
	for len(rels.names) < maxRels-1 {
		rels.names = append(rels.names, "")
	}
	rels.Unlock()
	defer func() {
		rels.Lock()
		rels.names, rels.ids = savedNames, savedIDs
		rels.Unlock()
	}()

	if _, err := internRels([]string{"rel_fits", "rel_does_not"}); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("overfull intern: got %v", err)
	}
	if interned("rel_fits") || interned("rel_does_not") || internedCount() != maxRels-1 {
		t.Fatal("a failed intern left names in the table")
	}
	ids, err := internRels([]string{"", "rel_fits"})
	if err != nil || ids[0] != 0 || ids[1] != maxRels-1 {
		t.Fatalf("last free ID: got %v, %v", ids, err)
	}
}

// TestInternRelConcurrent: goroutines interning overlapping names at once,
// as parallel shard loads do, agree on every name's RelID.
func TestInternRelConcurrent(t *testing.T) {
	const workers, names = 8, 64
	got := make([][]RelID, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids := make([]RelID, names)
			for i := range ids {
				k := (i + w*names/workers) % names
				name := fmt.Sprintf("rel_concurrent_%d", k)
				id, err := internRel(name)
				if err != nil {
					t.Error(err)
					return
				}
				if id.String() != name {
					t.Errorf("RelID %d names %q, want %q", id, id.String(), name)
				}
				ids[k] = id
			}
			got[w] = ids
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("goroutine %d saw different RelIDs than goroutine 0", w)
		}
	}
}
