package core

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"maps"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unsafe"

	"alicoco/internal/fzio"
)

// TestHalfEdgeIsEightPointerFreeBytes: a half-edge in memory is the 8-byte
// on-disk record, and the garbage collector has nothing to scan in it.
func TestHalfEdgeIsEightPointerFreeBytes(t *testing.T) {
	if got := unsafe.Sizeof(HalfEdge{}); got != 8 || frozenEdgeRecSize != 8 {
		t.Fatalf("HalfEdge is %d bytes and the on-disk record %d, want 8 and 8", got, frozenEdgeRecSize)
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

// labelTableSpan returns the byte range of a saved snapshot's label table
// (its count and its pairs) and the pairs it lists.
func labelTableSpan(data []byte) (start, end int, keys []labelKey) {
	// After magic, version, the two kind counts and five u32 header fields.
	const at = 4 + 2 + 1 + 1 + 5*4
	end = at + 4
	for i := uint32(0); i < fzio.GetU32(data[at:]); i++ {
		n := int(fzio.GetU32(data[end:]))
		rel := string(data[end+4 : end+4+n])
		end += 4 + n
		bits := uint64(fzio.GetU32(data[end:])) | uint64(fzio.GetU32(data[end+4:]))<<32
		keys = append(keys, labelKey{rel, bits})
		end += 8
	}
	return at, end, keys
}

// withLabelTable returns a saved snapshot with its label table replaced by
// keys and its trailing CRC recomputed, so the file verifies.
func withLabelTable(data []byte, keys []labelKey) []byte {
	start, end, _ := labelTableSpan(data)
	return spliced(data, start, end, func(fw *fzio.Writer) {
		fw.U32(uint32(len(keys)))
		for _, k := range keys {
			fw.Str(k.rel)
			fw.U64(k.bits)
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

// withLastLabelIndex points the file's final edge record (the last in-CSR
// record, just before the CRC) at label table index idx. The CRC goes
// stale.
func withLastLabelIndex(data []byte, idx uint16) []byte {
	out := append([]byte(nil), data...)
	rec := out[len(out)-4-frozenEdgeRecSize:]
	rec[6], rec[7] = byte(idx), byte(idx>>8)
	return out
}

func interned(k labelKey) bool {
	labels.mu.RLock()
	defer labels.mu.RUnlock()
	_, ok := labels.ids[k]
	return ok
}

func internedCount() int { return len(labelTable()) }

// padLabels fills the label table with unnamed entries up to size labels,
// as if other pairs had been interned, and restores it when the test ends.
// The fillers are not in the inverse map, so nothing resolves to them.
func padLabels(t *testing.T, size int) {
	labels.mu.Lock()
	defer labels.mu.Unlock()
	saved, savedIDs := labelTable(), maps.Clone(labels.ids)
	publishLabels(append(slices.Clone(saved), make([]labelKey, size-len(saved))...))
	t.Cleanup(func() {
		labels.mu.Lock()
		defer labels.mu.Unlock()
		publishLabels(saved)
		labels.ids = savedIDs
	})
}

// freshRel returns a relation name that no earlier run in this process
// interned a label for.
func freshRel(prefix string) string {
	for i := 0; ; i++ {
		name := fmt.Sprintf("%s_%d", prefix, i)
		used := false
		for _, k := range labelTable() {
			if k.rel == name {
				used = true
				break
			}
		}
		if !used {
			return name
		}
	}
}

// TestLoadFrozenRejectsLabelTableBeyondLabelSpace: a verified file may list
// at most maxLabels pairs. One more is rejected before any record is
// decoded, so a file never needs more labels than a process has.
func TestLoadFrozenRejectsLabelTableBeyondLabelSpace(t *testing.T) {
	n, _ := buildToyNet(t)
	full := saveFrozen(t, n.Freeze().Shard(0))

	// maxLabels copies of label 0's pair: the file's last index is in
	// range, and loading interns nothing new.
	fits := withLabelTable(withLastLabelIndex(full, maxLabels-1), make([]labelKey, maxLabels))
	g, err := LoadFrozen(bytes.NewReader(fits))
	if err != nil {
		t.Fatalf("a %d-pair label table must load: %v", maxLabels, err)
	}
	if g.NumEdges() != n.NumEdges() {
		t.Fatalf("loaded %d edges, want %d", g.NumEdges(), n.NumEdges())
	}

	over := withLabelTable(full, make([]labelKey, maxLabels+1))
	if _, err := LoadFrozen(bytes.NewReader(over)); err == nil || !strings.Contains(err.Error(), "label space") {
		t.Fatalf("a %d-pair label table: got %v, want a label space error", maxLabels+1, err)
	}
}

// TestLoadFrozenInternsOnlyVerifiedNames: a file that fails its checksum
// adds nothing to the label intern table; the same file with a good
// checksum does.
func TestLoadFrozenInternsOnlyVerifiedNames(t *testing.T) {
	fresh := labelKey{freshRel("rel_named_only_in_this_file"), math.Float64bits(0.25)}
	n, _ := buildToyNet(t)
	data := saveFrozen(t, n.Freeze().Shard(0))
	_, _, keys := labelTableSpan(data)
	good := withLabelTable(data, append(keys, fresh))
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xFF

	held := internedCount()
	if _, err := LoadFrozen(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt checksum: got %v", err)
	}
	if interned(fresh) || internedCount() != held {
		t.Fatal("a file that failed its checksum interned its labels")
	}
	if _, err := LoadFrozen(bytes.NewReader(good)); err != nil {
		t.Fatal(err)
	}
	if !interned(fresh) {
		t.Fatal("a verified file did not intern its labels")
	}
}

// TestLoadFrozenMapsFileOrderToLabels: a file lists (relation, weight)
// pairs in the order its edges first use them, which need not be the order
// the process interned them in; loading maps every file index to the right
// Label.
func TestLoadFrozenMapsFileOrderToLabels(t *testing.T) {
	n := NewNet()
	a := n.AddNode(KindClass, "a", "d")
	b := n.AddNode(KindClass, "b", "d")
	// Interned first, but saved second: a's out edges precede b's.
	if err := n.AddEdge(b, a, EdgeSchema, "rel_interned_first", 0.5); err != nil {
		t.Fatal(err)
	}
	if err := n.AddEdge(a, b, EdgeSchema, "rel_interned_second", 0.75); err != nil {
		t.Fatal(err)
	}
	f := n.Freeze()
	data := saveFrozen(t, f.Shard(0))
	want := []labelKey{{"rel_interned_second", math.Float64bits(0.75)}, {"rel_interned_first", math.Float64bits(0.5)}}
	if _, _, keys := labelTableSpan(data); !reflect.DeepEqual(keys, want) {
		t.Fatalf("label table %v is not in order of first appearance", keys)
	}
	g := loadFrozenSet(t, data)
	for _, id := range []NodeID{a, b} {
		if !edgesEqual(f.Out(id, -1), g.Out(id, -1)) || !edgesEqual(f.In(id, -1), g.In(id, -1)) {
			t.Fatalf("node %d: loaded edges differ", id)
		}
	}
	if he := g.Out(a, EdgeSchema)[0]; he.Rel() != "rel_interned_second" || he.Weight() != 0.75 {
		t.Fatalf("a's schema edge loaded as %q at %v", he.Rel(), he.Weight())
	}
}

// TestInternRelsAllOrNothing: when the table cannot hold every new
// (relation, weight) pair, none of them is interned, and the table is left
// as it was.
func TestInternRelsAllOrNothing(t *testing.T) {
	padLabels(t, maxLabels-1)
	fits, doesNot := labelKey{"rel_fits", 0}, labelKey{"rel_does_not", 0}
	if _, err := internLabels([]labelKey{fits, doesNot}); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("overfull intern: got %v", err)
	}
	if interned(fits) || interned(doesNot) || internedCount() != maxLabels-1 {
		t.Fatal("a failed intern left labels in the table")
	}
	ls, err := internLabels([]labelKey{{}, fits, fits})
	if err != nil || !slices.Equal(ls, []Label{0, maxLabels - 1, maxLabels - 1}) {
		t.Fatalf("last free label: got %v, %v", ls, err)
	}
}

// TestInternRelConcurrent: goroutines interning overlapping (relation,
// weight) pairs at once, as parallel shard loads do, agree on every pair's
// Label.
func TestInternRelConcurrent(t *testing.T) {
	const workers, pairs = 8, 64
	got := make([][]Label, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ls := make([]Label, pairs)
			for i := range ls {
				k := (i + w*pairs/workers) % pairs
				rel, weight := fmt.Sprintf("rel_concurrent_%d", k%8), float64(k/8)
				l, err := internLabel(rel, weight)
				if err != nil {
					t.Error(err)
					return
				}
				if he := (HalfEdge{Label: l}); he.Rel() != rel || he.Weight() != weight {
					t.Errorf("label %d holds (%q, %v), want (%q, %v)", l, he.Rel(), he.Weight(), rel, weight)
				}
				ls[k] = l
			}
			got[w] = ls
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("goroutine %d saw different labels than goroutine 0", w)
		}
	}
}

// TestWeightsRoundTripBitForBit: labels key on a weight's bits, so every
// weight comes back with the bits it was added with, through Freeze and
// through Save and LoadFrozen — zeros of both signs, a NaN payload and a
// subnormal included.
func TestWeightsRoundTripBitForBit(t *testing.T) {
	weights := []float64{
		0, math.Copysign(0, -1), math.Float64frombits(0x7ff8_0000_dead_beef),
		math.Float64frombits(1), 0.9, math.MaxFloat64,
	}
	n := NewNet()
	a := n.AddNode(KindClass, "a", "d")
	peers := make([]NodeID, len(weights))
	for i, w := range weights {
		peers[i] = n.AddNode(KindClass, fmt.Sprintf("b%d", i), "d")
		if err := n.AddEdge(a, peers[i], EdgeSchema, "weighted", w); err != nil {
			t.Fatal(err)
		}
	}
	check := func(what string, s *ShardSet) {
		t.Helper()
		out := s.Out(a, EdgeSchema)
		if len(out) != len(weights) {
			t.Fatalf("%s: %d edges, want %d", what, len(out), len(weights))
		}
		for i, w := range weights {
			in := s.In(peers[i], EdgeSchema)
			for _, he := range []HalfEdge{out[i], in[0]} {
				if got := math.Float64bits(he.Weight()); got != math.Float64bits(w) || he.Rel() != "weighted" {
					t.Fatalf("%s: edge to %d carries (%q, %#x), want (\"weighted\", %#x)", what, peers[i], he.Rel(), got, math.Float64bits(w))
				}
			}
		}
	}
	f := n.Freeze()
	check("freeze", f)
	check("save and load", loadFrozenSet(t, saveFrozen(t, f.Shard(0))))
}

// TestLabelTableFullFailsCleanly: a net or a file that needs a label the
// full table has no room for fails with an error, not a panic, and interns
// nothing; pairs the table holds still work.
func TestLabelTableFullFailsCleanly(t *testing.T) {
	n, ids := buildToyNet(t)
	data := saveFrozen(t, n.Freeze().Shard(0))
	_, _, keys := labelTableSpan(data)
	fresh := labelKey{freshRel("rel_beyond_a_full_table"), 0}
	withFresh := withLabelTable(data, append(keys, fresh))

	padLabels(t, maxLabels)
	edges := n.NumEdges()
	if err := n.AddEdge(ids["clsClothing"], ids["clsCategory"], EdgeSchema, fresh.rel, 0); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("AddEdge on a full table: got %v", err)
	}
	if interned(fresh) || internedCount() != maxLabels || n.NumEdges() != edges {
		t.Fatal("a failed AddEdge interned a label or added an edge")
	}
	if _, err := LoadFrozen(bytes.NewReader(withFresh)); err == nil || !strings.Contains(err.Error(), "full") {
		t.Fatalf("LoadFrozen on a full table: got %v", err)
	}
	if interned(fresh) || internedCount() != maxLabels {
		t.Fatal("a failed LoadFrozen interned a label")
	}
	if _, err := LoadFrozen(bytes.NewReader(data)); err != nil {
		t.Fatalf("a file of held labels on a full table: %v", err)
	}
	if err := n.AddEdge(ids["clsClothing"], ids["clsCategory"], EdgeSchema, "", 0); err != nil {
		t.Fatalf("AddEdge of a held label on a full table: %v", err)
	}
}

// parallelRun numbers the runs of TestParallelLoadFrozenFreshLabels, so
// each run's labels are fresh under -count.
var parallelRun atomic.Int64

// TestParallelLoadFrozenFreshLabels: shards whose labels the process has
// not interned load in parallel while other goroutines read weights, as
// serving does during a reload; run it under -race. Every loaded edge
// carries its own file's pair.
func TestParallelLoadFrozenFreshLabels(t *testing.T) {
	n, _ := buildToyNet(t)
	data := saveFrozen(t, n.Freeze().Shard(0))
	_, _, keys := labelTableSpan(data)
	served := n.Freeze()
	const loaders, readers = 4, 2
	run := parallelRun.Add(1)
	files := make([][]byte, loaders)
	weights := make([]map[string]float64, loaders) // each file's pairs
	for i := range files {
		fresh := make([]labelKey, len(keys))
		weights[i] = make(map[string]float64)
		for j := range fresh {
			rel, w := fmt.Sprintf("rel_parallel_%d_%d_%d", run, i, j), float64(i*len(keys)+j)
			fresh[j] = labelKey{rel, math.Float64bits(w)}
			weights[i][rel] = w
		}
		files[i] = withLabelTable(data, fresh)
	}

	sumWeights := func() (sum float64) {
		for id := NodeID(0); int(id) < served.NumNodes(); id++ {
			for _, he := range served.Out(id, -1) {
				sum += he.Weight()
			}
		}
		return sum
	}
	want := sumWeights()
	stop := make(chan struct{})
	var readWG, loadWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readWG.Add(1)
		go func() {
			defer readWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := sumWeights(); got != want {
					t.Errorf("served weights sum to %v, want %v", got, want)
					return
				}
			}
		}()
	}
	for i, file := range files {
		loadWG.Add(1)
		go func(i int, file []byte) {
			defer loadWG.Done()
			g, err := LoadFrozen(bytes.NewReader(file))
			if err != nil {
				t.Error(err)
				return
			}
			for _, c := range []*csr{&g.out, &g.in} {
				for _, he := range c.edges {
					if w, ok := weights[i][he.Rel()]; !ok || he.Weight() != w {
						t.Errorf("file %d: an edge carries (%q, %v), not one of the file's pairs", i, he.Rel(), he.Weight())
						return
					}
				}
			}
		}(i, file)
	}
	loadWG.Wait()
	close(stop)
	readWG.Wait()
}
