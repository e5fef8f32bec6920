package pipeline

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/fzio"
	"alicoco/internal/snapstore"
)

// TestArtifactsSnapshotRoundTrip: a one-shard generation loads back with
// the serving metadata and the frozen net's answers intact.
func TestArtifactsSnapshotRoundTrip(t *testing.T) {
	a := buildTiny(t)
	dir, _ := saveShardDir(t, a, 1)
	shards, meta, _, err := loadShards(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(shards) != 1 {
		t.Fatalf("%d shards loaded, want 1", len(shards))
	}
	f, err := core.NewShardSet(shards)
	if err != nil {
		t.Fatal(err)
	}
	frozen := a.Net.Freeze()
	if f.NumNodes() != frozen.NumNodes() || f.NumEdges() != frozen.NumEdges() {
		t.Fatalf("frozen counts differ: %d/%d nodes, %d/%d edges",
			f.NumNodes(), frozen.NumNodes(), f.NumEdges(), frozen.NumEdges())
	}
	if !reflect.DeepEqual(a.Serving, meta) {
		t.Fatal("serving metadata differs after round trip")
	}
	// Spot-check real queries answer identically on the loaded net.
	for _, ec := range frozen.NodesOfKind(core.KindEConcept)[:5] {
		la, lb := frozen.ItemsForEConcept(ec, 10), f.ItemsForEConcept(ec, 10)
		if !reflect.DeepEqual(la, lb) {
			t.Fatalf("ItemsForEConcept(%d) differs after round trip", ec)
		}
	}
	for _, p := range frozen.NodesOfKind(core.KindPrimitive)[:5] {
		if !reflect.DeepEqual(frozen.Ancestors(p, 0), f.Ancestors(p, 0)) {
			t.Fatalf("Ancestors(%d) differs after round trip", p)
		}
	}
}

// TestLoadSnapshotRejectsCorruptHeader: meta.bin's magic, version and
// length are checked before its body is decoded.
func TestLoadSnapshotRejectsCorruptHeader(t *testing.T) {
	a := buildTiny(t)
	dir, man := saveShardDir(t, a, 1)
	path := filepath.Join(dir, man.MetaFile)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	load := func(data []byte) error {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, _, _, err := loadShards(dir)
		return err
	}

	bad := append([]byte(nil), full...)
	copy(bad, "XXXX")
	if load(bad) == nil {
		t.Fatal("bad magic accepted")
	}
	bad = append([]byte(nil), full...)
	bad[4] = 99
	if load(bad) == nil {
		t.Fatal("bad version accepted")
	}
	for _, cut := range []int{0, 3, 5, len(full) / 2, len(full) - 1} {
		if load(full[:cut]) == nil {
			t.Fatalf("truncation at %d bytes accepted", cut)
		}
	}
	if err := load(full); err != nil {
		t.Fatalf("restored meta.bin: %v", err)
	}
}

// rewriteMeta replaces the meta body of the generation in dir with edit's
// result behind the file's own header, recomputes its CRC and updates the
// manifest's MetaChecksum, so the file verifies and only its structure is
// wrong.
func rewriteMeta(t *testing.T, dir string, edit func(body []byte) []byte) {
	t.Helper()
	man, err := snapstore.ReadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, man.MetaFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := edit(append([]byte(nil), raw[5:len(raw)-4]...))
	file := append(append(raw[:5:5], body...), 0, 0, 0, 0)
	fzio.PutU32(file[len(file)-4:], crc32.ChecksumIEEE(body))
	if err := os.WriteFile(path, file, 0o644); err != nil {
		t.Fatal(err)
	}
	man.MetaChecksum = crc32.ChecksumIEEE(body)
	manRaw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapstore.ShardManifestName), manRaw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// itemsAt returns the offset of a meta body's item count: past the
// stopwords.
func itemsAt(t testing.TB, body []byte) int {
	t.Helper()
	r := bytes.NewReader(body)
	fr := fzio.Reader{R: r}
	for n := fr.Count("stopword"); n > 0 && fr.Err == nil; n-- {
		fr.Str()
	}
	if fr.Err != nil {
		t.Fatal(fr.Err)
	}
	return len(body) - r.Len()
}

// metaNodes are the node IDs metaCorruptions write into a meta body: the
// net's node count, a node that is not an item, one that is not a
// primitive, and a primitive outside the Category domain.
type metaNodes struct {
	total, nonItem, nonPrimitive, otherDomain uint32
}

// metaCorruptions turn a good meta body into one that must not load: the
// rows of TestLoadShardMetaStructuralCorruption and, in internal/snapstore,
// the v3 seeds of FuzzLoadMeta. items is the offset of the item count;
// item 0's node follows it, then item 0's category node.
var metaCorruptions = []struct {
	name string
	want string // a pattern the load error matches
	edit func(body []byte, items int, n metaNodes) []byte
}{
	{"non-item node", `item 0: node \d+ is not an item node`, func(b []byte, items int, n metaNodes) []byte {
		fzio.PutU32(b[items+4:], n.nonItem)
		return b
	}},
	{"node past total", `item 0: node \d+ out of range \[0,`, func(b []byte, items int, n metaNodes) []byte {
		fzio.PutU32(b[items+4:], n.total)
		return b
	}},
	{"category out of range", `item 0: category node \d+ out of range \[0,`, func(b []byte, items int, n metaNodes) []byte {
		fzio.PutU32(b[items+8:], n.total)
		return b
	}},
	{"category on non-primitive node", `item 0: category node \d+ is not a Category primitive`, func(b []byte, items int, n metaNodes) []byte {
		fzio.PutU32(b[items+8:], n.nonPrimitive)
		return b
	}},
	{"category on non-Category primitive", `item 0: category node \d+ is not a Category primitive`, func(b []byte, items int, n metaNodes) []byte {
		fzio.PutU32(b[items+8:], n.otherDomain)
		return b
	}},
	{"item past body", "unexpected EOF", func(b []byte, _ int, _ metaNodes) []byte {
		return b[:len(b)-6] // the last item's category and two bytes of its node
	}},
	{"bytes after last item", "1 bytes after the last item", func(b []byte, _ int, _ metaNodes) []byte {
		return append(b, 0)
	}},
	{"item count above limit", `item count \d+ exceeds limit`, func(b []byte, items int, _ metaNodes) []byte {
		fzio.PutU32(b[items:], fzio.MaxElems+1)
		return b
	}},
}

// TestLoadShardMetaStructuralCorruption: a meta body that verifies against
// its CRC and the manifest but breaks the format's structure never loads —
// in particular an item on a node that is not an item, which would hand
// that node to the recommend engine as a viewed item, and a category node
// that is not a leaf category, whose name would be served as the item's
// category.
func TestLoadShardMetaStructuralCorruption(t *testing.T) {
	a := buildTiny(t)
	frozen := a.Net.Freeze()
	nodes := metaNodes{
		total:        uint32(a.Net.NumNodes()),
		nonItem:      uint32(frozen.NodesOfKind(core.KindEConcept)[0]),
		nonPrimitive: uint32(frozen.NodesOfKind(core.KindClass)[0]),
		otherDomain:  math.MaxUint32,
	}
	for _, id := range frozen.NodesOfKind(core.KindPrimitive) {
		if nd, _ := frozen.Node(id); nd.Domain != "Category" {
			nodes.otherDomain = uint32(id)
			break
		}
	}
	if nodes.otherDomain == math.MaxUint32 {
		t.Fatal("the tiny net has no primitive outside the Category domain")
	}
	for _, row := range metaCorruptions {
		t.Run(row.name, func(t *testing.T) {
			dir, _ := saveShardDir(t, a, 2)
			rewriteMeta(t, dir, func(body []byte) []byte {
				return row.edit(body, itemsAt(t, body), nodes)
			})
			_, _, _, err := loadShards(dir)
			if err == nil || !regexp.MustCompile(row.want).MatchString(err.Error()) {
				t.Fatalf("got %v, want an error matching %q", err, row.want)
			}
		})
	}
}
