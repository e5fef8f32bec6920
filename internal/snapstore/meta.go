package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/fzio"
)

// Serving metadata: what serving needs beyond the frozen shards, which the
// build derives from its world. A generation's meta.bin holds it, written
// with the shard codec's field primitives (internal/fzio; str = u32 length
// + bytes):
//
//	"ACSM" magic | u8 version
//	--- body, covered by the trailing CRC-32 (IEEE) ---
//	stopwords:  u32 count, count × str
//	categories: u32 count, count × str   (distinct, in order of first use)
//	items:      u32 count, count × (u32 node, str title, u32 category index)
//	--- u32 crc32 of body ---
//
// Item i has world ID i. The decoder accepts only what encode writes, so
// MetaChecksum is a pure content hash.

var shardMetaMagic = [4]byte{'A', 'C', 'S', 'M'}

const shardMetaVersion = 2

// ServingMeta is the world-derived data the serving layer needs beyond the
// net itself: the stopwords the search engine tokenizes with, and the item
// table mapping world item IDs to net nodes, titles and categories, with
// its node index. The build derives it; LoadGen reads it from meta.bin.
type ServingMeta struct {
	Stopwords []string
	Items     []ItemMeta // in world order: Items[i] has world ID i

	byNode []int32 // node ID -> index in Items of the last item on it, or -1
}

// ItemMeta is one sellable item's serving-facing identity.
type ItemMeta struct {
	WorldID  int
	Node     core.NodeID
	Title    string
	Category string
}

// ItemOfNode returns the item on node id — the last in world order when
// several share it — and whether there is one.
func (m *ServingMeta) ItemOfNode(id core.NodeID) (ItemMeta, bool) {
	if id < 0 || int(id) >= len(m.byNode) || m.byNode[id] < 0 {
		return ItemMeta{}, false
	}
	return m.Items[m.byNode[id]], true
}

// IndexNodes builds the node index over a net of total nodes, which must
// hold every item's node.
func (m *ServingMeta) IndexNodes(total int) {
	m.byNode = make([]int32, total)
	for i := range m.byNode {
		m.byNode[i] = -1
	}
	for i, it := range m.Items {
		m.byNode[it.Node] = int32(i)
	}
}

// CheckItemKinds reports an error unless every item lies on an item node of
// shards, the verified partition it is served with, whose node total holds
// every item's node. It reads the shards directly rather than through a
// ShardSet, whose lookups are a query-time fault-injection boundary.
func (m *ServingMeta) CheckItemKinds(shards []*core.FrozenNet) error {
	stride := core.ShardStride(shards[0].TotalNodes(), len(shards))
	for i, it := range m.Items {
		if nd, ok := shards[int(it.Node)/stride].Node(it.Node); !ok || nd.Kind != core.KindItem {
			return fmt.Errorf("item %d: node %d is not an item node", i, it.Node)
		}
	}
	return nil
}

// encode returns the meta body.
func (m *ServingMeta) encode() ([]byte, error) {
	catIdx := make(map[string]uint32)
	var cats []string
	for i, it := range m.Items {
		if it.WorldID != i {
			return nil, fmt.Errorf("item %d has world ID %d; world IDs must be dense", i, it.WorldID)
		}
		if _, ok := catIdx[it.Category]; !ok {
			catIdx[it.Category] = uint32(len(cats))
			cats = append(cats, it.Category)
		}
	}
	var body bytes.Buffer
	fw := fzio.Writer{W: &body}
	for _, list := range [][]string{m.Stopwords, cats} {
		fw.U32(uint32(len(list)))
		for _, s := range list {
			fw.Str(s)
		}
	}
	fw.U32(uint32(len(m.Items)))
	for _, it := range m.Items {
		fw.U32(uint32(it.Node))
		fw.Str(it.Title)
		fw.U32(catIdx[it.Category])
	}
	return body.Bytes(), nil
}

// decodeMeta decodes a meta body whose CRC has verified, for a net of total
// nodes, accepting only what encode writes: item nodes below total,
// categories distinct and in order of first use, nothing after the last
// item. Item kinds are checked once the shards have loaded.
func decodeMeta(body []byte, total int) (*ServingMeta, error) {
	r := bytes.NewReader(body)
	fr := fzio.Reader{R: r}
	// A section's strings are read back to back into buf, ends marking where
	// each stops; cut then copies them once into a string of exactly their
	// size, which each of them slices. Nothing is allocated per string.
	var buf []byte
	var ends []int
	count := func(what string) int {
		n := fr.Count(what)
		if fr.Err != nil {
			return 0
		}
		if buf == nil {
			buf = make([]byte, 0, len(body)) // no section outgrows the body
		}
		ends = slices.Grow(ends, fzio.Prealloc(n))
		return n
	}
	str := func() {
		buf = fr.AppendStr(buf, uint64(len(body)))
		ends = append(ends, len(buf))
	}
	cut := func() []string {
		all, start := string(buf), 0
		out := make([]string, len(ends))
		for i, end := range ends {
			out[i], start = all[start:end], end
		}
		buf, ends = buf[:0], ends[:0]
		return out
	}
	strs := func(what string) []string {
		for n := count(what); n > 0 && fr.Err == nil; n-- {
			str()
		}
		return cut()
	}

	stopwords, cats := strs("stopword"), strs("category")
	seen := make(map[string]bool, len(cats))
	for _, c := range cats {
		if seen[c] && fr.Err == nil {
			fr.Err = fmt.Errorf("category %q listed twice", c)
		}
		seen[c] = true
	}
	n := count("item")
	items := make([]ItemMeta, 0, fzio.Prealloc(n))
	used := uint32(0) // categories in use so far; the next new one must be cats[used]
	for i := 0; i < n && fr.Err == nil; i++ {
		node := fr.U32()
		str()
		cat := fr.U32()
		switch {
		case fr.Err != nil:
		case int64(node) >= int64(total):
			fr.Err = fmt.Errorf("item %d: node %d out of range [0,%d)", i, node, total)
		case cat >= uint32(len(cats)):
			fr.Err = fmt.Errorf("item %d: category %d out of range (%d categories)", i, cat, len(cats))
		case cat > used:
			fr.Err = fmt.Errorf("item %d: category %d used before category %d", i, cat, used)
		default:
			if cat == used {
				used++
			}
			items = append(items, ItemMeta{WorldID: i, Node: core.NodeID(node), Category: cats[cat]})
		}
	}
	if fr.Err == nil && int(used) < len(cats) {
		fr.Err = fmt.Errorf("%d categories no item uses", len(cats)-int(used))
	}
	if fr.Err == nil && r.Len() > 0 {
		fr.Err = fmt.Errorf("%d bytes after the last item", r.Len())
	}
	if fr.Err != nil {
		return nil, fmt.Errorf("snapstore: load shard meta: %w", fr.Err)
	}
	for i, title := range cut() {
		items[i].Title = title
	}
	return &ServingMeta{Stopwords: stopwords, Items: items}, nil
}

// writeMeta writes a meta file: header, body and the body's CRC-32.
func writeMeta(dir, name string, body []byte) error {
	return WriteFileAtomic(dir, name, func(w io.Writer) error {
		fw := fzio.Writer{W: w}
		fw.Bytes(shardMetaMagic[:])
		fw.U8(shardMetaVersion)
		fw.Bytes(body)
		fw.U32(crc32.ChecksumIEEE(body))
		return fw.Err
	})
}

// loadShardMeta reads the serving-metadata file and verifies its header,
// its CRC and the manifest's checksum before decoding the body.
func loadShardMeta(dir string, man *ShardManifest) (*ServingMeta, error) {
	path := filepath.Join(dir, man.MetaFile)
	f, err := faultfs.Open(path)
	if err != nil {
		return nil, fmt.Errorf("snapstore: load shard meta: %w", err)
	}
	defer f.Close()
	// Sized from a stat, the read costs one allocation however large the
	// file is.
	var file bytes.Buffer
	if fi, err := os.Stat(path); err == nil {
		file.Grow(int(fi.Size()) + bytes.MinRead)
	}
	if _, err := file.ReadFrom(f); err != nil {
		return nil, fmt.Errorf("snapstore: load shard meta: %w", err)
	}
	raw := file.Bytes()
	if len(raw) < 9 {
		return nil, errors.New("snapstore: load shard meta: file too short")
	}
	if [4]byte{raw[0], raw[1], raw[2], raw[3]} != shardMetaMagic {
		return nil, fmt.Errorf("snapstore: load shard meta: bad magic %q", raw[:4])
	}
	if raw[4] != shardMetaVersion {
		return nil, fmt.Errorf("snapstore: load shard meta: unsupported version %d", raw[4])
	}
	body, stored := raw[5:len(raw)-4], fzio.GetU32(raw[len(raw)-4:])
	if sum := crc32.ChecksumIEEE(body); sum != stored {
		return nil, fmt.Errorf("snapstore: load shard meta: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	if stored != man.MetaChecksum {
		return nil, fmt.Errorf("snapstore: load shard meta: checksum %08x does not match manifest %08x", stored, man.MetaChecksum)
	}
	return decodeMeta(body, man.TotalNodes)
}
