package snapstore

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"alicoco/internal/core"
	"alicoco/internal/faultfs"
	"alicoco/internal/fzio"
)

// Serving metadata: what serving needs beyond the frozen shards, which the
// build derives from its world. A generation's meta.bin holds it, written
// with the shard codec's field primitives (internal/fzio; str = u32 length
// + bytes):
//
//	"ACSM" magic | u8 version (3)
//	--- body, covered by the trailing CRC-32 (IEEE) ---
//	stopwords: u32 count, count × str
//	items:     u32 count, count × (u32 item node, u32 category node)
//	--- u32 crc32 of body ---
//
// Item i has world ID i. An item's title and category are the names of its
// two nodes, which the shards hold, so the file stores no name. The
// decoder accepts only what encode writes, so MetaChecksum is a pure
// content hash; the kinds of the nodes are checked once the shards have
// loaded (CheckItemKinds). Only this version loads: a store saved in an
// older one must be saved again.

var shardMetaMagic = [4]byte{'A', 'C', 'S', 'M'}

const shardMetaVersion = 3

// categoryDomain is the domain of the primitives an item's category node
// may be: the build's leaf categories (world.Category).
const categoryDomain = "Category"

// ServingMeta is the world-derived data the serving layer needs beyond the
// net itself: the stopwords the search engine tokenizes with, and the item
// table mapping world item IDs to net nodes, with its node index. The
// build derives it; LoadGen reads it from meta.bin.
type ServingMeta struct {
	Stopwords []string
	Items     []ItemMeta // in world order: Items[i] has world ID i

	byNode []int32 // node ID -> index in Items of the last item on it, or -1
}

// ItemMeta is one sellable item's serving-facing identity: its world ID,
// its node, whose name is its title, and its category node, the leaf
// category primitive whose name is its category. It holds no pointer: the
// names live in the shards served with the table.
type ItemMeta struct {
	WorldID  int
	Node     core.NodeID
	Category core.NodeID
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

// CheckItemKinds reports an error unless every item lies on an item node,
// and its category on a primitive of the Category domain, of shards: the
// verified partition it is served with, whose node total holds every node
// the table names. It reads the shards directly rather than through a
// ShardSet, whose lookups are a query-time fault-injection boundary.
func (m *ServingMeta) CheckItemKinds(shards []*core.FrozenNet) error {
	stride := core.ShardStride(shards[0].TotalNodes(), len(shards))
	node := func(id core.NodeID) (core.Node, bool) {
		if id < 0 || int(id)/stride >= len(shards) {
			return core.Node{}, false
		}
		return shards[int(id)/stride].Node(id)
	}
	for i, it := range m.Items {
		if nd, ok := node(it.Node); !ok || nd.Kind != core.KindItem {
			return fmt.Errorf("item %d: node %d is not an item node", i, it.Node)
		}
		if nd, ok := node(it.Category); !ok || nd.Kind != core.KindPrimitive || nd.Domain != categoryDomain {
			return fmt.Errorf("item %d: category node %d is not a %s primitive", i, it.Category, categoryDomain)
		}
	}
	return nil
}

// encode returns the meta body.
func (m *ServingMeta) encode() ([]byte, error) {
	size := 8 + 8*len(m.Items)
	for _, s := range m.Stopwords {
		size += 4 + len(s)
	}
	body := bytes.NewBuffer(make([]byte, 0, size))
	fw := fzio.Writer{W: body}
	fw.U32(uint32(len(m.Stopwords)))
	for _, s := range m.Stopwords {
		fw.Str(s)
	}
	fw.U32(uint32(len(m.Items)))
	for i, it := range m.Items {
		if it.WorldID != i {
			return nil, fmt.Errorf("item %d has world ID %d; world IDs must be dense", i, it.WorldID)
		}
		fw.U32(uint32(it.Node))
		fw.U32(uint32(it.Category))
	}
	return body.Bytes(), nil
}

// decodeMeta decodes a meta body whose CRC has verified, for a net of total
// nodes, accepting only what encode writes: every node below total and
// nothing after the last item. Node kinds are checked once the shards have
// loaded.
func decodeMeta(body []byte, total int) (*ServingMeta, error) {
	r := bytes.NewReader(body)
	fr := fzio.Reader{R: r}

	// The stopwords are read back to back into buf, ends marking where
	// each stops; then one string of exactly their size is made, which
	// each of them slices. Nothing is allocated per word.
	n := fr.Count("stopword")
	var buf []byte
	var ends []int
	if fr.Err == nil {
		buf, ends = make([]byte, 0, len(body)), make([]int, 0, fzio.Prealloc(n))
	}
	for ; n > 0 && fr.Err == nil; n-- {
		buf = fr.AppendStr(buf, uint64(len(body)))
		ends = append(ends, len(buf))
	}
	all, start := string(buf), 0
	stopwords := make([]string, len(ends))
	for i, end := range ends {
		stopwords[i], start = all[start:end], end
	}

	n = fr.Count("item")
	var items []ItemMeta
	if fr.Err == nil {
		items = make([]ItemMeta, 0, fzio.Prealloc(n))
	}
	for i := 0; i < n && fr.Err == nil; i++ {
		node, cat := fr.U32(), fr.U32()
		switch {
		case fr.Err != nil:
		case int64(node) >= int64(total):
			fr.Err = fmt.Errorf("item %d: node %d out of range [0,%d)", i, node, total)
		case int64(cat) >= int64(total):
			fr.Err = fmt.Errorf("item %d: category node %d out of range [0,%d)", i, cat, total)
		default:
			items = append(items, ItemMeta{WorldID: i, Node: core.NodeID(node), Category: core.NodeID(cat)})
		}
	}
	if fr.Err == nil && r.Len() > 0 {
		fr.Err = fmt.Errorf("%d bytes after the last item", r.Len())
	}
	if fr.Err != nil {
		return nil, fmt.Errorf("snapstore: load shard meta: %w", fr.Err)
	}
	return &ServingMeta{Stopwords: stopwords, Items: items}, nil
}

// writeMeta writes a meta file into a committed generation's directory.
func writeMeta(dir, name string, body []byte) error {
	return WriteFileAtomic(dir, name, emitMeta(body))
}

// emitMeta returns the emitter of a meta file: header, body and the
// body's CRC-32, in one write.
func emitMeta(body []byte) func(w io.Writer) error {
	return func(w io.Writer) error {
		file := make([]byte, 0, len(shardMetaMagic)+1+len(body)+4)
		file = append(append(append(file, shardMetaMagic[:]...), shardMetaVersion), body...)
		file = append(file, 0, 0, 0, 0)
		fzio.PutU32(file[len(file)-4:], crc32.ChecksumIEEE(body))
		_, err := w.Write(file)
		return err
	}
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
