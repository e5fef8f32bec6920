package core

import (
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sort"
)

// Frozen snapshot persistence: a versioned binary format for FrozenNet
// itself, so cold start is a handful of bulk reads proportional to disk
// bandwidth — no re-indexing, no re-sorting, no Freeze() pass.
//
// Layout (all integers little-endian, str = u32 length + raw bytes):
//
// Version 2 makes a file self-describing as one shard of a partitioned net
// (see FreezeShards/ShardSet): it records the shard's base ID and the whole
// net's node count, and — because a shard's two adjacency directions hold
// different half-edge counts (a cross-shard edge's halves live in different
// files) — the out and in edge counts separately. A whole-net snapshot is
// the base=0, total=nodeCount case of the same layout.
//
//	magic   "ACFZ"
//	version u16
//	--- body, covered by the trailing CRC-32 (IEEE) ---
//	u8  numKinds      (must match this build)
//	u8  numEdgeKinds  (must match this build)
//	u32 nodeCount     (nodes this file holds)
//	u32 base          (first global node ID; IDs are base..base+nodeCount-1)
//	u32 totalNodes    (whole net's node count; peers are validated against it)
//	u32 outEdgeCount  (== len(out.edges))
//	u32 inEdgeCount   (== len(in.edges))
//	rel table: u32 count, count × str          (interned HalfEdge.Rel values)
//	nodes:     nodeCount × (u8 kind, str name, str domain)   (ID = base+index)
//	byName:    u32 entries, each str name + u32 cnt + cnt × u32 id
//	byKind:    numKinds × (u32 cnt + cnt × u32 id)
//	out CSR:   u32 offLen + offLen × u32 (bulk), u32 edgeCount + 16-byte records (bulk)
//	in  CSR:   same
//	--- trailer ---
//	u32 crc32 of body
//
// An edge record is 16 bytes: u32 peer | u32 (kind<<24 | relIndex) |
// u64 float64 bits of weight. Kind-grouped CSR order and the freeze-time
// weight-sorted postings are preserved byte-for-byte, so LoadFrozen never
// sorts.

const (
	frozenVersion = 2

	// maxFrozenElems bounds every count field in a snapshot; Save enforces
	// it at write time so every snapshot it produces is loadable, and
	// LoadFrozen rejects anything above it before allocating.
	maxFrozenElems = 1 << 27
	// maxFrozenStr bounds a single string length, both directions.
	maxFrozenStr = 1 << 20
	// frozenEdgeRecSize is the fixed on-disk size of one half-edge.
	frozenEdgeRecSize = 16
	// preallocElems caps how much capacity a claimed count reserves before
	// the stream has actually delivered that much data: slices grow with
	// genuine bytes, so a tiny corrupt file cannot trigger a huge
	// allocation (the checksum is only verifiable after the body).
	preallocElems = 1 << 16
)

// prealloc returns the initial capacity to reserve for a claimed element
// count, trusting the stream only up to preallocElems.
func prealloc(count int) int {
	if count > preallocElems {
		return preallocElems
	}
	return count
}

var frozenMagic = [4]byte{'A', 'C', 'F', 'Z'}

// fzWriter is a sticky-error little-endian writer.
type fzWriter struct {
	w   io.Writer
	err error
	b   [8]byte
}

func (fw *fzWriter) write(p []byte) {
	if fw.err != nil {
		return
	}
	_, fw.err = fw.w.Write(p)
}

func (fw *fzWriter) u8(v uint8) {
	fw.b[0] = v
	fw.write(fw.b[:1])
}

func (fw *fzWriter) u16(v uint16) {
	fw.b[0], fw.b[1] = byte(v), byte(v>>8)
	fw.write(fw.b[:2])
}

func (fw *fzWriter) u32(v uint32) {
	putU32(fw.b[:4], v)
	fw.write(fw.b[:4])
}

func (fw *fzWriter) str(s string) {
	fw.u32(uint32(len(s)))
	fw.write([]byte(s))
}

func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}

func getU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// fzReader is a sticky-error little-endian reader. Every count it returns
// is pre-bounded so callers can allocate without trusting the stream.
type fzReader struct {
	r   io.Reader
	err error
	b   [8]byte
}

func (fr *fzReader) read(p []byte) {
	if fr.err != nil {
		return
	}
	if _, err := io.ReadFull(fr.r, p); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		fr.err = err
	}
}

func (fr *fzReader) u8() uint8 {
	fr.read(fr.b[:1])
	return fr.b[0]
}

func (fr *fzReader) u16() uint16 {
	fr.read(fr.b[:2])
	return uint16(fr.b[0]) | uint16(fr.b[1])<<8
}

func (fr *fzReader) u32() uint32 {
	fr.read(fr.b[:4])
	return getU32(fr.b[:4])
}

// count reads a u32 element count and rejects anything above the sanity cap.
func (fr *fzReader) count(what string) int {
	v := fr.u32()
	if fr.err == nil && v > maxFrozenElems {
		fr.err = fmt.Errorf("%s count %d exceeds limit", what, v)
	}
	return int(v)
}

func (fr *fzReader) str() string {
	n := fr.u32()
	if fr.err == nil && n > maxFrozenStr {
		fr.err = fmt.Errorf("string length %d exceeds limit", n)
	}
	if fr.err != nil {
		return ""
	}
	buf := make([]byte, n)
	fr.read(buf)
	return string(buf)
}

// relTable interns the distinct HalfEdge.Rel strings of a snapshot so each
// edge record stores a 24-bit index instead of a string.
type relTable struct {
	rels []string
	idx  map[string]uint32
}

func buildRelTable(csrs ...*csr) (*relTable, error) {
	t := &relTable{idx: make(map[string]uint32)}
	for _, c := range csrs {
		for i := range c.edges {
			rel := c.edges[i].Rel
			if _, ok := t.idx[rel]; !ok {
				t.idx[rel] = uint32(len(t.rels))
				t.rels = append(t.rels, rel)
			}
		}
	}
	if len(t.rels) > 1<<24 {
		return nil, fmt.Errorf("core: frozen save: %d distinct rel strings exceed 24-bit index", len(t.rels))
	}
	for _, rel := range t.rels {
		if len(rel) > maxFrozenStr {
			return nil, fmt.Errorf("core: frozen save: rel string exceeds %d bytes", maxFrozenStr)
		}
	}
	return t, nil
}

// writeCSR emits one direction's offset array and edge records as two bulk
// writes.
func writeCSR(fw *fzWriter, c *csr, rels *relTable) {
	fw.u32(uint32(len(c.off)))
	offBuf := make([]byte, 4*len(c.off))
	for i, v := range c.off {
		putU32(offBuf[4*i:], uint32(v))
	}
	fw.write(offBuf)

	fw.u32(uint32(len(c.edges)))
	recBuf := make([]byte, frozenEdgeRecSize*len(c.edges))
	for i := range c.edges {
		he := &c.edges[i]
		rec := recBuf[frozenEdgeRecSize*i:]
		putU32(rec, uint32(he.Peer))
		putU32(rec[4:], uint32(he.Kind)<<24|rels.idx[he.Rel])
		w := math.Float64bits(he.Weight)
		putU32(rec[8:], uint32(w))
		putU32(rec[12:], uint32(w>>32))
	}
	fw.write(recBuf)
}

// readCSR reads one direction back and validates its structure: offsets
// monotone and consistent with the edge count, peers in range (against the
// whole net's node count — a shard's peers may live in other shards), each
// record's kind agreeing with the CSR group it sits in, rel indexes in
// range.
func readCSR(fr *fzReader, dir string, nodeCount, edgeCount, totalNodes int, rels []string) csr {
	var c csr
	offLen := fr.count(dir + " offset")
	wantOff := nodeCount*int(numEdgeKinds) + 1
	if fr.err == nil && offLen != wantOff {
		fr.err = fmt.Errorf("%s offset array length %d, want %d", dir, offLen, wantOff)
	}
	if fr.err != nil {
		return c
	}
	offBuf := make([]byte, 4*offLen)
	fr.read(offBuf)
	c.off = make([]int32, offLen)
	for i := range c.off {
		c.off[i] = int32(getU32(offBuf[4*i:]))
	}
	recs := fr.count(dir + " edge")
	if fr.err == nil && recs != edgeCount {
		fr.err = fmt.Errorf("%s edge count %d disagrees with header %d", dir, recs, edgeCount)
	}
	if fr.err == nil {
		if c.off[0] != 0 {
			fr.err = fmt.Errorf("%s offsets start at %d, want 0", dir, c.off[0])
		}
		for i := 1; i < len(c.off) && fr.err == nil; i++ {
			if c.off[i] < c.off[i-1] {
				fr.err = fmt.Errorf("%s offsets decrease at %d", dir, i)
			}
		}
		if fr.err == nil && int(c.off[len(c.off)-1]) != recs {
			fr.err = fmt.Errorf("%s offsets end at %d, want %d", dir, c.off[len(c.off)-1], recs)
		}
	}
	if fr.err != nil {
		return c
	}
	// Records are read in bounded chunks and appended, so the slice only
	// grows as fast as the stream actually delivers data.
	const chunkRecs = 1 << 15 // 512 KiB per read
	c.edges = make([]HalfEdge, 0, prealloc(recs))
	chunk := recs
	if chunk > chunkRecs {
		chunk = chunkRecs
	}
	recBuf := make([]byte, frozenEdgeRecSize*chunk)
	for done := 0; done < recs; {
		n := recs - done
		if n > chunkRecs {
			n = chunkRecs
		}
		fr.read(recBuf[:frozenEdgeRecSize*n])
		if fr.err != nil {
			return c
		}
		for i := 0; i < n; i++ {
			rec := recBuf[frozenEdgeRecSize*i:]
			peer := getU32(rec)
			kindRel := getU32(rec[4:])
			kind := EdgeKind(kindRel >> 24)
			relIdx := kindRel & 0xFFFFFF
			if int(peer) >= totalNodes {
				fr.err = fmt.Errorf("%s edge %d: peer %d out of range", dir, done+i, peer)
				return c
			}
			if int(relIdx) >= len(rels) {
				fr.err = fmt.Errorf("%s edge %d: rel index %d out of range", dir, done+i, relIdx)
				return c
			}
			c.edges = append(c.edges, HalfEdge{
				Peer:   NodeID(peer),
				Kind:   kind,
				Rel:    rels[relIdx],
				Weight: math.Float64frombits(uint64(getU32(rec[8:])) | uint64(getU32(rec[12:]))<<32),
			})
		}
		done += n
	}
	// Each record's kind must match the (node, kind) CSR group holding it.
	for slot := 0; slot < len(c.off)-1; slot++ {
		want := EdgeKind(slot % int(numEdgeKinds))
		for e := c.off[slot]; e < c.off[slot+1]; e++ {
			if c.edges[e].Kind != want {
				fr.err = fmt.Errorf("%s edge %d: kind %d disagrees with CSR group %d", dir, e, c.edges[e].Kind, want)
				return c
			}
		}
	}
	return c
}

// Save writes a versioned, checksummed binary snapshot of the frozen net
// (or one shard of it). The format round-trips through LoadFrozen without
// any rebuild work. Every limit LoadFrozen enforces is checked here first,
// so Save never produces a file its own loader would reject.
func (f *FrozenNet) Save(w io.Writer) error {
	_, err := f.SaveSum(w)
	return err
}

// SaveSum is Save that also returns the body CRC-32 it wrote — the same
// value LoadFrozen records as Checksum() — so multi-shard writers can build
// a manifest of per-shard checksums without re-reading the files.
func (f *FrozenNet) SaveSum(w io.Writer) (uint32, error) {
	if len(f.nodes) > maxFrozenElems {
		return 0, fmt.Errorf("core: frozen save: %d nodes exceed format limit %d", len(f.nodes), maxFrozenElems)
	}
	if f.total > maxFrozenElems {
		return 0, fmt.Errorf("core: frozen save: %d total nodes exceed format limit %d", f.total, maxFrozenElems)
	}
	if len(f.out.edges) > maxFrozenElems || len(f.in.edges) > maxFrozenElems {
		return 0, fmt.Errorf("core: frozen save: edge count exceeds format limit %d", maxFrozenElems)
	}
	for i := range f.nodes {
		if len(f.nodes[i].Name) > maxFrozenStr || len(f.nodes[i].Domain) > maxFrozenStr {
			return 0, fmt.Errorf("core: frozen save: node %d name/domain exceeds %d bytes", i, maxFrozenStr)
		}
	}
	head := fzWriter{w: w}
	head.write(frozenMagic[:])
	head.u16(frozenVersion)
	if head.err != nil {
		return 0, fmt.Errorf("core: frozen save: %w", head.err)
	}

	rels, err := buildRelTable(&f.out, &f.in)
	if err != nil {
		return 0, err
	}
	crc := crc32.NewIEEE()
	fw := fzWriter{w: io.MultiWriter(w, crc)}
	fw.u8(uint8(numKinds))
	fw.u8(uint8(numEdgeKinds))
	fw.u32(uint32(len(f.nodes)))
	fw.u32(uint32(f.base))
	fw.u32(uint32(f.total))
	fw.u32(uint32(len(f.out.edges)))
	fw.u32(uint32(len(f.in.edges)))

	fw.u32(uint32(len(rels.rels)))
	for _, rel := range rels.rels {
		fw.str(rel)
	}
	for i := range f.nodes {
		nd := &f.nodes[i]
		fw.u8(uint8(nd.Kind))
		fw.str(nd.Name)
		fw.str(nd.Domain)
	}
	// byName entries are sorted so identical nets serialize identically;
	// each entry's id order (insertion order) is preserved.
	names := make([]string, 0, len(f.byName))
	for name := range f.byName {
		names = append(names, name)
	}
	sort.Strings(names)
	fw.u32(uint32(len(names)))
	for _, name := range names {
		fw.str(name)
		ids := f.byName[name]
		fw.u32(uint32(len(ids)))
		for _, id := range ids {
			fw.u32(uint32(id))
		}
	}
	for k := 0; k < int(numKinds); k++ {
		ids := f.byKind[k]
		fw.u32(uint32(len(ids)))
		for _, id := range ids {
			fw.u32(uint32(id))
		}
	}
	writeCSR(&fw, &f.out, rels)
	writeCSR(&fw, &f.in, rels)
	if fw.err != nil {
		return 0, fmt.Errorf("core: frozen save: %w", fw.err)
	}
	sum := crc.Sum32()
	tail := fzWriter{w: w}
	tail.u32(sum)
	if tail.err != nil {
		return 0, fmt.Errorf("core: frozen save: %w", tail.err)
	}
	return sum, nil
}

// LoadFrozen reads a snapshot written by (*FrozenNet).Save and returns a
// ready-to-serve FrozenNet. Every structural invariant is validated —
// offsets, kinds, node ids, rel indexes, the edge counter, the checksum —
// so corrupt or truncated input yields an error, never a panic later.
func LoadFrozen(r io.Reader) (*FrozenNet, error) {
	head := fzReader{r: r}
	var magic [4]byte
	head.read(magic[:])
	if head.err == nil && magic != frozenMagic {
		head.err = fmt.Errorf("bad magic %q", magic[:])
	}
	version := head.u16()
	if head.err == nil && version != frozenVersion {
		head.err = fmt.Errorf("unsupported snapshot version %d", version)
	}
	if head.err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", head.err)
	}

	crc := crc32.NewIEEE()
	fr := fzReader{r: io.TeeReader(r, crc)}
	if nk := fr.u8(); fr.err == nil && nk != uint8(numKinds) {
		fr.err = fmt.Errorf("snapshot has %d node kinds, this build has %d", nk, numKinds)
	}
	if nek := fr.u8(); fr.err == nil && nek != uint8(numEdgeKinds) {
		fr.err = fmt.Errorf("snapshot has %d edge kinds, this build has %d", nek, numEdgeKinds)
	}
	nodeCount := fr.count("node")
	base := fr.count("base")
	totalNodes := fr.count("total node")
	outEdgeCount := fr.count("out edge")
	inEdgeCount := fr.count("in edge")
	if fr.err == nil && base+nodeCount > totalNodes {
		fr.err = fmt.Errorf("shard [%d,%d) exceeds declared total %d", base, base+nodeCount, totalNodes)
	}

	relCount := fr.count("rel")
	var rels []string
	if fr.err == nil {
		rels = make([]string, 0, prealloc(relCount))
		for i := 0; i < relCount && fr.err == nil; i++ {
			rels = append(rels, fr.str())
		}
	}

	f := &FrozenNet{base: NodeID(base), total: totalNodes}
	if fr.err == nil {
		f.nodes = make([]Node, 0, prealloc(nodeCount))
		for i := 0; i < nodeCount && fr.err == nil; i++ {
			kind := NodeKind(fr.u8())
			name := fr.str()
			domain := fr.str()
			if fr.err == nil && (kind < 0 || kind >= numKinds) {
				fr.err = fmt.Errorf("node %d: kind %d out of range", i, kind)
			}
			f.nodes = append(f.nodes, Node{ID: NodeID(base + i), Kind: kind, Name: name, Domain: domain})
		}
	}

	nameCount := fr.count("name index")
	if fr.err == nil {
		f.byName = make(map[string][]NodeID, prealloc(nameCount))
		for i := 0; i < nameCount && fr.err == nil; i++ {
			name := fr.str()
			cnt := fr.count("name entry")
			if fr.err != nil {
				break
			}
			ids := make([]NodeID, 0, prealloc(cnt))
			for j := 0; j < cnt; j++ {
				id := fr.u32()
				if fr.err != nil {
					break
				}
				if int(id) < base || int(id) >= base+nodeCount {
					fr.err = fmt.Errorf("name %q: node id %d outside shard range", name, id)
					break
				}
				if f.nodes[int(id)-base].Name != name {
					fr.err = fmt.Errorf("name index %q points at node %d named %q", name, id, f.nodes[int(id)-base].Name)
					break
				}
				ids = append(ids, NodeID(id))
			}
			f.byName[name] = ids
		}
	}

	for k := 0; k < int(numKinds) && fr.err == nil; k++ {
		cnt := fr.count("kind index")
		if fr.err != nil {
			break
		}
		ids := make([]NodeID, 0, prealloc(cnt))
		for j := 0; j < cnt; j++ {
			id := fr.u32()
			if fr.err != nil {
				break
			}
			if int(id) < base || int(id) >= base+nodeCount {
				fr.err = fmt.Errorf("kind %d index: node id %d outside shard range", k, id)
				break
			}
			if f.nodes[int(id)-base].Kind != NodeKind(k) {
				fr.err = fmt.Errorf("kind %d index holds node %d of kind %d", k, id, f.nodes[int(id)-base].Kind)
				break
			}
			ids = append(ids, NodeID(id))
		}
		f.byKind[k] = ids
	}

	if fr.err == nil {
		f.out = readCSR(&fr, "out", nodeCount, outEdgeCount, totalNodes, rels)
	}
	if fr.err == nil {
		f.in = readCSR(&fr, "in", nodeCount, inEdgeCount, totalNodes, rels)
	}
	if fr.err == nil {
		// The logical edge counter is not trusted beyond the header/CSR
		// agreement already enforced by readCSR; the shard's logical count
		// is its out-half-edge count, so shard counts sum to the net's.
		f.edges = len(f.out.edges)
	}
	if fr.err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", fr.err)
	}
	sum := crc.Sum32()
	tail := fzReader{r: r}
	if stored := tail.u32(); tail.err != nil {
		return nil, fmt.Errorf("core: load frozen: checksum: %w", tail.err)
	} else if stored != sum {
		return nil, fmt.Errorf("core: load frozen: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	f.checksum = sum
	nn := len(f.nodes)
	f.visit.New = func() any {
		return &visitState{gen: make([]uint32, nn)}
	}
	return f, nil
}
