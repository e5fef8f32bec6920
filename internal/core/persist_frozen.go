package core

import (
	"bufio"
	"fmt"
	"hash/crc32"
	"io"

	"alicoco/internal/fzio"
)

// Frozen snapshot persistence: a versioned binary format for FrozenNet
// itself, so cold start is a handful of bulk reads proportional to disk
// bandwidth — no re-sorting and no Freeze() pass.
//
// A file is one shard of a partitioned net (see FreezeShards/ShardSet): it
// records the shard's base ID and the whole net's node count, and — because
// a shard's two adjacency directions hold different half-edge counts (a
// cross-shard edge's halves live in different files) — the out and in edge
// counts separately. A whole-net snapshot is the base=0, total=nodeCount
// case of the same layout.
//
// Layout (all integers little-endian, str = u32 length + raw bytes):
//
//	magic   "ACFZ"
//	version u16
//	--- body, covered by the trailing CRC-32 (IEEE) ---
//	u8  numKinds      (must match this build)
//	u8  numEdgeKinds  (must match this build)
//	u32 nodeCount     (nodes this file holds)
//	u32 base          (first global node ID; IDs are base..base+nodeCount-1)
//	u32 totalNodes    (whole net's node count; peers are validated against it)
//	u32 outEdgeCount  (out half-edges this file holds)
//	u32 inEdgeCount   (in half-edges this file holds)
//	label table: u32 count, count × (str relation, u64 float64 bits of
//	             weight)                       (count <= 1<<16)
//	nodes:     nodeCount × (u8 kind, str name, str domain)   (ID = base+index)
//	out edges: nodeCount × u32 degree (bulk), then outEdgeCount 8-byte
//	           records (bulk): node by node, each node's in ascending kind
//	           order; the degrees sum to outEdgeCount
//	in  edges: the same, summing to inEdgeCount
//	--- trailer ---
//	u32 crc32 of body
//
// An edge record is 8 bytes: u32 peer | u8 kind | u8 zero | u16 label
// index — the layout of the in-memory HalfEdge, which holds the pair's
// process Label where the file holds its index in the label table. Every
// weight is stored with all its bits. Kind-grouped edge order and the
// freeze-time weight-sorted postings are preserved byte-for-byte, so
// LoadFrozen never sorts. The file holds nothing the loader can derive:
// LoadFrozen builds the name and kind indexes from the node records and
// each direction's group index from its degrees and edge kinds, with the
// constructors Freeze uses (newNodeTable, newCSR), so the bytes do not
// depend on the in-memory layout. Only this version loads: a store saved
// in an older one must be saved again.

const (
	frozenVersion = 4

	// FrozenHeaderLen and FrozenTrailerLen frame a shard file's
	// checksummed body: the magic and version before it, its CRC-32 after.
	FrozenHeaderLen  = 6
	FrozenTrailerLen = 4

	// frozenEdgeRecSize is the fixed on-disk size of one half-edge.
	frozenEdgeRecSize = 8

	// saveBuffer bounds the buffer SaveSum writes a file through, the size
	// snapstore.LoadShard reads with; a smaller file gets a buffer of its
	// own size. saveChunk is the chunk writeCSR encodes degrees and edge
	// records into.
	saveBuffer = 64 << 10
	saveChunk  = 4 << 10
)

var frozenMagic = [4]byte{'A', 'C', 'F', 'Z'}

// fileLabels numbers the labels a snapshot's edges carry in order of first
// appearance (out edges, then in edges), so each edge record stores a
// 16-bit file index and the file lists the (relation, weight) pairs. The
// numbering depends only on the snapshot's edges, never on Label values,
// which depend on the order a process interned its pairs: equal nets write
// equal bytes.
type fileLabels struct {
	keys []labelKey
	// idx maps a process Label to 1 + its file index; 0 marks a label no
	// edge of the snapshot carries.
	idx []uint32
}

func buildFileLabels(csrs ...*csr) (*fileLabels, error) {
	// Every edge's label was interned before this load of the table.
	table := labelTable()
	t := &fileLabels{idx: make([]uint32, len(table))}
	for _, c := range csrs {
		for i := range c.edges {
			l := c.edges[i].Label
			if t.idx[l] == 0 {
				// At most maxLabels labels exist, so the index fits.
				t.keys = append(t.keys, table[l])
				t.idx[l] = uint32(len(t.keys))
			}
		}
	}
	for _, k := range t.keys {
		if len(k.rel) > fzio.MaxStr {
			return nil, fmt.Errorf("core: frozen save: rel string exceeds %d bytes", fzio.MaxStr)
		}
	}
	return t, nil
}

// writeCSR emits one direction: each node's degree, then the edge
// records, encoded through chunk and written a chunk at a time.
func writeCSR(fw *fzio.Writer, c *csr, table *fileLabels, chunk []byte) {
	n := 0 // bytes of chunk in use
	for id := range c.groups {
		if n+4 > len(chunk) {
			fw.Bytes(chunk[:n])
			n = 0
		}
		fzio.PutU32(chunk[n:], uint32(len(c.slice(NodeID(id), -1))))
		n += 4
	}
	for i := range c.edges {
		if n+frozenEdgeRecSize > len(chunk) {
			fw.Bytes(chunk[:n])
			n = 0
		}
		he := &c.edges[i]
		rec := chunk[n:]
		fzio.PutU32(rec, uint32(he.Peer))
		l := table.idx[he.Label] - 1
		rec[4], rec[5], rec[6], rec[7] = byte(he.Kind), 0, byte(l), byte(l>>8)
		n += frozenEdgeRecSize
	}
	fw.Bytes(chunk[:n])
}

// readCSR reads one direction back and validates it: the degrees must sum
// to the header's edge count before any record is read; each record's peer
// must be in range (against the whole net's node count — a shard's peers
// may live in other shards), its kind a valid kind, its pad byte zero and
// its label index below labelCount; and newCSR checks that every node's run
// ascends by kind. Each edge's Label holds its file index until
// LoadFrozen, once the checksum verifies, maps the index to the pair's
// Label.
func readCSR(fr *fzio.Reader, dir string, nodeCount, edgeCount, totalNodes, labelCount int) csr {
	// The node records already read vouch for nodeCount, so the degrees
	// are read in one piece.
	degBuf := make([]byte, 4*nodeCount)
	fr.Bytes(degBuf)
	if fr.Err != nil {
		return csr{}
	}
	degrees := make([]uint32, nodeCount)
	var sum uint64
	for id := range degrees {
		degrees[id] = fzio.GetU32(degBuf[4*id:])
		sum += uint64(degrees[id])
	}
	if sum != uint64(edgeCount) {
		fr.Err = fmt.Errorf("%s degrees sum to %d, which disagrees with header edge count %d", dir, sum, edgeCount)
		return csr{}
	}
	// Records are read in bounded chunks and appended, so the slice only
	// grows as fast as the stream actually delivers data.
	const chunkRecs = 1 << 16 // 512 KiB per read
	edges := make([]HalfEdge, 0, fzio.Prealloc(edgeCount))
	recBuf := make([]byte, frozenEdgeRecSize*min(edgeCount, chunkRecs))
	for done := 0; done < edgeCount; {
		n := min(edgeCount-done, chunkRecs)
		fr.Bytes(recBuf[:frozenEdgeRecSize*n])
		if fr.Err != nil {
			return csr{}
		}
		for i := 0; i < n; i++ {
			rec := recBuf[frozenEdgeRecSize*i:]
			peer := fzio.GetU32(rec)
			kind := EdgeKind(rec[4])
			idx := uint16(rec[6]) | uint16(rec[7])<<8
			switch {
			case int(peer) >= totalNodes:
				fr.Err = fmt.Errorf("%s edge %d: peer %d out of range", dir, done+i, peer)
			case kind < 0 || kind >= numEdgeKinds:
				fr.Err = fmt.Errorf("%s edge %d: kind %d out of range", dir, done+i, kind)
			case rec[5] != 0:
				fr.Err = fmt.Errorf("%s edge %d: pad byte %#x is not zero", dir, done+i, rec[5])
			case int(idx) >= labelCount:
				fr.Err = fmt.Errorf("%s edge %d: label index %d out of range", dir, done+i, idx)
			}
			if fr.Err != nil {
				return csr{}
			}
			edges = append(edges, HalfEdge{Peer: NodeID(peer), Kind: kind, Label: Label(idx)})
		}
		done += n
	}
	if cap(edges) > len(edges) {
		// Past the preallocation cap the slice grew by appending; keep
		// exactly the records read.
		edges = append(make([]HalfEdge, 0, len(edges)), edges...)
	}
	c, err := newCSR(degrees, edges)
	if err != nil {
		fr.Err = fmt.Errorf("%s %w", dir, err)
	}
	return c
}

// readNodes reads a shard's node records into a node table: each name
// straight into the shard's name arena, each domain through the shard's
// domain table, so the nodes cost a constant number of allocations. A
// shard whose names would overflow the arena's 32-bit offsets is rejected
// before room for them is allocated.
func readNodes(fr *fzio.Reader, base NodeID, nodeCount int) nodeTable {
	// 16 bytes a name is a first guess at the arena's size; it grows only
	// with names actually read and is trimmed to size below.
	b := tableBuilder{nodeList: nodeList{
		recs:  make([]nodeRec, 0, fzio.Prealloc(nodeCount)),
		arena: make([]byte, 0, 16*fzio.Prealloc(nodeCount)),
	}}
	var dom []byte
	for i := 0; i < nodeCount && fr.Err == nil; i++ {
		kind := NodeKind(fr.U8())
		off := len(b.arena)
		b.arena = fr.AppendStr(b.arena, maxArena)
		dom = fr.AppendStr(dom[:0], fzio.MaxStr)
		if fr.Err == nil && kind >= numKinds {
			fr.Err = fmt.Errorf("node %d: kind %d out of range", i, kind)
		}
		if fr.Err == nil {
			b.addNode(kind, off, bytesView(dom))
		}
	}
	if fr.Err != nil {
		return nodeTable{}
	}
	if cap(b.arena) > len(b.arena) {
		b.arena = append([]byte(nil), b.arena...)
	}
	return newNodeTable(base, b.nodeList)
}

// Save writes a versioned, checksummed binary snapshot of the shard (of a
// whole one-shard net, or of one shard of a partition). The format
// round-trips through LoadFrozen without any sorting. Every limit
// LoadFrozen enforces is checked here first, so Save never produces a file
// its own loader would reject.
func (f *FrozenNet) Save(w io.Writer) error {
	_, err := f.SaveSum(w)
	return err
}

// SaveSum is Save that also returns the body CRC-32 it wrote — the same
// value LoadFrozen records as Checksum() — so multi-shard writers can build
// a manifest of per-shard checksums without re-reading the files. It
// buffers its writes itself, in one buffer sized to the file and at most
// saveBuffer bytes, so w needs no buffer of its own.
func (f *FrozenNet) SaveSum(w io.Writer) (uint32, error) {
	t := &f.nodes
	if len(t.recs) > fzio.MaxElems {
		return 0, fmt.Errorf("core: frozen save: %d nodes exceed format limit %d", len(t.recs), fzio.MaxElems)
	}
	if f.total > fzio.MaxElems {
		return 0, fmt.Errorf("core: frozen save: %d total nodes exceed format limit %d", f.total, fzio.MaxElems)
	}
	if len(f.out.edges) > fzio.MaxElems || len(f.in.edges) > fzio.MaxElems {
		return 0, fmt.Errorf("core: frozen save: edge count exceeds format limit %d", fzio.MaxElems)
	}
	for i := range t.recs {
		if len(t.name(i)) > fzio.MaxStr || len(t.domains[t.recs[i].dom]) > fzio.MaxStr {
			return 0, fmt.Errorf("core: frozen save: node %d name/domain exceeds %d bytes", i, fzio.MaxStr)
		}
	}
	table, err := buildFileLabels(&f.out, &f.in)
	if err != nil {
		return 0, err
	}
	// Every write goes through bw, whose first error sticks: the Flush at
	// the end reports it.
	bw := bufio.NewWriterSize(w, min(f.fileSize(table), saveBuffer))
	frame := fzio.Writer{W: bw} // the header and trailer around the body
	frame.Bytes(frozenMagic[:])
	frame.U16(frozenVersion)

	crc := crc32.NewIEEE()
	fw := fzio.Writer{W: io.MultiWriter(bw, crc)}
	fw.U8(uint8(numKinds))
	fw.U8(uint8(numEdgeKinds))
	fw.U32(uint32(len(t.recs)))
	fw.U32(uint32(t.base))
	fw.U32(uint32(f.total))
	fw.U32(uint32(len(f.out.edges)))
	fw.U32(uint32(len(f.in.edges)))

	fw.U32(uint32(len(table.keys)))
	for _, k := range table.keys {
		fw.Str(k.rel)
		fw.U64(k.bits)
	}
	for i, r := range t.recs {
		fw.U8(r.kind)
		fw.Str(t.name(i))
		fw.Str(t.domains[r.dom])
	}
	chunk := make([]byte, saveChunk)
	writeCSR(&fw, &f.out, table, chunk)
	writeCSR(&fw, &f.in, table, chunk)
	sum := crc.Sum32()
	frame.U32(sum)
	if err := bw.Flush(); err != nil {
		return 0, fmt.Errorf("core: frozen save: %w", err)
	}
	return sum, nil
}

// fileSize returns the size of the file SaveSum writes for the shard with
// the label table table.
func (f *FrozenNet) fileSize(table *fileLabels) int {
	t := &f.nodes
	size := FrozenHeaderLen + 2 + 5*4 // header, kind counts, node and edge counts
	size += 4 + 12*len(table.keys)    // label table: count, then str rel and u64 weight
	for _, k := range table.keys {
		size += len(k.rel)
	}
	size += 9*len(t.recs) + len(t.arena) // nodes: u8 kind, str name, str domain
	for _, r := range t.recs {
		size += len(t.domains[r.dom])
	}
	size += 2*4*len(t.recs) + frozenEdgeRecSize*(len(f.out.edges)+len(f.in.edges)) // degrees and records
	return size + FrozenTrailerLen
}

// LoadFrozen reads a snapshot written by (*FrozenNet).Save and returns the
// shard, ready to assemble into a ShardSet (NewShardSet) and serve. Every
// structural invariant is validated — node and edge kinds, degrees, kind
// order, peers, pad bytes, label indexes, the edge counts, the checksum —
// so corrupt or truncated input yields an error, never a panic later.
func LoadFrozen(r io.Reader) (*FrozenNet, error) {
	head := fzio.Reader{R: r}
	var magic [4]byte
	head.Bytes(magic[:])
	if head.Err == nil && magic != frozenMagic {
		head.Err = fmt.Errorf("bad magic %q", magic[:])
	}
	version := head.U16()
	if head.Err == nil && version != frozenVersion {
		head.Err = fmt.Errorf("unsupported snapshot version %d", version)
	}
	if head.Err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", head.Err)
	}

	crc := crc32.NewIEEE()
	fr := fzio.Reader{R: io.TeeReader(r, crc)}
	if nk := fr.U8(); fr.Err == nil && nk != uint8(numKinds) {
		fr.Err = fmt.Errorf("snapshot has %d node kinds, this build has %d", nk, numKinds)
	}
	if nek := fr.U8(); fr.Err == nil && nek != uint8(numEdgeKinds) {
		fr.Err = fmt.Errorf("snapshot has %d edge kinds, this build has %d", nek, numEdgeKinds)
	}
	nodeCount := fr.Count("node")
	base := fr.Count("base")
	totalNodes := fr.Count("total node")
	outEdgeCount := fr.Count("out edge")
	inEdgeCount := fr.Count("in edge")
	if fr.Err == nil && base+nodeCount > totalNodes {
		fr.Err = fmt.Errorf("shard [%d,%d) exceeds declared total %d", base, base+nodeCount, totalNodes)
	}

	// A table larger than the label space is rejected before any record
	// is decoded, so a file can never need more labels than a process has.
	labelCount := fr.Count("label")
	if fr.Err == nil && labelCount > maxLabels {
		fr.Err = fmt.Errorf("label table of %d pairs exceeds the %d-label space", labelCount, maxLabels)
	}
	var keys []labelKey
	if fr.Err == nil {
		keys = make([]labelKey, 0, fzio.Prealloc(labelCount))
		for i := 0; i < labelCount && fr.Err == nil; i++ {
			keys = append(keys, labelKey{rel: fr.Str(), bits: fr.U64()})
		}
	}

	f := &FrozenNet{total: totalNodes}
	if fr.Err == nil {
		f.nodes = readNodes(&fr, NodeID(base), nodeCount)
	}
	if fr.Err == nil {
		f.out = readCSR(&fr, "out", nodeCount, outEdgeCount, totalNodes, labelCount)
	}
	if fr.Err == nil {
		f.in = readCSR(&fr, "in", nodeCount, inEdgeCount, totalNodes, labelCount)
	}
	if fr.Err == nil {
		// The logical edge counter is not trusted beyond the header/degree
		// agreement already enforced by readCSR; the shard's logical count
		// is its out-half-edge count, so shard counts sum to the net's.
		f.edges = len(f.out.edges)
	}
	if fr.Err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", fr.Err)
	}
	sum := crc.Sum32()
	tail := fzio.Reader{R: r}
	if stored := tail.U32(); tail.Err != nil {
		return nil, fmt.Errorf("core: load frozen: checksum: %w", tail.Err)
	} else if stored != sum {
		return nil, fmt.Errorf("core: load frozen: checksum mismatch (stored %08x, computed %08x)", stored, sum)
	}
	// Only a file that verified interns labels: a corrupt one interns
	// nothing. Each edge's file index then becomes the pair's Label.
	ids, err := internLabels(keys)
	if err != nil {
		return nil, fmt.Errorf("core: load frozen: %w", err)
	}
	for _, c := range [2]*csr{&f.out, &f.in} {
		for i := range c.edges {
			c.edges[i].Label = ids[c.edges[i].Label]
		}
	}
	f.checksum = sum
	return f, nil
}
