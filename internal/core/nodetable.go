package core

import (
	"hash/maphash"
	"math"
	"strings"
	"unsafe"
)

// nodeTable is one shard's nodes with their name and kind indexes. Every
// array in it but the small domain table holds no pointers, so the garbage
// collector never scans them, and a table costs the same few allocations
// whatever its node count: there is no string, map or slice per node or
// per name.
type nodeTable struct {
	base     NodeID // global ID of recs[0]; node IDs are base+index
	nodeList        // the shard's nodes, indexed by id-base; the arena is sized exactly

	// The name index has one entry per distinct name, numbered in order of
	// first appearance. Entry e lists its nodes in post[first[e]:first[e+1]]
	// in ascending ID order, and its name is the name of its first node.
	// slots is an open-addressing table at most half full, probed linearly
	// from nameHash: 0 is an empty slot and e+1 points at entry e.
	slots []uint32
	first []uint32
	post  []NodeID

	// kinds lists every node grouped by kind, ascending IDs within a kind:
	// kind k's nodes are kinds[kindOff[k]:kindOff[k+1]].
	kinds   []NodeID
	kindOff [numKinds + 1]uint32
}

// nodeList is nodes in ID order, laid out the same in a live net and in a
// frozen shard: 12-byte records, their names back to back in one byte
// arena, and the distinct domains. A name read from it is an unsafe.String
// over the arena, so whoever keeps one keeps the whole arena alive. No
// name's bytes ever change (a live net only appends to its arena), so such
// a view stays valid for as long as it is held.
type nodeList struct {
	recs    []nodeRec
	arena   []byte
	domains []string // in order of first use
}

// nodeRec is one node in 12 bytes with no pointers. The node's name is
// arena[name:e], where e is the next record's name offset, or the arena's
// end for the last record.
type nodeRec struct {
	name uint32 // arena offset of the name
	dom  uint32 // index into the domain table
	kind uint8
}

// maxArena bounds a node list's name bytes: arena offsets are uint32.
const maxArena = math.MaxUint32

// nameSeed keys every name index. It is one seed for the whole process, so
// a ShardSet hashes a name once and probes each shard with that hash.
var nameSeed = maphash.MakeSeed()

func nameHash(name string) uint64 { return maphash.String(nameSeed, name) }

// bytesView returns b's bytes as a string without copying. The caller must
// not keep the string, and b must not change while it is in use.
func bytesView(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// tableBuilder collects nodes in ID order: a live net's, or a shard's
// straight from a snapshot file for newNodeTable to index.
type tableBuilder struct {
	nodeList
	domIdx map[string]uint32
}

// addNode appends a node whose name is already at the arena's tail,
// starting at offset off. Each distinct domain is copied into the domain
// table once, so domain may be a view of a reused buffer.
func (b *tableBuilder) addNode(kind NodeKind, off int, domain string) {
	dom, ok := b.domIdx[domain]
	if !ok {
		if b.domIdx == nil {
			b.domIdx = make(map[string]uint32)
		}
		dom = uint32(len(b.domains))
		domain = strings.Clone(domain)
		b.domains = append(b.domains, domain)
		b.domIdx[domain] = dom
	}
	b.recs = append(b.recs, nodeRec{name: uint32(off), dom: dom, kind: uint8(kind)})
}

// copyRange copies nodes [lo, hi) into a list of their own: the records
// with their name offsets rebased, their names in an arena of exactly
// their size, and only the domains they use, in order of first use.
func (l *nodeList) copyRange(lo, hi int) nodeList {
	start, end := l.nameOff(lo), l.nameOff(hi)
	c := nodeList{recs: make([]nodeRec, hi-lo), arena: make([]byte, end-start)}
	copy(c.arena, l.arena[start:end])
	dom := make([]uint32, len(l.domains)) // 1 + the copy's index of a domain, 0 until used
	for i, r := range l.recs[lo:hi] {
		if dom[r.dom] == 0 {
			c.domains = append(c.domains, l.domains[r.dom])
			dom[r.dom] = uint32(len(c.domains))
		}
		c.recs[i] = nodeRec{name: r.name - start, dom: dom[r.dom] - 1, kind: r.kind}
	}
	return c
}

// newNodeTable indexes the nodes of the shard whose first global ID is
// base. It is the only constructor of a node table: Freeze and LoadFrozen
// both call it, so a loaded shard's name and kind indexes are derived from
// its nodes, as a frozen shard's are.
func newNodeTable(base NodeID, nodes nodeList) nodeTable {
	t := nodeTable{base: base, nodeList: nodes}
	n := len(t.recs)

	// Group the nodes by name. Until the entries are counted, a slot holds
	// the index+1 of its name's first node, and ent[i] is node i's entry.
	ent := make([]uint32, n)
	slots := make([]uint32, tableSize(n))
	mask := uint64(len(slots) - 1)
	entries := uint32(0)
	for i := 0; i < n; i++ {
		name := t.name(i)
		for s := nameHash(name) & mask; ; s = (s + 1) & mask {
			j := slots[s]
			if j == 0 {
				slots[s] = uint32(i) + 1
				ent[i] = entries
				entries++
				break
			}
			if t.name(int(j-1)) == name {
				ent[i] = ent[j-1]
				break
			}
		}
	}

	// Postings: a counting sort of the nodes by entry. Filling each entry
	// from its end while walking the nodes backwards leaves its IDs
	// ascending and first[e] at its start.
	t.first = make([]uint32, entries+1)
	for _, e := range ent {
		t.first[e]++
	}
	for e := uint32(1); e < entries; e++ {
		t.first[e] += t.first[e-1]
	}
	t.post = make([]NodeID, n)
	for i := n - 1; i >= 0; i-- {
		e := ent[i]
		t.first[e]--
		t.post[t.first[e]] = base + NodeID(i)
	}
	t.first[entries] = uint32(n)

	// Point the slots at entries, in a table sized for the entry count.
	if len(slots) == tableSize(int(entries)) {
		for s, j := range slots {
			if j != 0 {
				slots[s] = ent[j-1] + 1
			}
		}
		t.slots = slots
	} else {
		t.slots = make([]uint32, tableSize(int(entries)))
		mask = uint64(len(t.slots) - 1)
		for e := uint32(0); e < entries; e++ {
			s := nameHash(t.entryName(e)) & mask
			for t.slots[s] != 0 {
				s = (s + 1) & mask
			}
			t.slots[s] = e + 1
		}
	}

	// The kind index, the same counting sort by kind.
	for _, r := range t.recs {
		t.kindOff[r.kind+1]++
	}
	for k := 1; k <= int(numKinds); k++ {
		t.kindOff[k] += t.kindOff[k-1]
	}
	t.kinds = make([]NodeID, n)
	next := t.kindOff
	for i, r := range t.recs {
		t.kinds[next[r.kind]] = base + NodeID(i)
		next[r.kind]++
	}
	return t
}

// tableSize is the slot count for a name index of the given number of
// entries: the smallest power of two at least twice that, so the table is
// at most half full and a probe always reaches an empty slot.
func tableSize(entries int) int {
	size := 1
	for size < 2*entries {
		size <<= 1
	}
	return size
}

// name returns the name of the node at index i, a view of the arena.
func (l *nodeList) name(i int) string {
	start, end := l.recs[i].name, l.nameOff(i+1)
	if start == end {
		return "" // never index the arena for an empty name: it may end here
	}
	return unsafe.String(&l.arena[start], end-start)
}

// nameOff returns the arena offset where the name of the node at index i
// starts, or the arena's end for i = len(recs): node i's name ends where
// node i+1's starts.
func (l *nodeList) nameOff(i int) uint32 {
	if i < len(l.recs) {
		return l.recs[i].name
	}
	return uint32(len(l.arena))
}

// node returns the node at index i, whose ID is i.
func (l *nodeList) node(i int) Node {
	r := l.recs[i]
	return Node{ID: NodeID(i), Kind: NodeKind(r.kind), Name: l.name(i), Domain: l.domains[r.dom]}
}

// node returns the node at index i.
func (t *nodeTable) node(i int) Node {
	nd := t.nodeList.node(i)
	nd.ID += t.base
	return nd
}

// kindOf returns the kind of a node the table holds.
func (t *nodeTable) kindOf(id NodeID) NodeKind { return NodeKind(t.recs[id-t.base].kind) }

// entryName returns the name of name-index entry e.
func (t *nodeTable) entryName(e uint32) string {
	return t.name(int(t.post[t.first[e]] - t.base))
}

// find returns the nodes named name, in ascending ID order, as a read-only
// view of the postings; nil when no node has the name. h is nameHash(name).
func (t *nodeTable) find(h uint64, name string) []NodeID {
	mask := uint64(len(t.slots) - 1)
	for s := h & mask; ; s = (s + 1) & mask {
		e := t.slots[s]
		if e == 0 {
			return nil
		}
		if t.entryName(e-1) == name {
			return t.post[t.first[e-1]:t.first[e]:t.first[e]]
		}
	}
}

// firstOfKind returns the first node named name in one layer, or
// InvalidNode. h is nameHash(name).
func (t *nodeTable) firstOfKind(h uint64, name string, kind NodeKind) NodeID {
	for _, id := range t.find(h, name) {
		if t.kindOf(id) == kind {
			return id
		}
	}
	return InvalidNode
}

// ofKind returns the nodes of one layer in ascending ID order, as a
// read-only view; nil for an empty layer or an invalid kind.
func (t *nodeTable) ofKind(kind NodeKind) []NodeID {
	if kind < 0 || kind >= numKinds || t.kindOff[kind] == t.kindOff[kind+1] {
		return nil
	}
	a, b := t.kindOff[kind], t.kindOff[kind+1]
	return t.kinds[a:b:b]
}
