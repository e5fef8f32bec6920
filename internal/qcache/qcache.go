// Package qcache is a sharded, generation-stamped query-result cache for
// the serving path. AliCoCo's workloads (semantic search, cognitive
// recommendation) are read-heavy with highly skewed, repetitive query
// distributions — exactly the shape a result cache exploits — and serving
// runs on immutable frozen snapshots, which makes invalidation trivial:
// every entry is stamped with the snapshot's publish generation (plus its
// checksum), and lookups carry the stamp of the snapshot they are about to
// read. Publishing a new snapshot (a reload that swaps content, or an
// inference refreeze) bumps the generation, so every entry cached
// against the old snapshot simply stops matching — the whole cache is
// invalidated for free, with no epoch scans and no flush pause. Stale
// entries are dropped lazily when a lookup lands on them, or pushed out by
// normal LRU pressure.
//
// Values are bytes, and an entry is one heap object: a fixed-size slot in
// its shard's slab (hash, stamp, key length and int32 LRU links) plus one
// blob holding the value and then the key. The value comes first so it
// starts where the allocation does, aligned: copying out a value of more
// than 2 KB from an address that is not 8-byte aligned takes the runtime's
// byte-at-a-time path, several times slower. Lookups go through an
// open-addressing int32 index. The slab and the index grow by doubling as
// entries arrive, up to the shard's capacity.
//
// Once a shard is an eighth full, a key is cached on its second sighting.
// Much of the traffic a serving cache sees never repeats, and storing
// such a one-off answer costs a blob and, in a full cache, evicts an entry
// that might have hit. So each shard keeps a doorkeeper (the admission
// filter of TinyLFU; "cache on second hit" in CDNs): a direct-mapped
// []uint16 of 16-bit key fingerprints, one slot per two entries of the
// shard's capacity, so 1 byte per entry. A Put whose fingerprint is not in
// its slot writes it there and stores nothing; a later Put that finds it
// is stored. An overwrite of a resident key, and the Put after a Get
// dropped the key's stale-stamped entry, are admitted at once. Direct
// mapping ages fingerprints out by overwriting them, so the table needs no
// reset. Below an eighth of its capacity a shard stores every Put: there a
// one-off evicts nothing and one-offs can hold at most that eighth, while
// a key requested twice still hits on its second request, which is most of
// what the cache earns when keys repeat only about twice.
//
// Blobs are written once: a stored Put copies the key and the value into
// a fresh blob, and an overwrite or an eviction installs or drops a whole
// blob, never writes into one. So the value Get returns stays valid and
// unchanged after the shard lock is released, even while other goroutines
// overwrite or evict its key; callers must not modify it.
//
// Concurrency: keys are hashed with xxhash64 and distributed across
// power-of-two shards; each shard is an independent mutex + slab, so
// concurrent requests contend only when they hash to the same shard. Get
// and GetString are allocation-free; Put and PutString allocate the one
// blob when they store, and nothing when they decline the key or the
// cache has no capacity.
package qcache

import (
	"runtime"
	"sync"
)

// Stamp identifies the serving snapshot an entry was computed from: the
// facade's monotone publish generation plus the snapshot file's CRC-32
// (zero for in-process freezes). An entry is served only when its stamp
// equals the lookup's stamp, so a republished snapshot can never satisfy a
// lookup with results from a predecessor.
type Stamp struct {
	Gen uint64
	Sum uint32
}

// Stats is a point-in-time counter snapshot of one cache.
type Stats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
	Declined  uint64 `json:"declined"` // first offers the doorkeeper kept out
	Entries   int    `json:"entries"`
	Capacity  int    `json:"capacity"`
}

// slot is one cached entry in its shard's slab. The stamp is stored as
// two fields (a Stamp's trailing padding would cost 8 bytes), and blob —
// the value followed by the key — is the slot's only pointer.
type slot struct {
	hash       uint64
	gen        uint64
	sum        uint32
	keyLen     uint32
	prev, next int32 // LRU links (slab indexes, nilSlot at the ends); next also chains the free list
	blob       []byte
}

// openShare sets the doorkeeper's threshold: a shard holding fewer than
// cap/openShare entries stores every Put without asking it.
const openShare = 8

// nilSlot ends an LRU list or the free list.
const nilSlot = -1

// minSlab is the slab size a shard starts at on its first Put.
const minSlab = 8

// shard is an independent slice of the cache: its own lock, slab, index,
// LRU list and doorkeeper. One entry per hash; a colliding Put replaces the
// resident.
type shard struct {
	mu    sync.Mutex
	slab  []slot  // len is the high-water mark; freed slots chain through free
	index []int32 // open addressing, linear probing: slab index + 1, 0 = empty
	door  []uint16
	free  int32
	head  int32 // most recently used
	tail  int32
	n     int // live entries
	cap   int

	hits      uint64
	misses    uint64
	evictions uint64
	declined  uint64
}

// Cache is a sharded, bounded, generation-stamped result cache. The zero
// value is not usable; construct with New. A nil *Cache is valid and
// behaves as an always-miss cache, so callers can leave caching unwired
// without branching.
type Cache struct {
	shards []shard
	mask   uint64
}

// shardCount picks a power-of-two shard count scaled to the host's
// parallelism (capped so tiny caches are not shredded into useless slivers).
func shardCount() int {
	n := runtime.GOMAXPROCS(0)
	c := 1
	for c < n && c < 64 {
		c <<= 1
	}
	return c
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	c := 1
	for c < n {
		c <<= 1
	}
	return c
}

// New returns a cache holding about capacity entries, rounded up to a power
// of two and split evenly across the shards. capacity <= 0 yields a cache
// that stores nothing (every lookup misses), which is how caching is
// disabled without changing call sites.
func New(capacity int) *Cache {
	return newWithShards(capacity, shardCount())
}

// newWithShards is New with an explicit shard count (tests pin it so LRU
// order is deterministic regardless of GOMAXPROCS).
func newWithShards(capacity, shards int) *Cache {
	shards = ceilPow2(shards)
	c := &Cache{shards: make([]shard, shards), mask: uint64(shards - 1)}
	for i := range c.shards {
		s := &c.shards[i]
		s.free, s.head, s.tail = nilSlot, nilSlot, nilSlot
	}
	c.setCapacity(capacity)
	return c
}

// setCapacity distributes capacity across shards and evicts overflow. A
// shard whose slab outgrew the new capacity is compacted to its survivors.
func (c *Cache) setCapacity(capacity int) {
	per := 0
	if capacity > 0 {
		per = ceilPow2(capacity) / len(c.shards)
		if per < 1 {
			per = 1
		}
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		if s.cap != per {
			s.door = nil // the next sighting makes it at the new size
		}
		s.cap = per
		for s.n > s.cap {
			s.evictTail()
		}
		if len(s.slab) > s.cap {
			s.relayout(s.n)
		}
		s.mu.Unlock()
	}
}

// Resize changes the cache's capacity in place, evicting LRU overflow.
// n <= 0 empties the cache and disables storage.
func (c *Cache) Resize(n int) {
	if c == nil {
		return
	}
	c.setCapacity(n)
}

// Get returns the value cached for key under stamp. An entry stamped by a
// different snapshot generation is a miss and is dropped on the spot. The
// value is a view of the entry's blob: it never changes, and the caller
// must not modify it.
func (c *Cache) Get(stamp Stamp, key []byte) ([]byte, bool) {
	return get(c, stamp, key)
}

// GetString is Get keyed by a string, hashing and comparing without
// converting (or allocating) the key.
func (c *Cache) GetString(stamp Stamp, key string) ([]byte, bool) {
	return get(c, stamp, key)
}

// Put offers val for key under stamp. Once the key's shard is an eighth
// full, it stores the key only from its second offer on (see the package
// doc); the first offer records the key's fingerprint and allocates
// nothing once the shard's doorkeeper exists. A stored Put copies key and
// value into one fresh blob, so the caller may reuse its buffers at once,
// and replaces a hash-colliding resident entry, keeping one entry per
// hash. A cache without capacity returns before allocating anything.
func (c *Cache) Put(stamp Stamp, key []byte, val []byte) {
	put(c, stamp, key, val)
}

// PutString is Put keyed by a string.
func (c *Cache) PutString(stamp Stamp, key string, val []byte) {
	put(c, stamp, key, val)
}

func get[K ~string | ~[]byte](c *Cache, stamp Stamp, key K) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	h := Hash(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	pos := s.find(h)
	if pos < 0 {
		s.misses++
		return nil, false
	}
	i := s.index[pos] - 1
	e := &s.slab[i]
	val, stored := e.split()
	if string(stored) != string(key) { // compared in place, never converted
		s.misses++
		return nil, false
	}
	if e.gen != stamp.Gen || e.sum != stamp.Sum {
		// Lazy invalidation: the serving snapshot moved on, so the slot is
		// dead weight — free it rather than waiting for LRU pressure. The
		// key was cached before, so its next Put is admitted at once: past
		// the open eighth, through its fingerprint.
		s.remove(pos)
		if s.n >= s.cap/openShare {
			seen, fp := s.sighting(h)
			*seen = fp
		}
		s.misses++
		return nil, false
	}
	s.moveToFront(i)
	s.hits++
	return val, true
}

func put[K ~string | ~[]byte](c *Cache, stamp Stamp, key K, val []byte) {
	if c == nil {
		return
	}
	h := Hash(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap <= 0 {
		return
	}
	if s.find(h) < 0 && s.n >= s.cap/openShare && !s.admit(h) {
		return // a first sighting: only its fingerprint is kept
	}
	store(s, h, stamp, key, val)
}

// store copies val and key into one fresh blob and makes it hash h's
// entry: the same hash's resident entry is replaced, and otherwise the
// least recently used entry makes room when the shard is full. The caller
// holds s's lock and the shard has capacity; the doorkeeper is not asked.
func store[K ~string | ~[]byte](s *shard, h uint64, stamp Stamp, key K, val []byte) {
	blob := make([]byte, len(val)+len(key))
	copy(blob, val)
	copy(blob[len(val):], key)
	if pos := s.find(h); pos >= 0 {
		// Same hash: the same key or a colliding one — either way the
		// newest result wins the slot, with a blob of its own.
		i := s.index[pos] - 1
		s.slab[i].set(h, stamp, len(key), blob)
		s.moveToFront(i)
		return
	}
	if s.n >= s.cap {
		s.evictTail()
	}
	i := s.alloc()
	s.slab[i].set(h, stamp, len(key), blob)
	s.pushFront(i)
	s.insert(h, i)
	s.n++
}

// Stats sums the per-shard counters.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Declined += s.declined
		st.Entries += s.n
		st.Capacity += s.cap
		s.mu.Unlock()
	}
	return st
}

// Len returns the number of live entries.
func (c *Cache) Len() int {
	if c == nil {
		return 0
	}
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	return n
}

// split returns the entry's value, capped so an append cannot reach the
// key, and its key.
func (e *slot) split() (val, key []byte) {
	n := len(e.blob) - int(e.keyLen)
	return e.blob[:n:n], e.blob[n:]
}

func (e *slot) set(h uint64, stamp Stamp, keyLen int, blob []byte) {
	e.hash = h
	e.gen, e.sum = stamp.Gen, stamp.Sum
	e.keyLen = uint32(keyLen)
	e.blob = blob
}

// --- slab, index, LRU list and doorkeeper (callers hold the shard lock) --

// alloc hands out a free slot, growing the slab by doubling (up to the
// shard's capacity) when none is left.
func (s *shard) alloc() int32 {
	if i := s.free; i != nilSlot {
		s.free = s.slab[i].next
		return i
	}
	if len(s.slab) == cap(s.slab) {
		s.relayout(min(max(2*cap(s.slab), minSlab), s.cap))
	}
	s.slab = s.slab[:len(s.slab)+1]
	return int32(len(s.slab) - 1)
}

// relayout moves the live entries, most recently used first, into a fresh
// slab with room for size entries, and rebuilds the index to match.
func (s *shard) relayout(size int) {
	var slab []slot
	if size > 0 {
		slab = make([]slot, s.n, size)
	}
	j := int32(0)
	for i := s.head; i != nilSlot; i = s.slab[i].next {
		slab[j] = s.slab[i]
		slab[j].prev, slab[j].next = j-1, j+1
		j++
	}
	s.slab, s.free = slab, nilSlot
	s.head, s.tail = nilSlot, nilSlot
	if s.n > 0 {
		s.head, s.tail = 0, int32(s.n-1)
		s.slab[s.tail].next = nilSlot
	}
	s.index = nil
	if size > 0 {
		// At most half full, so probe runs stay short.
		s.index = make([]int32, 2*ceilPow2(size))
	}
	for i := range s.slab {
		s.insert(s.slab[i].hash, int32(i))
	}
}

// home is hash h's first probe position in an index of mask+1 entries. It
// takes the high half of the hash: the low bits picked the shard, so they
// are the same for every hash a shard holds.
func home(h uint64, mask int) int { return int(h>>32) & mask }

// find returns the index position holding hash h, or -1.
func (s *shard) find(h uint64) int {
	if len(s.index) == 0 {
		return -1
	}
	mask := len(s.index) - 1
	for pos := home(h, mask); ; pos = (pos + 1) & mask {
		v := s.index[pos]
		if v == 0 {
			return -1
		}
		if s.slab[v-1].hash == h {
			return pos
		}
	}
}

// insert records slot i under hash h, which the index does not hold yet.
func (s *shard) insert(h uint64, i int32) {
	mask := len(s.index) - 1
	pos := home(h, mask)
	for s.index[pos] != 0 {
		pos = (pos + 1) & mask
	}
	s.index[pos] = i + 1
}

// remove deletes the entry at index position pos: it leaves the LRU list,
// its slot (and blob) is freed, and the probe run behind it shifts back so
// no tombstone is left.
func (s *shard) remove(pos int) {
	i := s.index[pos] - 1
	s.unlink(i)
	s.slab[i] = slot{next: s.free}
	s.free = i
	s.n--
	mask := len(s.index) - 1
	for next := (pos + 1) & mask; s.index[next] != 0; next = (next + 1) & mask {
		// The entry at next may fill the hole at pos only if its home is
		// not cyclically inside (pos, next].
		if (next-home(s.slab[s.index[next]-1].hash, mask))&mask >= (next-pos)&mask {
			s.index[pos] = s.index[next]
			pos = next
		}
	}
	s.index[pos] = 0
}

func (s *shard) pushFront(i int32) {
	e := &s.slab[i]
	e.prev = nilSlot
	e.next = s.head
	if s.head != nilSlot {
		s.slab[s.head].prev = i
	}
	s.head = i
	if s.tail == nilSlot {
		s.tail = i
	}
}

func (s *shard) unlink(i int32) {
	e := &s.slab[i]
	if e.prev != nilSlot {
		s.slab[e.prev].next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nilSlot {
		s.slab[e.next].prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nilSlot, nilSlot
}

func (s *shard) moveToFront(i int32) {
	if s.head == i {
		return
	}
	s.unlink(i)
	s.pushFront(i)
}

// evictTail drops the least recently used entry (counted as an eviction,
// including capacity-shrink evictions from Resize).
func (s *shard) evictTail() {
	if s.tail == nilSlot {
		return
	}
	s.remove(s.find(s.slab[s.tail].hash))
	s.evictions++
}

// admit is the doorkeeper's decision on an offer of hash h, which the
// shard does not hold: true if h's fingerprint is already in its slot,
// else the fingerprint is written there and the offer is declined.
func (s *shard) admit(h uint64) bool {
	seen, fp := s.sighting(h)
	if *seen == fp {
		return true
	}
	*seen = fp
	s.declined++
	return false
}

// sighting returns hash h's doorkeeper slot and fingerprint, making the
// table on the shard's first need: one uint16 per two entries of
// capacity. The slot comes from the hash's high half, like home, and the
// fingerprint from bits 16–31, forced non-zero so an empty slot matches
// nothing; the low bits picked the shard, so neither uses them.
func (s *shard) sighting(h uint64) (*uint16, uint16) {
	if s.door == nil {
		s.door = make([]uint16, max(s.cap/2, 1))
	}
	return &s.door[home(h, len(s.door)-1)], max(uint16(h>>16), 1)
}
