package qcache

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"alicoco/internal/raceflag"
)

// TestXXH64Vectors pins the hash to the published XXH64 (seed 0) reference
// values, so the implementation cannot silently drift from the spec.
func TestXXH64Vectors(t *testing.T) {
	vectors := []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"a", 0xd24ec4f1a98c6e5b},
		{"as", 0x1c330fb2d66be179},
		{"asd", 0x631c37ce72a97393},
		{"asdf", 0x415872f599cea71e},
		{
			// Exactly 63 characters, exercising every tail code path.
			"Call me Ishmael. Some years ago--never mind how long precisely-",
			0x02a2e85470d6fd96,
		},
	}
	for _, v := range vectors {
		if got := Hash(v.in); got != v.want {
			t.Errorf("Hash(%q) = %#x, want %#x", v.in, got, v.want)
		}
		if got := Hash([]byte(v.in)); got != v.want {
			t.Errorf("Hash([]byte(%q)) = %#x, want %#x", v.in, got, v.want)
		}
	}
}

// storeKey stores val for key as an admitted offer is stored, without
// asking the doorkeeper: the slab, index and LRU tests fill caches
// through it.
func storeKey[K ~string | ~[]byte](c *Cache, stamp Stamp, key K, val []byte) {
	h := Hash(key)
	s := &c.shards[h&c.mask]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cap > 0 {
		store(s, h, stamp, key, val)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	c := newWithShards(64, 4)
	s1 := Stamp{Gen: 1, Sum: 0xabcd}
	c.Put(s1, []byte("outdoor barbecue"), []byte("v1"))
	if v, ok := c.Get(s1, []byte("outdoor barbecue")); !ok || string(v) != "v1" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if v, ok := c.GetString(s1, "outdoor barbecue"); !ok || string(v) != "v1" {
		t.Fatalf("GetString = %q, %v", v, ok)
	}
	if _, ok := c.Get(s1, []byte("winter coat")); ok {
		t.Fatal("unexpected hit for absent key")
	}
	// Overwrite: same key, newest value wins.
	c.Put(s1, []byte("outdoor barbecue"), []byte("v2"))
	if v, _ := c.Get(s1, []byte("outdoor barbecue")); string(v) != "v2" {
		t.Fatalf("overwrite lost: %q", v)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

// TestStampMismatchMissesAndDrops: an entry from an old generation must
// never be served, and looking it up evicts it on the spot.
func TestStampMismatchMissesAndDrops(t *testing.T) {
	c := newWithShards(64, 1)
	old := Stamp{Gen: 1, Sum: 7}
	c.Put(old, []byte("q"), []byte("stale"))
	for _, stamp := range []Stamp{{Gen: 2, Sum: 7}, {Gen: 1, Sum: 8}} {
		c.Put(old, []byte("q"), []byte("stale"))
		if _, ok := c.Get(stamp, []byte("q")); ok {
			t.Fatalf("stale hit under stamp %+v", stamp)
		}
		if c.Len() != 0 {
			t.Fatalf("stale entry not dropped under stamp %+v", stamp)
		}
	}
	// Same for the string path.
	c.Put(old, []byte("q"), []byte("stale"))
	if _, ok := c.GetString(Stamp{Gen: 9}, "q"); ok {
		t.Fatal("stale GetString hit")
	}
	if c.Len() != 0 {
		t.Fatal("stale entry not dropped by GetString")
	}
}

// TestLRUEviction fills a single-shard cache past capacity and checks that
// the least recently used keys fall out, in order.
func TestLRUEviction(t *testing.T) {
	c := newWithShards(4, 1) // capacity 4, one shard: deterministic order
	s := Stamp{Gen: 1}
	for i := 0; i < 4; i++ {
		storeKey(c, s, []byte{byte(i)}, []byte{byte(i)})
	}
	// Touch 0 so 1 becomes the LRU.
	if _, ok := c.Get(s, []byte{0}); !ok {
		t.Fatal("warm entry missing")
	}
	storeKey(c, s, []byte{9}, []byte{9}) // evicts 1
	if _, ok := c.Get(s, []byte{1}); ok {
		t.Fatal("LRU entry 1 should have been evicted")
	}
	for _, k := range []byte{0, 2, 3, 9} {
		if _, ok := c.Get(s, []byte{k}); !ok {
			t.Fatalf("entry %d unexpectedly evicted", k)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 4 || st.Capacity != 4 {
		t.Fatalf("stats after eviction: %+v", st)
	}
}

func TestResize(t *testing.T) {
	c := newWithShards(16, 1)
	s := Stamp{Gen: 1}
	for i := 0; i < 16; i++ {
		storeKey(c, s, []byte{byte(i)}, []byte{byte(i)})
	}
	c.Resize(4)
	if got := c.Len(); got != 4 {
		t.Fatalf("Len after shrink = %d, want 4", got)
	}
	// The survivors are the 4 most recently used.
	for _, k := range []byte{12, 13, 14, 15} {
		if _, ok := c.Get(s, []byte{k}); !ok {
			t.Fatalf("MRU entry %d evicted by shrink", k)
		}
	}
	c.Resize(0)
	if c.Len() != 0 {
		t.Fatal("Resize(0) should empty the cache")
	}
	c.Put(s, []byte("x"), []byte{1})
	if c.Len() != 0 {
		t.Fatal("Put on a zero-capacity cache stored an entry")
	}
	if _, ok := c.Get(s, []byte("x")); ok {
		t.Fatal("zero-capacity cache returned a hit")
	}
}

func TestZeroCapacityNew(t *testing.T) {
	c := New(0)
	c.Put(Stamp{Gen: 1}, []byte("k"), []byte("v"))
	if _, ok := c.Get(Stamp{Gen: 1}, []byte("k")); ok {
		t.Fatal("New(0) cache must always miss")
	}
}

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache
	c.Put(Stamp{Gen: 1}, []byte("k"), []byte("v"))
	c.PutString(Stamp{Gen: 1}, "k", []byte("v"))
	if _, ok := c.Get(Stamp{Gen: 1}, []byte("k")); ok {
		t.Fatal("nil cache hit")
	}
	if _, ok := c.GetString(Stamp{Gen: 1}, "k"); ok {
		t.Fatal("nil cache string hit")
	}
	c.Resize(10)
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats: %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache Len")
	}
}

// TestPutCopiesKey: mutating the caller's key buffer after Put must not
// corrupt the stored entry (engines build keys in pooled scratch).
func TestPutCopiesKey(t *testing.T) {
	c := newWithShards(8, 1)
	s := Stamp{Gen: 1}
	key := []byte("abc")
	c.Put(s, key, []byte("v"))
	key[0] = 'z'
	if _, ok := c.Get(s, []byte("abc")); !ok {
		t.Fatal("entry lost after caller mutated the key buffer")
	}
	if _, ok := c.Get(s, key); ok {
		t.Fatal("mutated key should miss")
	}
}

// TestGetStringMatchesGet: the two lookup paths agree on hashing and
// comparison for random keys.
func TestGetStringMatchesGet(t *testing.T) {
	c := newWithShards(1024, 4)
	s := Stamp{Gen: 3, Sum: 1}
	rng := rand.New(rand.NewSource(11))
	keys := make([]string, 200)
	for i := range keys {
		b := make([]byte, rng.Intn(40))
		rng.Read(b)
		keys[i] = string(b)
		c.PutString(s, keys[i], []byte(fmt.Sprint(i))) // a first sighting may be declined
		c.PutString(s, keys[i], []byte(fmt.Sprint(i)))
	}
	for i, k := range keys {
		v1, ok1 := c.Get(s, []byte(k))
		v2, ok2 := c.GetString(s, k)
		if !ok1 || !ok2 || string(v1) != string(v2) {
			t.Fatalf("key %d: Get=(%q,%v) GetString=(%q,%v)", i, v1, ok1, v2, ok2)
		}
	}
	if got := Hash("hello"); got != Hash([]byte("hello")) {
		t.Fatal("string and byte hashing disagree")
	}
}

// TestConcurrentHammer exercises Get/Put/Resize/Stats from many goroutines;
// -race proves shard locking is sound.
func TestConcurrentHammer(t *testing.T) {
	c := New(256)
	stamps := []Stamp{{Gen: 1}, {Gen: 2}, {Gen: 3, Sum: 5}}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			key := make([]byte, 0, 16)
			for i := 0; i < 2000; i++ {
				key = append(key[:0], fmt.Sprintf("q-%d", rng.Intn(500))...)
				stamp := stamps[rng.Intn(len(stamps))]
				if v, ok := c.Get(stamp, key); ok {
					// A hit must carry the value stored under this stamp.
					want := fmt.Sprintf("%s@%d", key, stamp.Gen)
					if string(v) != want {
						t.Errorf("hit %q under %+v returned %q", key, stamp, v)
						return
					}
				} else {
					c.Put(stamp, key, []byte(fmt.Sprintf("%s@%d", key, stamp.Gen)))
				}
				if i%500 == 0 {
					c.Stats()
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		for i := 0; i < 20; i++ {
			c.Resize(64 + i*16)
		}
		close(done)
	}()
	wg.Wait()
	<-done
}

// TestGetZeroAllocs is the CI guard for the hit path: a cache hit performs
// zero allocations (the value is a view of the entry's blob, keys are
// hashed and compared in place).
func TestGetZeroAllocs(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	c := New(64)
	stamp := Stamp{Gen: 1, Sum: 2}
	c.Put(stamp, []byte("outdoor barbecue"), []byte{42})
	key := []byte("outdoor barbecue")
	allocs := testing.AllocsPerRun(200, func() {
		v, ok := c.Get(stamp, key)
		if !ok || len(v) != 1 || v[0] != 42 {
			t.Fatal("hit failed")
		}
		v, ok = c.GetString(stamp, "outdoor barbecue")
		if !ok || len(v) != 1 || v[0] != 42 {
			t.Fatal("string hit failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocates %.1f times per op, want 0", allocs)
	}
}

func BenchmarkCacheGetHit(b *testing.B) {
	c := New(4096)
	stamp := Stamp{Gen: 1}
	key := []byte("outdoor barbecue and some longer key material")
	c.Put(stamp, key, []byte("value"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := c.Get(stamp, key); !ok {
			b.Fatal("miss")
		}
	}
}

// TestPutAllocsOneBlob: once a shard's slab and index have grown to its
// capacity, a stored Put that evicts allocates exactly one object (the
// entry's blob), and a Put into a cache without capacity allocates
// nothing.
func TestPutAllocsOneBlob(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	c := newWithShards(64, 2)
	stamp := Stamp{Gen: 1}
	key := make([]byte, 0, 16)
	val := []byte("encoded answer bytes")
	i := 0
	putNext := func() {
		key = append(key[:0], fmt.Sprintf("q-%d", i)...)
		i++
		storeKey(c, stamp, key, val)
	}
	for c.Len() < 64 {
		putNext()
	}
	key = append(key[:0], "fresh query"...)
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		key[len(key)-1] = byte(i)
		key[0] = byte(i >> 8)
		storeKey(c, stamp, key, val)
	}); allocs != 1 {
		t.Fatalf("Put into a full cache allocates %.1f objects, want 1", allocs)
	}
	if c.Len() != 64 || c.Stats().Evictions == 0 {
		t.Fatalf("full cache did not evict: %+v", c.Stats())
	}
	off := New(0)
	if allocs := testing.AllocsPerRun(200, func() {
		off.Put(stamp, key, val)
		off.PutString(stamp, "fresh query", val)
	}); allocs != 0 {
		t.Fatalf("Put into a capacity-0 cache allocates %.1f objects, want 0", allocs)
	}
}

// TestSlotLayout: a slot is at most 56 bytes, and its blob is its only
// pointer, so a slab is one object the collector scans for blobs alone.
func TestSlotLayout(t *testing.T) {
	if size := unsafe.Sizeof(slot{}); size > 56 {
		t.Fatalf("slot is %d bytes, want at most 56", size)
	}
	typ := reflect.TypeOf(slot{})
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		switch f.Type.Kind() {
		case reflect.Int32, reflect.Uint32, reflect.Uint64:
		case reflect.Slice:
			if f.Name != "blob" || f.Type.Elem().Kind() != reflect.Uint8 {
				t.Fatalf("slot field %s is a %s", f.Name, f.Type)
			}
		default:
			t.Fatalf("slot field %s is a %s, which may hold a pointer", f.Name, f.Type)
		}
	}
}

// TestReturnedValuesNeverChange: a value Get returned stays exactly as it
// was while other goroutines overwrite, evict and re-put its key — the
// handlers write it to the socket after the shard lock is released.
func TestReturnedValuesNeverChange(t *testing.T) {
	c := newWithShards(16, 2)
	stamps := []Stamp{{Gen: 1}, {Gen: 2}}
	value := func(key string, stamp Stamp, round int) []byte {
		return []byte(fmt.Sprintf("%s@%d#%d", key, stamp.Gen, round))
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	for g := 0; g < 3; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("q-%d", rng.Intn(40)) // 40 keys over 16 slots: constant eviction
				c.PutString(stamps[rng.Intn(len(stamps))], key, value(key, stamps[0], round))
			}
		}(g)
	}
	var readers sync.WaitGroup
	for g := 0; g < 3; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + g)))
			var held [][]byte
			var copies []string
			for i := 0; i < 3000; i++ {
				key := fmt.Sprintf("q-%d", rng.Intn(40))
				v, ok := c.GetString(stamps[rng.Intn(len(stamps))], key)
				if !ok {
					continue
				}
				if !strings.HasPrefix(string(v), key+"@") {
					t.Errorf("key %q returned %q", key, v)
					return
				}
				held = append(held, v)
				copies = append(copies, string(v))
				if len(held) == 64 {
					for j := range held {
						if string(held[j]) != copies[j] {
							t.Errorf("returned value changed from %q to %q", copies[j], held[j])
							return
						}
					}
					held, copies = held[:0], copies[:0]
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

// TestMatchesReferenceModel drives one small shard through random puts,
// lookups, stamp moves and resizes, and checks every answer, the LRU order
// and the declined count against a plain list model — the index's
// backward-shift deletion and the slab's relayout must never lose,
// resurrect or reorder an entry, and the doorkeeper must admit exactly the
// second sightings. The model's doorkeeper is a map from slot to
// fingerprint: once the model holds capacity/8 entries, a Put of a key
// that is not resident is stored only if its slot holds its fingerprint,
// and otherwise writes it there; a stale drop that leaves that many writes
// it too, and a Resize to a new capacity empties the map.
func TestMatchesReferenceModel(t *testing.T) {
	type ent struct {
		key, val string
		stamp    Stamp
	}
	rng := rand.New(rand.NewSource(5))
	c := newWithShards(32, 1)
	capacity := 32
	var model []ent // most recently used first
	find := func(key string) int {
		for i := range model {
			if model[i].key == key {
				return i
			}
		}
		return -1
	}
	door := map[uint64]uint16{}
	var declined uint64
	sighting := func(key string) (uint64, uint16) {
		h := Hash(key)
		return h >> 32 & uint64(max(capacity/2, 1)-1), max(uint16(h>>16), 1)
	}
	stamps := []Stamp{{Gen: 1}, {Gen: 1, Sum: 9}, {Gen: 2}}
	for step := 0; step < 20000; step++ {
		key := fmt.Sprintf("k%d", rng.Intn(80))
		stamp := stamps[rng.Intn(len(stamps))]
		switch op := rng.Intn(10); {
		case op < 5:
			val := fmt.Sprintf("%s/%d", key, step)
			c.PutString(stamp, key, []byte(val))
			if capacity == 0 {
				break
			}
			i := find(key)
			if slot, fp := sighting(key); i < 0 && len(model) >= capacity/openShare && door[slot] != fp {
				door[slot] = fp
				declined++
				break
			}
			if i >= 0 {
				model = append(model[:i], model[i+1:]...)
			} else if len(model) >= capacity {
				model = model[:len(model)-1]
			}
			model = append([]ent{{key, val, stamp}}, model...)
		case op < 9:
			v, ok := c.Get(stamp, []byte(key))
			i := find(key)
			want := i >= 0 && model[i].stamp == stamp
			if ok != want || (ok && string(v) != model[i].val) {
				t.Fatalf("step %d: Get(%q) = %q, %v; model has %+v", step, key, v, ok, model)
			}
			if i >= 0 {
				e := model[i]
				model = append(model[:i], model[i+1:]...)
				if want {
					model = append([]ent{e}, model...)
				} else if len(model) >= capacity/openShare {
					slot, fp := sighting(key)
					door[slot] = fp
				}
			}
		default:
			next := []int{0, 1, 4, 16, 32, 64}[rng.Intn(6)]
			if next != capacity {
				door = map[uint64]uint16{}
			}
			capacity = next
			c.Resize(capacity)
			if len(model) > capacity {
				model = model[:capacity]
			}
		}
		s := &c.shards[0]
		if s.n != len(model) {
			t.Fatalf("step %d: %d entries, model has %d", step, s.n, len(model))
		}
		if s.declined != declined {
			t.Fatalf("step %d: %d offers declined, model declined %d", step, s.declined, declined)
		}
		j := 0
		for i := s.head; i != nilSlot; i = s.slab[i].next {
			e := &s.slab[i]
			if _, key := e.split(); string(key) != model[j].key {
				t.Fatalf("step %d: LRU position %d holds %q, model %q", step, j, key, model[j].key)
			}
			if s.find(e.hash) < 0 {
				t.Fatalf("step %d: %q is not reachable through the index", step, model[j].key)
			}
			j++
		}
	}
}

// TestIndexProbesStayShort: each shard's index probes from hash bits the
// shard choice did not use, so a full many-shard cache still finds an
// entry within a probe or two of its home position.
func TestIndexProbesStayShort(t *testing.T) {
	c := newWithShards(4096, 64)
	for i := 0; c.Len() < 4096; i++ {
		storeKey(c, Stamp{Gen: 1}, fmt.Sprintf("query %d", i), nil)
	}
	displaced, entries := 0, 0
	for i := range c.shards {
		s := &c.shards[i]
		mask := len(s.index) - 1
		for pos, v := range s.index {
			if v != 0 {
				displaced += (pos - home(s.slab[v-1].hash, mask)) & mask
				entries++
			}
		}
	}
	if mean := float64(displaced) / float64(entries); mean > 2 {
		t.Fatalf("entries sit %.1f positions past their home on average, want at most 2", mean)
	}
}

// TestValueStartsAligned: a value starts its blob, so however long the key
// is, a large value is copied out from an 8-byte-aligned address (the
// runtime copies a misaligned source of more than 2 KB byte by byte).
func TestValueStartsAligned(t *testing.T) {
	c := newWithShards(8, 1)
	val := make([]byte, 3000)
	for _, key := range []string{"q", "q=barbecue+outdoor", "items=1,2,3&k=5"} {
		c.PutString(Stamp{Gen: 1}, key, val) // a first sighting may be declined
		c.PutString(Stamp{Gen: 1}, key, val)
		v, ok := c.GetString(Stamp{Gen: 1}, key)
		if !ok || len(v) != len(val) {
			t.Fatalf("%q: got %d bytes, %v", key, len(v), ok)
		}
		if addr := uintptr(unsafe.Pointer(&v[0])); addr%8 != 0 {
			t.Fatalf("%q: value starts at %#x, not 8-byte aligned", key, addr)
		}
	}
}

// TestFirstOfferDeclined: once a shard is an eighth full, a key's first
// Put stores nothing and only records its fingerprint, and its second Put
// stores it. Once the shard's doorkeeper exists, a declined offer
// allocates nothing.
func TestFirstOfferDeclined(t *testing.T) {
	c := newWithShards(64, 1)
	stamp := Stamp{Gen: 1}
	val := []byte("encoded answer bytes")
	for i := 0; i < 64/openShare; i++ {
		c.PutString(stamp, fmt.Sprintf("early %d", i), val)
	}
	if st := c.Stats(); st.Entries != 64/openShare || st.Declined != 0 {
		t.Fatalf("the shard's first eighth did not store every offer: %+v", st)
	}
	c.PutString(stamp, "outdoor barbecue", val)
	if _, ok := c.GetString(stamp, "outdoor barbecue"); ok || c.Len() != 64/openShare {
		t.Fatalf("first offer was stored: %+v", c.Stats())
	}
	if st := c.Stats(); st.Declined != 1 {
		t.Fatalf("declined = %d, want 1", st.Declined)
	}
	c.PutString(stamp, "outdoor barbecue", val)
	if v, ok := c.GetString(stamp, "outdoor barbecue"); !ok || string(v) != string(val) {
		t.Fatalf("second offer not stored: %q, %v", v, ok)
	}
	if st := c.Stats(); st.Declined != 1 {
		t.Fatalf("the stored offer counted as declined: %+v", st)
	}
	if raceflag.Enabled {
		t.Skip("allocation guards are not meaningful under -race")
	}
	key := []byte("fresh query")
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		i++
		key[len(key)-1], key[0] = byte(i), byte(i>>8)
		c.Put(stamp, key, val)
	}); allocs != 0 {
		t.Fatalf("a declined offer allocates %.1f objects, want 0", allocs)
	}
	if c.Len() > 64/openShare+2 { // a fingerprint match is a 1-in-65,536 chance per offer
		t.Fatalf("distinct first offers left %d entries", c.Len())
	}
}

// TestOverwriteAdmitted: a Put of a key that is already cached is stored at
// once, replacing the value.
func TestOverwriteAdmitted(t *testing.T) {
	c := newWithShards(64, 1)
	stamp := Stamp{Gen: 1}
	storeKey(c, stamp, "grill", []byte("v1"))
	c.PutString(stamp, "grill", []byte("v2"))
	if v, ok := c.GetString(stamp, "grill"); !ok || string(v) != "v2" {
		t.Fatalf("overwrite not stored: %q, %v", v, ok)
	}
	if st := c.Stats(); st.Declined != 0 || st.Entries != 1 {
		t.Fatalf("overwrite went through the doorkeeper: %+v", st)
	}
}

// TestStaleDropAdmitsNextPut: once a Get drops a key's entry because the
// serving snapshot moved on, the key's next Put is stored at once, so a
// publish does not delay the refill by a request.
func TestStaleDropAdmitsNextPut(t *testing.T) {
	c := newWithShards(64, 1)
	old, cur := Stamp{Gen: 1}, Stamp{Gen: 2}
	for i := 0; i < 64/openShare; i++ { // past the eighth that stores every offer
		storeKey(c, cur, fmt.Sprintf("filler %d", i), nil)
	}
	storeKey(c, old, "grill", []byte("old"))
	if _, ok := c.GetString(cur, "grill"); ok || c.Len() != 64/openShare {
		t.Fatal("stale entry served or kept")
	}
	c.PutString(cur, "grill", []byte("new"))
	if v, ok := c.GetString(cur, "grill"); !ok || string(v) != "new" {
		t.Fatalf("Put after a stale drop not stored: %q, %v", v, ok)
	}
	if st := c.Stats(); st.Declined != 0 {
		t.Fatalf("Put after a stale drop was declined: %+v", st)
	}
}

// TestOneOffStreamStaysSmall: a stream of keys that never repeat fills
// only the eighth of a full-size cache that stores every offer; past it
// only fingerprint collisions, about 1 in 65,536 offers, get in.
func TestOneOffStreamStaysSmall(t *testing.T) {
	c := New(4096)
	const offers = 100000
	val := []byte("one-off answer")
	for i := 0; i < offers; i++ {
		c.PutString(Stamp{Gen: 1}, fmt.Sprintf("query %d", i), val)
	}
	st := c.Stats()
	if st.Entries > 4096/openShare+8 {
		t.Fatalf("%d one-off keys left %d entries, want at most %d", offers, st.Entries, 4096/openShare+8)
	}
	if st.Declined+uint64(st.Entries) != offers || st.Evictions != 0 {
		t.Fatalf("offers unaccounted for: %+v", st)
	}
}

// TestDoorkeeperBytes: the doorkeeper holds 1 byte per entry of capacity,
// whatever the shard count; Resize remakes it at the new capacity, and a
// cache without capacity has none.
func TestDoorkeeperBytes(t *testing.T) {
	doorBytes := func(c *Cache) int {
		n := 0
		for i := range c.shards {
			n += len(c.shards[i].door) * int(unsafe.Sizeof(uint16(0)))
		}
		return n
	}
	// offerAll offers distinct keys until every shard, past its open
	// eighth, has declined one, so every doorkeeper exists.
	offerAll := func(c *Cache) {
		for i := 0; ; i++ {
			missing := false
			for j := range c.shards {
				missing = missing || c.shards[j].door == nil
			}
			if !missing {
				return
			}
			c.PutString(Stamp{Gen: 1}, fmt.Sprintf("key %d", i), nil)
		}
	}
	for _, shards := range []int{1, 4, 64} {
		c := newWithShards(4096, shards)
		if n := doorBytes(c); n != 0 {
			t.Fatalf("%d shards: %d doorkeeper bytes before any offer", shards, n)
		}
		offerAll(c)
		if n := doorBytes(c); n != 4096 {
			t.Fatalf("%d shards: doorkeepers hold %d bytes for 4096 entries, want 4096", shards, n)
		}
		c.Resize(1024)
		offerAll(c)
		if n := doorBytes(c); n != 1024 {
			t.Fatalf("%d shards: after Resize(1024) doorkeepers hold %d bytes, want 1024", shards, n)
		}
		c.Resize(0)
		c.PutString(Stamp{Gen: 1}, "key", nil)
		if n := doorBytes(c); n != 0 {
			t.Fatalf("%d shards: a capacity-0 cache holds %d doorkeeper bytes", shards, n)
		}
	}
}
