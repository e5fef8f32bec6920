package core

import (
	"fmt"
	"strconv"
	"sync"
)

// RelID names the schema relation a HalfEdge carries ("has_property",
// "suitable_when", inference's "implied", ...) as an index into one
// process-wide intern table, so a half-edge stores two bytes instead of a
// string header. RelID 0 is the empty relation every unnamed edge carries.
//
// IDs are assigned in the order a process first interns each name, so they
// mean nothing outside that process: they never reach file bytes, hashes or
// sort keys. Snapshots store names (see persist_frozen.go), and code that
// orders edges by relation orders them by String.
type RelID uint16

// maxRels is the size of the RelID space: the intern table holds at most
// this many names, the empty one included.
const maxRels = 1 << 16

// rels is the intern table: names[id] is the name of RelID id and ids is
// its inverse. It only grows. Net.AddEdge and LoadFrozen write it, from
// any goroutine (shards load in parallel); String reads it.
var rels = struct {
	sync.RWMutex
	names []string
	ids   map[string]RelID
}{names: []string{""}, ids: map[string]RelID{"": 0}}

// String returns the relation's name, "" for unnamed edges.
func (r RelID) String() string {
	rels.RLock()
	defer rels.RUnlock()
	if int(r) < len(rels.names) {
		return rels.names[r]
	}
	return "RelID(" + strconv.Itoa(int(r)) + ")"
}

// internRel returns the RelID of name, interning it on first use. It fails
// only when the table is full.
func internRel(name string) (RelID, error) {
	if name == "" {
		return 0, nil
	}
	rels.RLock()
	id, ok := rels.ids[name]
	rels.RUnlock()
	if ok {
		return id, nil
	}
	ids, err := internRels([]string{name})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// internRels interns names all or nothing and returns their IDs in order:
// when the table has no room for every name it does not hold yet, it
// interns none of them.
func internRels(names []string) ([]RelID, error) {
	rels.Lock()
	defer rels.Unlock()
	held := len(rels.names)
	ids := make([]RelID, len(names))
	for i, name := range names {
		id, ok := rels.ids[name]
		if !ok {
			if len(rels.names) == maxRels {
				for _, added := range rels.names[held:] {
					delete(rels.ids, added)
				}
				clear(rels.names[held:])
				rels.names = rels.names[:held]
				return nil, fmt.Errorf("core: relation table full: %d names", maxRels)
			}
			id = RelID(len(rels.names))
			rels.names = append(rels.names, name)
			rels.ids[name] = id
		}
		ids[i] = id
	}
	return ids, nil
}
