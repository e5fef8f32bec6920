package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// Label names what a HalfEdge carries besides its peer and kind: its schema
// relation ("has_property", "suitable_when", inference's "implied", "" for
// unnamed edges) and its weight, as one index into a process-wide intern
// table of (relation, weight) pairs, so a half-edge stores two bytes for
// both. A built net uses a handful of pairs: most edges are unnamed at
// weight 1. Label 0 is the unnamed relation at weight +0, the zero
// HalfEdge's.
//
// Pairs key on the weight's bits (math.Float64bits), so a weight keeps
// every bit it was added with, −0 and NaN payloads included. Labels are
// assigned in the order a process first interns each pair, so they mean
// nothing outside that process: they never reach file bytes, hashes or
// sort keys. Snapshots store the pairs (see persist_frozen.go), and code
// that orders edges by relation or weight orders them by Rel and Weight.
type Label uint16

// maxLabels is the size of the Label space: the intern table holds at most
// this many pairs, label 0 included.
const maxLabels = 1 << 16

// labelKey is one interned pair: a relation name and a weight's bits.
type labelKey struct {
	rel  string
	bits uint64
}

// labels is the intern table. table is the published snapshot, indexed by
// label, which readers load without a lock; ids is its inverse, guarded by
// mu, which also serializes growth. Interning only appends and then
// publishes the longer slice, so no entry a published snapshot holds ever
// changes. Net.AddEdge and LoadFrozen intern from any goroutine (shards
// load in parallel); HalfEdge.Weight and Rel read.
var labels struct {
	mu    sync.RWMutex
	ids   map[labelKey]Label
	table atomic.Pointer[[]labelKey]
}

func init() {
	labels.ids = map[labelKey]Label{{}: 0}
	publishLabels([]labelKey{{}})
}

// labelTable returns the published table: every label interned before the
// call, indexed by label.
func labelTable() []labelKey { return *labels.table.Load() }

// publishLabels makes table the published snapshot. Its slice header goes
// to the heap here, so interning that adds nothing allocates none.
func publishLabels(table []labelKey) { labels.table.Store(&table) }

// Weight returns the edge's weight (a confidence or probability; 1 for
// manual edges), bit for bit as it was added. It takes no lock: one atomic
// load of the published table.
func (he HalfEdge) Weight() float64 { return math.Float64frombits(labelTable()[he.Label].bits) }

// Rel returns the edge's named schema relation, "" for unnamed edges.
func (he HalfEdge) Rel() string { return labelTable()[he.Label].rel }

// scanLabels is how many of the first labels internLabel looks for by a
// scan of the published table before it hashes.
const scanLabels = 8

// internLabel returns the label of (rel, weight), interning it on first
// use. It fails only when the table is full. The build interns one pair
// per edge, nearly always one of a handful, so the first few labels are
// found by a scan of the published table: no lock and no hash.
func internLabel(rel string, weight float64) (Label, error) {
	k := labelKey{rel, math.Float64bits(weight)}
	table := labelTable()
	for i := range table[:min(len(table), scanLabels)] {
		if table[i] == k {
			return Label(i), nil
		}
	}
	labels.mu.RLock()
	l, ok := labels.ids[k]
	labels.mu.RUnlock()
	if ok {
		return l, nil
	}
	ls, err := internLabels([]labelKey{k})
	if err != nil {
		return 0, err
	}
	return ls[0], nil
}

// internLabels interns keys all or nothing and returns their labels in
// order: when the table has no room for every pair it does not hold yet,
// it interns none of them.
func internLabels(keys []labelKey) ([]Label, error) {
	labels.mu.Lock()
	defer labels.mu.Unlock()
	held := labelTable()
	table := held
	out := make([]Label, len(keys))
	for i, k := range keys {
		l, ok := labels.ids[k]
		if !ok {
			if len(table) == maxLabels {
				// Appends past held's length are invisible to readers of
				// the published snapshot, so undoing them is enough.
				for _, added := range table[len(held):] {
					delete(labels.ids, added)
				}
				clear(table[len(held):])
				return nil, fmt.Errorf("core: label table full: %d (relation, weight) pairs", maxLabels)
			}
			l = Label(len(table))
			table = append(table, k)
			labels.ids[k] = l
		}
		out[i] = l
	}
	if len(table) > len(held) {
		publishLabels(table)
	}
	return out, nil
}
