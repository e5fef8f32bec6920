// Package inference implements the first item of the paper's future work
// (Section 10): mining unseen commonsense relations for e-commerce concepts —
// e.g. "boy's T-shirts" implies Time=Summer even though no time word appears
// in the concept. The signal is distributional: the items associated with a
// concept concentrate on particular attribute values far above the corpus
// base rate, and that concentration is evidence of an implicit relation.
package inference

import (
	"math"
	"sort"

	"alicoco/internal/core"
	"alicoco/internal/par"
)

// ImplicitRelation is an inferred (concept, primitive) link with its
// strength: the lift of the primitive among the concept's items over its
// base rate across all items, and the coverage (share of the concept's items
// carrying it).
type ImplicitRelation struct {
	Concept   core.NodeID
	Primitive core.NodeID
	Domain    string
	Lift      float64 // P(prim | concept items) / P(prim | all items)
	Coverage  float64 // P(prim | concept items)
}

// Config tunes the miner.
type Config struct {
	MinLift     float64 // minimum lift to report (e.g. 2.0)
	MinCoverage float64 // minimum share of the concept's items
	MinItems    int     // concepts with fewer associated items are skipped
	// Domains restricts inference to these primitive domains (nil = all
	// non-Category domains; Category is the item's identity, not an
	// implicit property).
	Domains []string
}

// DefaultConfig returns conservative thresholds.
func DefaultConfig() Config {
	return Config{MinLift: 2.0, MinCoverage: 0.3, MinItems: 5}
}

// Miner precomputes base rates over the net's item layer. Mining is pure
// reading, so a Miner runs against a frozen snapshot; only Materialize needs
// the live net.
type Miner struct {
	net      *core.ShardSet
	cfg      Config
	baseRate map[core.NodeID]float64 // primitive -> share of all items carrying it
	items    int
	domains  map[string]bool
}

// NewMiner scans the item layer once.
func NewMiner(net *core.ShardSet, cfg Config) *Miner {
	m := &Miner{net: net, cfg: cfg, baseRate: make(map[core.NodeID]float64)}
	if len(cfg.Domains) > 0 {
		m.domains = make(map[string]bool, len(cfg.Domains))
		for _, d := range cfg.Domains {
			m.domains[d] = true
		}
	}
	items := net.NodesOfKind(core.KindItem)
	m.items = len(items)
	for _, it := range items {
		for _, he := range net.Out(it, core.EdgeItemPrimitive) {
			m.baseRate[he.Peer]++
		}
	}
	for p := range m.baseRate {
		m.baseRate[p] /= math.Max(1, float64(m.items))
	}
	return m
}

// admissible reports whether a primitive's domain may carry an implicit
// relation.
func (m *Miner) admissible(prim core.NodeID) bool {
	nd, ok := m.net.Node(prim)
	if !ok {
		return false
	}
	if m.domains != nil {
		return m.domains[nd.Domain]
	}
	return nd.Domain != "Category" && nd.Domain != "Brand"
}

// InferConcept mines implicit relations for one e-commerce concept,
// excluding primitives the concept is already interpreted by.
func (m *Miner) InferConcept(concept core.NodeID) []ImplicitRelation {
	itemEdges := m.net.In(concept, core.EdgeItemEConcept)
	if len(itemEdges) < m.cfg.MinItems {
		return nil
	}
	known := make(map[core.NodeID]bool)
	for _, he := range m.net.Out(concept, core.EdgeInterpretedBy) {
		known[he.Peer] = true
	}
	counts := make(map[core.NodeID]int)
	for _, ie := range itemEdges {
		for _, pe := range m.net.Out(ie.Peer, core.EdgeItemPrimitive) {
			counts[pe.Peer]++
		}
	}
	var out []ImplicitRelation
	n := float64(len(itemEdges))
	for prim, c := range counts {
		if known[prim] || !m.admissible(prim) {
			continue
		}
		coverage := float64(c) / n
		base := m.baseRate[prim]
		if base == 0 {
			continue
		}
		lift := coverage / base
		if lift < m.cfg.MinLift || coverage < m.cfg.MinCoverage {
			continue
		}
		nd, _ := m.net.Node(prim)
		out = append(out, ImplicitRelation{
			Concept: concept, Primitive: prim, Domain: nd.Domain,
			Lift: lift, Coverage: coverage,
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Lift != out[j].Lift {
			return out[i].Lift > out[j].Lift
		}
		return out[i].Primitive < out[j].Primitive
	})
	return out
}

// InferAll mines every e-commerce concept and returns relations grouped by
// concept in node-id order. Concepts are independent — mining is a pure
// read of the (frozen) net plus the precomputed base rates — so the scan
// fans out across GOMAXPROCS workers, each writing its concept's relations
// into an index-addressed slot; the sequential ordered reduce keeps the
// output byte-identical to the old single-threaded loop.
func (m *Miner) InferAll() []ImplicitRelation {
	concepts := m.net.NodesOfKind(core.KindEConcept)
	slots := make([][]ImplicitRelation, len(concepts))
	par.For(0, len(concepts), func(i int) {
		slots[i] = m.InferConcept(concepts[i])
	})
	var out []ImplicitRelation
	for _, rels := range slots {
		out = append(out, rels...)
	}
	return out
}

// Materialize writes inferred relations into dst as weighted interpretedBy
// edges (weight = normalized confidence from coverage), making the implicit
// knowledge queryable like any other interpretation link. It returns the
// number of edges added. dst is passed explicitly because the miner itself
// may be reading a frozen snapshot; callers that serve from a snapshot
// should re-freeze dst afterwards to publish the new edges.
func (m *Miner) Materialize(dst *core.Net, rels []ImplicitRelation) (int, error) {
	added := 0
	for _, r := range rels {
		w := r.Coverage
		if w > 0.99 {
			w = 0.99 // inferred edges never outrank manual ones
		}
		if err := dst.AddEdge(r.Concept, r.Primitive, core.EdgeInterpretedBy, "implied", w); err != nil {
			return added, err
		}
		added++
	}
	return added, nil
}
