package search

import (
	"math/rand"
	"strings"

	"alicoco/internal/core"
	"alicoco/internal/metrics"
	"alicoco/internal/par"
)

// RelevanceCase is one query-item relevance judgment for the Section 8.1.1
// experiment: the query is a broader class/hypernym word ("top"-style), the
// item is relevant when its category is a descendant of the query concept.
type RelevanceCase struct {
	Query    string
	QueryID  core.NodeID // primitive or class node of the query word
	Item     core.NodeID
	Relevant bool
}

// RelevanceResult is the Section 8.1.1 outcome: AUC of the relevance scores
// and the count of "bad cases" (relevant items scored zero).
type RelevanceResult struct {
	AUC      float64
	BadCases int
	Total    int
}

// BuildRelevanceCases samples queries with positive items drawn from the
// query concept or its descendant categories, negatives at random. Half the
// queries are leaf-level (the item title contains the word, so lexical
// matching works); half are hypernym-level ("top"-style queries where only
// isA expansion can find the relevant items).
func BuildRelevanceCases(net *core.ShardSet, n int, seed int64) []RelevanceCase {
	rng := rand.New(rand.NewSource(seed))
	// Query pool: primitives that have isA descendants (hypernyms).
	var queries []core.NodeID
	for _, id := range net.NodesOfKind(core.KindPrimitive) {
		if len(net.In(id, core.EdgeIsA)) > 0 {
			queries = append(queries, id)
		}
	}
	// Leaf pool: primitives items attach to directly.
	var leaves []core.NodeID
	for _, id := range net.NodesOfKind(core.KindPrimitive) {
		if len(net.In(id, core.EdgeItemPrimitive)) > 0 {
			leaves = append(leaves, id)
		}
	}
	items := net.NodesOfKind(core.KindItem)
	var out []RelevanceCase
	for len(out) < n && len(queries) > 0 && len(leaves) > 0 && len(items) > 0 {
		var q core.NodeID
		if rng.Intn(2) == 0 {
			q = leaves[rng.Intn(len(leaves))]
		} else {
			q = queries[rng.Intn(len(queries))]
		}
		qn, _ := net.Node(q)
		// Positive: an item attached to q directly or transitively below it.
		var posItems []core.NodeID
		for _, he := range net.In(q, core.EdgeItemPrimitive) {
			posItems = append(posItems, he.Peer)
		}
		for _, d := range net.Descendants(q, 0) {
			for _, he := range net.In(d, core.EdgeItemPrimitive) {
				posItems = append(posItems, he.Peer)
			}
		}
		if len(posItems) == 0 {
			continue
		}
		out = append(out, RelevanceCase{Query: qn.Name, QueryID: q, Item: posItems[rng.Intn(len(posItems))], Relevant: true})
		// Negative: random item not under q.
		for tries := 0; tries < 20; tries++ {
			it := items[rng.Intn(len(items))]
			under := false
			for _, he := range net.Out(it, core.EdgeItemPrimitive) {
				if he.Peer == q || net.IsAncestor(he.Peer, q) {
					under = true
					break
				}
			}
			if !under {
				out = append(out, RelevanceCase{Query: qn.Name, QueryID: q, Item: it, Relevant: false})
				break
			}
		}
	}
	return out
}

// EvalRelevance scores each case lexically (query word appears in the item
// title) and, when expandIsA is set, also structurally (some item primitive
// has the query as an isA ancestor) — the "jacket is a kind of top" fix.
// Cases are independent, so scoring fans out across GOMAXPROCS workers;
// results land in index-addressed slots, keeping the outcome deterministic.
func EvalRelevance(net *core.ShardSet, cases []RelevanceCase, expandIsA bool) RelevanceResult {
	scores := make([]float64, len(cases))
	labels := make([]bool, len(cases))
	par.For(0, len(cases), func(i int) {
		c := cases[i]
		nd, _ := net.Node(c.Item)
		score := 0.0
		if strings.Contains(" "+nd.Name+" ", " "+c.Query+" ") {
			score = 1
		}
		if expandIsA && score == 0 {
			for _, he := range net.Out(c.Item, core.EdgeItemPrimitive) {
				if he.Peer == c.QueryID || net.IsAncestor(he.Peer, c.QueryID) {
					score = 0.9
					break
				}
			}
		}
		scores[i] = score
		labels[i] = c.Relevant
	})
	bad := 0
	for i, c := range cases {
		if c.Relevant && scores[i] == 0 {
			bad++
		}
	}
	return RelevanceResult{AUC: metrics.AUC(scores, labels), BadCases: bad, Total: len(cases)}
}

// CoverageResult is one day's coverage sample (Section 7.1).
type CoverageResult struct {
	Covered int
	Total   int
}

// Rate returns the covered fraction.
func (c CoverageResult) Rate() float64 {
	if c.Total == 0 {
		return 0
	}
	return float64(c.Covered) / float64(c.Total)
}

// MeasureCoverage counts queries fully covered by the engine's vocabulary.
// Queries fan out across GOMAXPROCS workers (the engine's segmenter is
// read-only after construction).
func MeasureCoverage(e *Engine, queries [][]string) CoverageResult {
	res := CoverageResult{Total: len(queries)}
	covered := make([]bool, len(queries))
	par.For(0, len(queries), func(i int) {
		covered[i] = e.Covered(queries[i])
	})
	for _, c := range covered {
		if c {
			res.Covered++
		}
	}
	return res
}
