package main

import (
	"math/rand"
	"strings"

	"alicoco/internal/core"
	"alicoco/internal/metrics"
	"alicoco/internal/par"
)

// relevanceCase is one query-item relevance judgment for the Section 8.1.1
// experiment: the query is a broader class/hypernym word ("top"-style), the
// item is relevant when its category is a descendant of the query concept.
type relevanceCase struct {
	Query    string
	QueryID  core.NodeID // primitive or class node of the query word
	Item     core.NodeID
	Relevant bool
}

// relevanceResult is the Section 8.1.1 outcome: AUC of the relevance scores
// and the count of "bad cases" (relevant items scored zero).
type relevanceResult struct {
	AUC      float64
	BadCases int
	Total    int
}

// buildRelevanceCases samples queries with positive items drawn from the
// query concept or its descendant categories, negatives at random. Half the
// queries are leaf-level (the item title contains the word, so lexical
// matching works); half are hypernym-level ("top"-style queries where only
// isA expansion can find the relevant items).
func buildRelevanceCases(net *core.ShardSet, n int, seed int64) []relevanceCase {
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
	var out []relevanceCase
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
		out = append(out, relevanceCase{Query: qn.Name, QueryID: q, Item: posItems[rng.Intn(len(posItems))], Relevant: true})
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
				out = append(out, relevanceCase{Query: qn.Name, QueryID: q, Item: it, Relevant: false})
				break
			}
		}
	}
	return out
}

// evalRelevance scores each case lexically (query word appears in the item
// title) and, when expandIsA is set, also structurally (some item primitive
// has the query as an isA ancestor) — the "jacket is a kind of top" fix.
// Cases are independent, so scoring fans out across GOMAXPROCS workers;
// results land in index-addressed slots, keeping the outcome deterministic.
func evalRelevance(net *core.ShardSet, cases []relevanceCase, expandIsA bool) relevanceResult {
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
	return relevanceResult{AUC: metrics.AUC(scores, labels), BadCases: bad, Total: len(cases)}
}
