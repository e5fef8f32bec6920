package main

import (
	"testing"

	"alicoco/internal/core"
	"alicoco/internal/pipeline"
)

// tinyFrozen builds the tiny testbed with corpora of corpus sentences per
// source and freezes it into one shard.
func tinyFrozen(tb testing.TB, corpus int) *core.ShardSet {
	tb.Helper()
	opts := pipeline.TinyOptions()
	opts.Queries, opts.Reviews, opts.Guides = corpus, corpus, corpus
	a, err := pipeline.Build(opts)
	if err != nil {
		tb.Fatal(err)
	}
	return a.Net.Freeze()
}

func TestRelevanceIsAExpansion(t *testing.T) {
	net := tinyFrozen(t, pipeline.TinyOptions().Guides)
	cases := buildRelevanceCases(net, 200, 3)
	if len(cases) < 50 {
		t.Fatalf("too few relevance cases: %d", len(cases))
	}
	plain := evalRelevance(net, cases, false)
	expanded := evalRelevance(net, cases, true)
	if expanded.AUC <= plain.AUC {
		t.Fatalf("isA expansion should raise AUC: %.3f vs %.3f", expanded.AUC, plain.AUC)
	}
	if expanded.BadCases >= plain.BadCases {
		t.Fatalf("isA expansion should cut bad cases: %d vs %d", expanded.BadCases, plain.BadCases)
	}
}

// BenchmarkSearchRelevance measures the isA-expansion relevance experiment
// (E9) on the testbed the root package's benchmarks share.
func BenchmarkSearchRelevance(b *testing.B) {
	net := tinyFrozen(b, 800)
	cases := buildRelevanceCases(net, 300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain := evalRelevance(net, cases, false)
		expanded := evalRelevance(net, cases, true)
		if expanded.AUC < plain.AUC {
			b.Fatal("expansion should not hurt")
		}
	}
}
