// Benchmarks: one testing.B per table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). Each bench executes the same
// code path as `cmd/experiments` at reduced scale, so `go test -bench=.`
// regenerates the shape of every reported result. Full-scale numbers are
// produced by `go run alicoco/cmd/experiments` and recorded in
// EXPERIMENTS.md.
package alicoco

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/conceptgen"
	"alicoco/internal/core"
	"alicoco/internal/hypernym"
	"alicoco/internal/mat"
	"alicoco/internal/matching"
	"alicoco/internal/pipeline"
	"alicoco/internal/snapstore"
	"alicoco/internal/tagging"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// benchA and benchM are the shared tiny testbed and its trained models,
// built once.
var (
	benchOnce sync.Once
	benchA    *pipeline.Artifacts
	benchM    *pipeline.Models
)

func benchArtifacts(b *testing.B) *pipeline.Artifacts {
	b.Helper()
	benchOnce.Do(func() {
		opts := pipeline.TinyOptions()
		opts.W2V.Dim = 32
		opts.W2V.Epochs = 6
		opts.Queries, opts.Reviews, opts.Guides = 800, 800, 800
		a, err := pipeline.Build(opts)
		if err != nil {
			panic(err)
		}
		m, err := a.TrainModels()
		if err != nil {
			panic(err)
		}
		benchA, benchM = a, m
	})
	return benchA
}

// benchModels returns the models trained on the shared testbed.
func benchModels(b *testing.B) *pipeline.Models {
	benchArtifacts(b)
	return benchM
}

func benchEmbed(m *pipeline.Models) func([]string) mat.Vec {
	return func(tokens []string) mat.Vec {
		vs := m.W2V.EmbedSeq(tokens)
		out := mat.NewVec(m.W2V.Dim)
		for _, v := range vs {
			out.Add(v)
		}
		if len(vs) > 0 {
			out.Scale(1 / float64(len(vs)))
		}
		return out
	}
}

// BenchmarkTable2BuildNet measures the full four-layer construction (E1).
func BenchmarkTable2BuildNet(b *testing.B) {
	opts := pipeline.TinyOptions()
	for i := 0; i < b.N; i++ {
		a, err := pipeline.Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		s := a.Net.ComputeStats()
		if s.PerKind["econcept"] == 0 {
			b.Fatal("empty net")
		}
	}
}

// BenchmarkFig9LeftNegativeRatio measures one point of the negative-ratio
// sweep: train the projection model at N=60 and evaluate MAP (E2).
func BenchmarkFig9LeftNegativeRatio(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	d := hypernym.BuildDataset(a.World, benchEmbed(m), 5)
	pos := d.TrainPos
	if len(pos) > 120 {
		pos = pos[:120]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		train := d.TrainSet(pos, 60, 7)
		model := hypernym.NewProjection(m.W2V.Dim, 4, 9)
		model.Fit(train, 3, 0.01, 32, 13)
		ev := d.Evaluate(model, d.TestPos, 0, 1)
		if ev.MAP < 0 {
			b.Fatal("bad MAP")
		}
	}
}

// BenchmarkFig9RightStrategies runs one UCS active-learning loop (E3).
func BenchmarkFig9RightStrategies(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	d := hypernym.BuildDataset(a.World, benchEmbed(m), 5)
	pos := d.TrainPos
	if len(pos) > 120 {
		pos = pos[:120]
	}
	pool := append(d.TrainSet(pos, 4, 21), d.HardNegatives(pos, 2, 22)...)
	cfg := hypernym.DefaultALConfig(m.W2V.Dim)
	cfg.K = len(pool) / 8
	cfg.MaxIters = 3
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := hypernym.RunActiveLearning(d, pool, d.TestPos, cfg, hypernym.UCS)
		if res.LabeledUsed == 0 {
			b.Fatal("no labels used")
		}
	}
}

// BenchmarkTable3ActiveLearning compares UCS against Random end-to-end (E4).
func BenchmarkTable3ActiveLearning(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	d := hypernym.BuildDataset(a.World, benchEmbed(m), 5)
	pos := d.TrainPos
	if len(pos) > 120 {
		pos = pos[:120]
	}
	pool := append(d.TrainSet(pos, 4, 21), d.HardNegatives(pos, 2, 22)...)
	cfg := hypernym.DefaultALConfig(m.W2V.Dim)
	cfg.K = len(pool) / 8
	cfg.MaxIters = 3
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, strat := range []hypernym.Strategy{hypernym.Random, hypernym.UCS} {
			hypernym.RunActiveLearning(d, pool, d.TestPos, cfg, strat)
		}
	}
}

// BenchmarkTable4Classification trains and evaluates the full
// knowledge-enhanced concept classifier (E5).
func BenchmarkTable4Classification(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	w := a.World
	domainIdx := make(map[world.Domain]int)
	for i, d := range world.Domains {
		domainIdx[d] = i + 1
	}
	cands := w.ConceptCandidates(400)
	cfg := conceptgen.DefaultConfig()
	cfg.Epochs = 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fz := &conceptgen.Featurizer{
			CharVocab: text.NewVocab(),
			WordVocab: text.NewVocab(),
			POS:       m.POS,
			LM:        m.LM,
			GlossDim:  cfg.GlossDim,
			UseLM:     true,
			DomainOf: func(word string) int {
				ids := w.BySurface[word]
				if len(ids) == 0 {
					return 0
				}
				return domainIdx[w.Prim(ids[0]).Domain]
			},
			GlossVec: func(word string) mat.Vec {
				ids := w.BySurface[word]
				if len(ids) == 0 {
					return mat.NewVec(cfg.GlossDim)
				}
				v := m.Glossary.Vec(ids[0])
				out := mat.NewVec(cfg.GlossDim)
				copy(out, v)
				return out
			},
		}
		var samples []conceptgen.Sample
		for _, cand := range cands {
			samples = append(samples, conceptgen.Sample{Feat: fz.Featurize(cand.Tokens), Label: cand.Good})
		}
		fz.CharVocab.Freeze()
		fz.WordVocab.Freeze()
		cls := conceptgen.NewClassifier(cfg, fz.CharVocab.Len(), fz.WordVocab.Len())
		split := len(samples) * 8 / 10
		cls.Train(samples[:split])
		prec, _ := cls.EvaluatePrecision(samples[split:])
		if prec < 0 {
			b.Fatal("bad precision")
		}
	}
}

// BenchmarkTable5Tagging trains and evaluates the fuzzy-CRF tagger (E6).
func BenchmarkTable5Tagging(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	train, test := tagging.BuildDataset(a.World, 120, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := tagging.DefaultConfig()
		cfg.UseKnowledge = false
		cfg.Epochs = 2
		tg := tagging.NewTagger(world.DomainNames(), m.POS, nil, cfg)
		tg.Train(train)
		_, _, f1 := tagging.Evaluate(tg, test)
		if f1 < 0 {
			b.Fatal("bad F1")
		}
	}
}

// BenchmarkTable6Matching trains and evaluates the knowledge-aware matcher
// against BM25 (E7).
func BenchmarkTable6Matching(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	pairs := matching.BuildPairs(a.World, 300, 300)
	train, test := matching.SplitPairs(pairs, 0.8, 9)
	knowledge := matching.KnowledgeFn(a.World, m.Glossary)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tc := matching.DefaultTrainConfig()
		tc.Epochs = 2
		model := matching.NewKADSM(m.W2V.Vec, knowledge, m.W2V.Dim, tc)
		model.Train(train)
		res := matching.Evaluate(model, test)
		bm := matching.BM25Squashed{BM25: matching.NewBM25()}
		bm.Train(train)
		resB := matching.Evaluate(bm, test)
		if res.AUC <= 0 || resB.AUC <= 0 {
			b.Fatal("bad AUC")
		}
	}
}

// BenchmarkCoverage measures one day's coverage sample, both engines (E8).
func BenchmarkCoverage(b *testing.B) {
	a := benchArtifacts(b)
	full := search.NewEngine(a.Net, a.World.Stopwords())
	cpv := search.NewCPVEngine(a.Net, a.World.Stopwords())
	qs := a.World.QuerySet(500)
	queries := make([][]string, len(qs))
	for i, q := range qs {
		queries[i] = q.Tokens
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf := search.MeasureCoverage(full, queries)
		cc := search.MeasureCoverage(cpv, queries)
		if cf.Rate() <= cc.Rate() {
			b.Fatal("coverage inversion")
		}
	}
}

// BenchmarkSearchRelevance measures the isA-expansion relevance experiment (E9).
func BenchmarkSearchRelevance(b *testing.B) {
	a := benchArtifacts(b)
	cases := search.BuildRelevanceCases(a.Net, 300, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plain := search.EvalRelevance(a.Net, cases, false)
		expanded := search.EvalRelevance(a.Net, cases, true)
		if expanded.AUC < plain.AUC {
			b.Fatal("expansion should not hurt")
		}
	}
}

// BenchmarkRecommend measures the concept-card recommender replay (E10).
func BenchmarkRecommend(b *testing.B) {
	a := benchArtifacts(b)
	raw := a.World.ClickLog(120)
	var history [][]core.NodeID
	var sessions [][2][]core.NodeID
	for i, s := range raw {
		var viewed, clicked []core.NodeID
		for _, id := range s.Viewed {
			viewed = append(viewed, a.ItemNode[id])
		}
		for _, id := range s.Clicked {
			clicked = append(clicked, a.ItemNode[id])
		}
		if i < 80 {
			history = append(history, append(append([]core.NodeID{}, viewed...), clicked...))
		} else {
			sessions = append(sessions, [2][]core.NodeID{viewed, clicked})
		}
	}
	engine := recommend.NewEngine(a.Net)
	conceptRec := func(viewed []core.NodeID, k int) []core.NodeID {
		rec, ok := engine.Recommend(viewed, k)
		if !ok {
			return nil
		}
		return rec.Items
	}
	cf := recommend.NewItemCF(history)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := recommend.Replay(a.Net, conceptRec, sessions, 10)
		r2 := recommend.Replay(a.Net, cf.Recommend, sessions, 10)
		if r1.HitRate < 0 || r2.HitRate < 0 {
			b.Fatal("bad replay")
		}
	}
}

// --- ablation benches for the design choices DESIGN.md §4 calls out ---

// BenchmarkAblationFuzzyVsPlainCRF compares the two CRF losses directly.
func BenchmarkAblationFuzzyVsPlainCRF(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	train, test := tagging.BuildDataset(a.World, 120, 60, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fuzzy := range []bool{false, true} {
			cfg := tagging.DefaultConfig()
			cfg.UseFuzzy = fuzzy
			cfg.UseKnowledge = false
			cfg.Epochs = 2
			tg := tagging.NewTagger(world.DomainNames(), m.POS, nil, cfg)
			tg.Train(train)
			tagging.Evaluate(tg, test)
		}
	}
}

// BenchmarkAblationKnowledgeInMatching compares KADSM with and without the
// gloss knowledge sequence.
func BenchmarkAblationKnowledgeInMatching(b *testing.B) {
	a := benchArtifacts(b)
	m := benchModels(b)
	pairs := matching.BuildPairs(a.World, 200, 200)
	train, test := matching.SplitPairs(pairs, 0.8, 9)
	knowledge := matching.KnowledgeFn(a.World, m.Glossary)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, kn := range []func([]string) []mat.Vec{nil, knowledge} {
			tc := matching.DefaultTrainConfig()
			tc.Epochs = 2
			model := matching.NewKADSM(m.W2V.Vec, kn, m.W2V.Dim, tc)
			model.Train(train)
			matching.Evaluate(model, test)
		}
	}
}

// BenchmarkNetQueries measures raw store throughput: name lookup, concept
// card assembly, ancestor traversal.
func BenchmarkNetQueries(b *testing.B) {
	a := benchArtifacts(b)
	concept := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	coat := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Net.FindByName("grill")
		a.Net.ItemsForEConcept(concept, 10)
		a.Net.Ancestors(coat, 0)
	}
}

// --- frozen-vs-locked serving benchmarks -------------------------------
//
// Each BenchmarkFrozenVsLocked* pair runs the identical read workload
// against the mutex-guarded *core.Net and the immutable *core.FrozenNet
// snapshot. These are the paper's online serving paths (Section 8), so the
// frozen side is expected to be several times faster with ~0 allocs/op;
// scripts/bench.sh records the trajectory in BENCH_core.json.

// lockedVsFrozen runs fn once per iteration against each store. fn gets
// the sub-benchmark's own *testing.B so failures land on the right
// goroutine.
func lockedVsFrozen(b *testing.B, a *pipeline.Artifacts, fn func(b *testing.B, net core.Reader)) {
	b.Helper()
	frozen := a.Frozen
	b.Run("locked", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn(b, a.Net)
		}
	})
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn(b, frozen)
		}
	})
}

// BenchmarkFrozenVsLockedOut measures the innermost read: kind-filtered
// adjacency of a well-connected e-commerce concept node.
func BenchmarkFrozenVsLockedOut(b *testing.B) {
	a := benchArtifacts(b)
	concept := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	lockedVsFrozen(b, a, func(_ *testing.B, net core.Reader) {
		net.Out(concept, core.EdgeInterpretedBy)
		net.In(concept, core.EdgeItemEConcept)
	})
}

// BenchmarkFrozenVsLockedTraversal measures the isA BFS used by hypernym
// lookups and relevance expansion.
func BenchmarkFrozenVsLockedTraversal(b *testing.B) {
	a := benchArtifacts(b)
	coat := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	item := a.Net.NodesOfKind(core.KindItem)[0]
	cat := a.Net.FirstByNameKind("category", core.KindClass)
	lockedVsFrozen(b, a, func(_ *testing.B, net core.Reader) {
		net.Ancestors(coat, 0)
		net.IsAncestor(item, cat)
	})
}

// BenchmarkFrozenVsLockedConceptCard measures concept-card assembly (the
// Figure 2 search surface): weight-ranked item postings for a concept.
func BenchmarkFrozenVsLockedConceptCard(b *testing.B) {
	a := benchArtifacts(b)
	concept := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	lockedVsFrozen(b, a, func(_ *testing.B, net core.Reader) {
		net.ItemsForEConcept(concept, 10)
	})
}

// BenchmarkFrozenVsLockedRecommend measures one cognitive recommendation
// (Section 8.2): concept voting over a session plus unseen-item selection.
// Engines are built once per store, the way serving builds one engine per
// published snapshot.
func BenchmarkFrozenVsLockedRecommend(b *testing.B) {
	a := benchArtifacts(b)
	raw := a.World.ClickLog(20)
	var viewed []core.NodeID
	for _, id := range raw[0].Viewed {
		viewed = append(viewed, a.ItemNode[id])
	}
	engines := map[string]*recommend.Engine{
		"locked": recommend.NewEngine(a.Net),
		"frozen": recommend.NewEngine(a.Frozen),
	}
	for _, name := range []string{"locked", "frozen"} {
		engine := engines[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, ok := engine.Recommend(viewed, 10); !ok {
					b.Fatal("no recommendation")
				}
			}
		})
	}
}

// BenchmarkFrozenVsLockedNodesOfKind measures the per-layer index: the
// locked net scans all nodes, the snapshot returns a precomputed slice.
func BenchmarkFrozenVsLockedNodesOfKind(b *testing.B) {
	a := benchArtifacts(b)
	lockedVsFrozen(b, a, func(_ *testing.B, net core.Reader) {
		net.NodesOfKind(core.KindEConcept)
	})
}

// --- cold-start benchmarks ---------------------------------------------
//
// The pair contrasts the two ways a server can reach serving state:
// rebuild from scratch (world, corpus, pattern mining, net, freeze) versus
// loading a committed snapshot generation from disk.
// scripts/bench.sh records both in BENCH_core.json; the frozen side is
// expected to win since it is bounded by I/O bandwidth, not by generating
// and indexing the world. Neither trains a model: serving reads none.

// BenchmarkColdStartLive measures a from-scratch cold start at test scale:
// the full pipeline build ending in a published frozen snapshot.
func BenchmarkColdStartLive(b *testing.B) {
	opts := pipeline.TinyOptions()
	for i := 0; i < b.N; i++ {
		a, err := pipeline.Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		if a.Frozen.NumNodes() == 0 {
			b.Fatal("empty net")
		}
	}
}

// BenchmarkColdStartFrozen measures cold start from a snapshot: one
// pipeline.LoadShards of a one-shard generation of the same net
// BenchmarkColdStartLive builds — manifest, meta.bin and the shard file,
// each read and verified (the files stay in the page cache across
// iterations).
func BenchmarkColdStartFrozen(b *testing.B) {
	a, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		b.Fatal(err)
	}
	root := b.TempDir()
	if _, err := a.SaveShards(root, 1); err != nil {
		b.Fatal(err)
	}
	dir, _, err := snapstore.ResolveDir(root)
	if err != nil {
		b.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		b.Fatal(err)
	}
	var size int64
	for _, e := range entries {
		fi, err := e.Info()
		if err != nil {
			b.Fatal(err)
		}
		size += fi.Size()
	}
	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		arts, _, err := pipeline.LoadShards(dir)
		if err != nil {
			b.Fatal(err)
		}
		if arts.Shards[0].NumNodes() != a.Frozen.NumNodes() {
			b.Fatal("loaded net differs")
		}
	}
}

// BenchmarkFrozenSearchEngine measures an end-to-end query through the
// search engine on each store.
func BenchmarkFrozenSearchEngine(b *testing.B) {
	a := benchArtifacts(b)
	frozen := a.Frozen
	for _, tc := range []struct {
		name string
		net  core.Reader
	}{{"locked", a.Net}, {"frozen", frozen}} {
		engine := search.NewEngine(tc.net, a.World.Stopwords())
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				engine.Search("outdoor barbecue", 10)
			}
		})
	}
}

// --- parallel serving benchmarks ---------------------------------------
//
// The zero-allocation query path is built for many goroutines hitting one
// frozen snapshot: scratch state is pooled per engine, responses are
// caller-reused, reads are lock-free. b.RunParallel exercises exactly that
// shape; allocs/op is the headline number (expected 0 for exact-match
// search) and bench.sh records it in BENCH_core.json.

// benchCoCo builds a facade around the shared testbed with the query
// caches deliberately left unallocated: the batch/sequential benchmarks
// below measure engine dispatch, and a warm cache would collapse them all
// into hit measurements (BenchmarkServeCacheHit/Miss in cmd/cocoserve
// cover the cached path).
func benchCoCo(b *testing.B) *CoCo {
	arts := *benchArtifacts(b)
	arts.Shards = []*core.FrozenNet{arts.Frozen}
	c := &CoCo{}
	c.arts.Store(&arts)
	if err := c.publishShards(&arts, "build", shardLoc{}, nil); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkParallelFrozenSearch measures concurrent exact-match queries
// through SearchInto with per-goroutine reused Responses.
func BenchmarkParallelFrozenSearch(b *testing.B) {
	a := benchArtifacts(b)
	engine := search.NewEngine(a.Frozen, a.World.Stopwords())
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var resp search.Response
		for pb.Next() {
			engine.SearchInto(&resp, "outdoor barbecue", 10)
		}
	})
}

// BenchmarkParallelFrozenRecommend measures concurrent sessions through
// RecommendInto with per-goroutine reused Recommendations.
func BenchmarkParallelFrozenRecommend(b *testing.B) {
	a := benchArtifacts(b)
	raw := a.World.ClickLog(20)
	var viewed []core.NodeID
	for _, id := range raw[0].Viewed {
		viewed = append(viewed, a.ItemNode[id])
	}
	engine := recommend.NewEngine(a.Frozen)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var rec recommend.Recommendation
		for pb.Next() {
			engine.RecommendInto(&rec, viewed, 10)
		}
	})
}

// BenchmarkParallelFrozenTraversal measures concurrent append-style BFS
// into per-goroutine reused buffers (the pooled visited arrays are the
// shared resource under contention).
func BenchmarkParallelFrozenTraversal(b *testing.B) {
	a := benchArtifacts(b)
	coat := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var dst []core.NodeID
		for pb.Next() {
			dst = a.Frozen.AppendAncestors(dst[:0], coat, 0)
		}
	})
}

// --- batch serving benchmarks ------------------------------------------
//
// One facade batch call versus the same page of queries issued one at a
// time: the batch pins a single snapshot and fans across internal/par
// workers, so on multi-core hosts it wins wall-clock; on one core it
// documents the overhead floor.

func benchBatchQueries(a *pipeline.Artifacts) []string {
	queries := []string{"outdoor barbecue", "winter coat", "grill", "coat"}
	for _, qs := range a.World.QuerySet(28) {
		queries = append(queries, strings.Join(qs.Tokens, " "))
	}
	return queries
}

// BenchmarkBatchServeSearch compares a 32-query page served sequentially
// against one SearchBatch call.
func BenchmarkBatchServeSearch(b *testing.B) {
	c := benchCoCo(b)
	queries := benchBatchQueries(benchArtifacts(b))
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				c.Search(q, 10)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.SearchBatch(queries, 10)
		}
	})
}

// BenchmarkBatchServeRecommend compares a page of sessions served
// sequentially against one RecommendBatch call.
func BenchmarkBatchServeRecommend(b *testing.B) {
	c := benchCoCo(b)
	sessions := c.SampleSessions(32)
	if len(sessions) == 0 {
		b.Fatal("no sessions")
	}
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sessions {
				c.Recommend(s, 10)
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.RecommendBatch(sessions, 10)
		}
	})
}

// --- sharded serving benchmarks ----------------------------------------
//
// The same hot read workloads against an N-shard partition of the store:
// N=1 serves the sole shard directly (the unsharded fast path, expected
// within noise of the frozen net), N=4 routes every point lookup to its
// owner shard and scatter-gathers traversals — the per-query cost of
// independent reloadability. scripts/bench.sh records both in
// BENCH_core.json.

// benchShardStore partitions the shared testbed into n shards and returns
// the store serving reads: the sole shard itself for n=1 (exactly what the
// facade publishes), the scatter-gather set otherwise.
func benchShardStore(b *testing.B, n int) core.Reader {
	b.Helper()
	a := benchArtifacts(b)
	shards := a.Net.FreezeShards(n)
	if n == 1 {
		return shards[0]
	}
	set, err := core.NewShardSet(shards)
	if err != nil {
		b.Fatal(err)
	}
	return set
}

// BenchmarkShardedSearch measures an exact-match query through the search
// engine on a 1-shard and a 4-shard partition with a reused Response —
// the sharded counterpart of BenchmarkSearchIntoReused.
func BenchmarkShardedSearch(b *testing.B) {
	a := benchArtifacts(b)
	for _, n := range []int{1, 4} {
		engine := search.NewEngine(benchShardStore(b, n), a.World.Stopwords())
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var resp search.Response
			for i := 0; i < b.N; i++ {
				engine.SearchInto(&resp, "outdoor barbecue", 10)
			}
		})
	}
}

// BenchmarkShardedRecommend measures one cognitive recommendation against
// a 1-shard and a 4-shard partition with a reused Recommendation.
func BenchmarkShardedRecommend(b *testing.B) {
	a := benchArtifacts(b)
	raw := a.World.ClickLog(20)
	var viewed []core.NodeID
	for _, id := range raw[0].Viewed {
		viewed = append(viewed, a.ItemNode[id])
	}
	for _, n := range []int{1, 4} {
		engine := recommend.NewEngine(benchShardStore(b, n))
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var rec recommend.Recommendation
			for i := 0; i < b.N; i++ {
				if !engine.RecommendInto(&rec, viewed, 10) {
					b.Fatal("no recommendation")
				}
			}
		})
	}
}

// BenchmarkShardedFreeze contrasts republish latency: one whole-net freeze
// versus freezing a 4-shard partition (each shard is an independent range,
// frozen in parallel across internal/par workers — on multi-core hosts the
// partition refreeze wins wall-clock; on one core it documents the
// partitioning overhead).
func BenchmarkShardedFreeze(b *testing.B) {
	a := benchArtifacts(b)
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if a.Net.Freeze().NumNodes() == 0 {
				b.Fatal("empty freeze")
			}
		}
	})
	b.Run("shards4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if len(a.Net.FreezeShards(4)) != 4 {
				b.Fatal("bad partition")
			}
		}
	})
}

// BenchmarkSearchIntoReused is the single-goroutine zero-allocation
// headline: exact-match search through a reused Response on the frozen
// snapshot (compare against BenchmarkFrozenSearchEngine/frozen, which
// allocates a fresh Response per query).
func BenchmarkSearchIntoReused(b *testing.B) {
	a := benchArtifacts(b)
	engine := search.NewEngine(a.Frozen, a.World.Stopwords())
	var resp search.Response
	engine.SearchInto(&resp, "outdoor barbecue", 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engine.SearchInto(&resp, "outdoor barbecue", 10)
	}
}
