// Benchmarks: one testing.B per table and figure of the paper's evaluation
// (see DESIGN.md §3 for the experiment index). Each bench executes the same
// code path as `cmd/experiments` at reduced scale, so `go test -bench=.`
// regenerates the shape of every reported result. Full-scale numbers are
// produced by `go run alicoco/cmd/experiments` and recorded in
// EXPERIMENTS.md.
package alicoco

import (
	"context"
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
	"alicoco/internal/serving"
	"alicoco/internal/snapstore"
	"alicoco/internal/tagging"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// benchA, benchF and benchM are the shared tiny testbed, its one-shard
// freeze and its trained models, built once.
var (
	benchOnce sync.Once
	benchA    *pipeline.Artifacts
	benchF    *core.ShardSet
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
		benchA, benchF, benchM = a, a.Net.Freeze(), m
	})
	return benchA
}

// benchFrozen returns the one-shard freeze of the shared testbed.
func benchFrozen(b *testing.B) *core.ShardSet {
	benchArtifacts(b)
	return benchF
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

// BenchmarkTable2BuildNet measures the full four-layer construction (E1)
// and Table 2's statistics, read from a freeze of the net as
// cmd/experiments reads them.
func BenchmarkTable2BuildNet(b *testing.B) {
	opts := pipeline.TinyOptions()
	for i := 0; i < b.N; i++ {
		a, err := pipeline.Build(opts)
		if err != nil {
			b.Fatal(err)
		}
		s := a.Net.Freeze().ComputeStats()
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
	full := search.NewEngine(benchFrozen(b), a.World.Stopwords())
	cpv := search.NewCPVEngine(benchFrozen(b), a.World.Stopwords())
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
	net := benchFrozen(b)
	engine := recommend.NewEngine(net)
	conceptRec := func(viewed []core.NodeID, k int) []core.NodeID {
		rec, ok := engine.RecommendRanked(viewed, k, nil)
		if !ok {
			return nil
		}
		return rec.Items
	}
	cf := recommend.NewItemCF(history)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r1 := recommend.Replay(net, conceptRec, sessions, 10)
		r2 := recommend.Replay(net, cf.Recommend, sessions, 10)
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

// --- frozen serving benchmarks -----------------------------------------
//
// Each BenchmarkFrozenVsLocked* benchmark runs one read workload against
// the one-shard *core.ShardSet of the shared testbed (Net.Freeze): the
// paper's online serving paths (Section 8), expected at ~0 allocs/op.
// Their rows keep the "/frozen" names scripts/bench.sh records in
// BENCH_core.json, so the trajectory stays comparable.

// frozenRow runs fn once per iteration against the one-shard freeze, as
// the "frozen" sub-benchmark.
func frozenRow(b *testing.B, fn func(net *core.ShardSet)) {
	b.Helper()
	frozen := benchFrozen(b)
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn(frozen)
		}
	})
}

// BenchmarkFrozenVsLockedOut measures the innermost read: kind-filtered
// adjacency of a well-connected e-commerce concept node.
func BenchmarkFrozenVsLockedOut(b *testing.B) {
	a := benchArtifacts(b)
	concept := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	frozenRow(b, func(net *core.ShardSet) {
		net.Out(concept, core.EdgeInterpretedBy)
		net.In(concept, core.EdgeItemEConcept)
	})
}

// BenchmarkFrozenVsLockedTraversal measures the isA BFS used by hypernym
// lookups and relevance expansion.
func BenchmarkFrozenVsLockedTraversal(b *testing.B) {
	a := benchArtifacts(b)
	coat := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	item := benchFrozen(b).NodesOfKind(core.KindItem)[0]
	cat := a.Net.FirstByNameKind("category", core.KindClass)
	frozenRow(b, func(net *core.ShardSet) {
		net.Ancestors(coat, 0)
		net.IsAncestor(item, cat)
	})
}

// BenchmarkFrozenVsLockedConceptCard measures concept-card assembly (the
// Figure 2 search surface): weight-ranked item postings for a concept.
func BenchmarkFrozenVsLockedConceptCard(b *testing.B) {
	a := benchArtifacts(b)
	concept := a.Net.FirstByNameKind("outdoor barbecue", core.KindEConcept)
	frozenRow(b, func(net *core.ShardSet) {
		net.ItemsForEConcept(concept, 10)
	})
}

// BenchmarkFrozenVsLockedRecommend measures one cognitive recommendation
// (Section 8.2): concept voting over a session plus unseen-item selection.
// The engine is built once, the way serving builds one engine per
// published snapshot.
func BenchmarkFrozenVsLockedRecommend(b *testing.B) {
	a := benchArtifacts(b)
	raw := a.World.ClickLog(20)
	var viewed []core.NodeID
	for _, id := range raw[0].Viewed {
		viewed = append(viewed, a.ItemNode[id])
	}
	engine := recommend.NewEngine(benchFrozen(b))
	ctx := context.Background()
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, ok, err := engine.RecommendCtx(ctx, viewed, 10); err != nil || !ok {
				b.Fatal("no recommendation", err)
			}
		}
	})
}

// BenchmarkFrozenVsLockedNodesOfKind measures the per-layer index: the
// snapshot returns a precomputed slice.
func BenchmarkFrozenVsLockedNodesOfKind(b *testing.B) {
	frozenRow(b, func(net *core.ShardSet) {
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
		if a.Net.Freeze().NumNodes() == 0 {
			b.Fatal("empty net")
		}
	}
}

// BenchmarkColdStartFrozen measures cold start from a snapshot: a full
// load (snapstore.ReadManifest, then snapstore.LoadGen with nothing
// served) of a one-shard generation of the same net BenchmarkColdStartLive
// builds — manifest, meta.bin and the shard file, each read and verified
// (the files stay in the page cache across iterations).
func BenchmarkColdStartFrozen(b *testing.B) {
	a, err := pipeline.Build(pipeline.TinyOptions())
	if err != nil {
		b.Fatal(err)
	}
	root := b.TempDir()
	if _, _, err := a.SaveShardsRetain(root, 1, 0); err != nil {
		b.Fatal(err)
	}
	dir := newestGenDir(b, root)
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
		man, err := snapstore.ReadManifest(dir)
		if err != nil {
			b.Fatal(err)
		}
		shards, _, _, err := snapstore.LoadGen(dir, man, nil, nil, nil, -1)
		if err != nil {
			b.Fatal(err)
		}
		if shards[0].NumNodes() != a.Net.NumNodes() {
			b.Fatal("loaded net differs")
		}
	}
}

// BenchmarkBuildSharded measures the facade build every store publisher
// and the bench harness's set-up run: BuildSharded(Default(), 4), which
// builds the live net and freezes it into four shards.
func BenchmarkBuildSharded(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildSharded(Default(), 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSaveShards measures the commit that follows that build in
// set-up: SaveShards(dir, 4) of the partition the build froze, so no
// refreeze, into one store whose retention drops the oldest generation
// once it is full.
func BenchmarkSaveShards(b *testing.B) {
	c, err := BuildSharded(Default(), 4)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SaveShards(dir, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFrozenSearchEngine measures an end-to-end query through the
// search engine on the one-shard freeze.
func BenchmarkFrozenSearchEngine(b *testing.B) {
	a := benchArtifacts(b)
	engine := search.NewEngine(benchFrozen(b), a.World.Stopwords())
	b.Run("frozen", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := engine.SearchCtx(context.Background(), "outdoor barbecue", 10); err != nil {
				b.Fatal(err)
			}
		}
	})
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
	arts.Shards = benchFrozen(b).Shards()
	c := &CoCo{Core: &serving.Core{}, arts: &arts}
	if err := c.Publish(arts.Shards, arts.Serving, "build"); err != nil {
		b.Fatal(err)
	}
	return c
}

// BenchmarkParallelFrozenSearch measures concurrent exact-match queries
// through SearchInto with per-goroutine reused Responses.
func BenchmarkParallelFrozenSearch(b *testing.B) {
	a := benchArtifacts(b)
	engine := search.NewEngine(benchFrozen(b), a.World.Stopwords())
	ctx, q := context.Background(), []byte("outdoor barbecue")
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var resp search.Response
		for pb.Next() {
			_ = engine.SearchInto(ctx, &resp, q, 10)
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
	engine := recommend.NewEngine(benchFrozen(b))
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		var rec recommend.Recommendation
		for pb.Next() {
			_, _ = engine.RecommendInto(ctx, &rec, viewed, 10)
		}
	})
}

// BenchmarkParallelFrozenTraversal measures concurrent BFS: IsAncestor from
// coat to the taxonomy root walks coat's hypernym chain to its top (the
// pooled visited arrays are the shared resource under contention).
func BenchmarkParallelFrozenTraversal(b *testing.B) {
	a := benchArtifacts(b)
	frozen := benchFrozen(b)
	coat := a.Net.FirstByNameKind("coat", core.KindPrimitive)
	root := a.Net.FirstByNameKind("root", core.KindClass)
	if !frozen.IsAncestor(coat, root) {
		b.Fatal("root is not an ancestor of coat")
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			frozen.IsAncestor(coat, root)
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
// through SearchCtx against one SearchBatchBytesCtx call.
func BenchmarkBatchServeSearch(b *testing.B) {
	c := benchCoCo(b)
	queries := benchBatchQueries(benchArtifacts(b))
	qb := queryBytes(queries)
	ctx := context.Background()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				if _, err := c.SearchCtx(ctx, q, 10); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.SearchBatchBytesCtx(ctx, qb, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkBatchServeRecommend compares a page of sessions served
// sequentially through RecommendCtx against one RecommendBatchCtx call.
func BenchmarkBatchServeRecommend(b *testing.B) {
	c := benchCoCo(b)
	sessions := c.SampleSessions(32)
	if len(sessions) == 0 {
		b.Fatal("no sessions")
	}
	ctx := context.Background()
	b.Run("sequential", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, s := range sessions {
				if _, _, err := c.RecommendCtx(ctx, s, 10); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.RecommendBatchCtx(ctx, sessions, 10); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- sharded serving benchmarks ----------------------------------------
//
// The same hot read workloads against an N-shard partition of the store,
// both through the one frozen read path, core.ShardSet: N=1 is what Build
// and every one-shard catalog serve, N=4 what the bench/ workloads serve —
// every point lookup routes to its owner shard and traversals and name
// scans cross shards, the per-query cost of independent reloadability.
// scripts/bench.sh records both in BENCH_core.json.

// benchShardStore partitions the shared testbed into n shards and returns
// the ShardSet the facade would publish for them.
func benchShardStore(b *testing.B, n int) *core.ShardSet {
	b.Helper()
	set, err := core.NewShardSet(benchArtifacts(b).Net.FreezeShards(n))
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
	ctx, q := context.Background(), []byte("outdoor barbecue")
	for _, n := range []int{1, 4} {
		engine := search.NewEngine(benchShardStore(b, n), a.World.Stopwords())
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var resp search.Response
			for i := 0; i < b.N; i++ {
				if err := engine.SearchInto(ctx, &resp, q, 10); err != nil {
					b.Fatal(err)
				}
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
	ctx := context.Background()
	for _, n := range []int{1, 4} {
		engine := recommend.NewEngine(benchShardStore(b, n))
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var rec recommend.Recommendation
			for i := 0; i < b.N; i++ {
				if ok, err := engine.RecommendInto(ctx, &rec, viewed, 10); err != nil || !ok {
					b.Fatal("no recommendation", err)
				}
			}
		})
	}
}

// BenchmarkShardedFreeze contrasts republish latency: freezing the whole
// net into one shard versus freezing a 4-shard partition (each shard is an
// independent range, frozen in parallel across internal/par workers — on
// multi-core hosts the partition refreeze wins wall-clock; on one core it
// documents the partitioning overhead).
func BenchmarkShardedFreeze(b *testing.B) {
	a := benchArtifacts(b)
	b.Run("whole", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if a.Net.FreezeShards(1)[0].NumNodes() == 0 {
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
	engine := search.NewEngine(benchFrozen(b), a.World.Stopwords())
	ctx, q := context.Background(), []byte("outdoor barbecue")
	var resp search.Response
	if err := engine.SearchInto(ctx, &resp, q, 10); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = engine.SearchInto(ctx, &resp, q, 10)
	}
}

// BenchmarkReload measures the facade's publish of a committed generation,
// the per-layer twin of the bench harness's churn publish, over Default()
// committed to one 3-shard and one 4-shard store. It uses only the public
// API:
//   - noop: ReloadShards of the store being served, which reads no shard
//     and publishes nothing;
//   - shard: ReloadShard round-robin over the served shards, which reads
//     one shard and keeps the rest and the item table;
//   - reshard: ReloadShards alternately of the 4-shard and the 3-shard
//     store, which reads every shard — the path every churn publish takes.
func BenchmarkReload(b *testing.B) {
	c, err := BuildSharded(Default(), 3)
	if err != nil {
		b.Fatal(err)
	}
	stores := [2]string{b.TempDir(), b.TempDir()}
	for i, n := range []int{3, 4} {
		if _, err := c.SaveShards(stores[i], n); err != nil {
			b.Fatal(err)
		}
	}
	run := func(name string, reload func(l *CoCo, i int) error) {
		b.Run(name, func(b *testing.B) {
			l, err := LoadShardedFrozen(stores[0])
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := reload(l, i); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	run("noop", func(l *CoCo, _ int) error {
		n, err := l.ReloadShards(stores[0])
		if err == nil && n != 0 {
			err = fmt.Errorf("no-op reload read %d shards", n)
		}
		return err
	})
	run("shard", func(l *CoCo, i int) error { return l.ReloadShard(stores[0], i%3) })
	run("reshard", func(l *CoCo, i int) error {
		_, err := l.ReloadShards(stores[(i+1)%2])
		return err
	})
}
