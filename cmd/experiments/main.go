// Command experiments regenerates every table and figure of the paper's
// evaluation section (Section 7 and the Section 8 application studies)
// against the synthetic testbed. Each experiment prints a markdown table
// with the paper's reported values alongside the measured ones.
//
// Usage:
//
//	experiments -exp all|table2|table3|table4|table5|table6|fig9left|fig9right|coverage|search|recommend [-scale tiny|default]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"alicoco/internal/apps/recommend"
	"alicoco/internal/apps/search"
	"alicoco/internal/conceptgen"
	"alicoco/internal/core"
	"alicoco/internal/hypernym"
	"alicoco/internal/mat"
	"alicoco/internal/matching"
	"alicoco/internal/pipeline"
	"alicoco/internal/tagging"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (all, table2..table6, fig9left, fig9right, coverage, search, recommend)")
	scale := flag.String("scale", "default", "testbed scale: tiny or default")
	flag.Parse()

	tb := buildTestbed(*scale)
	run := func(name string, fn func(*testbed)) {
		if *exp != "all" && *exp != name {
			return
		}
		start := time.Now()
		fmt.Printf("\n## %s\n\n", name)
		fn(tb)
		fmt.Printf("\n_(%s in %.1fs)_\n", name, time.Since(start).Seconds())
	}

	run("table2", expTable2)
	run("fig9left", expFig9Left)
	run("fig9right", expFig9Right)
	run("table3", expTable3)
	run("table4", expTable4)
	run("table5", expTable5)
	run("table6", expTable6)
	run("coverage", expCoverage)
	run("search", expSearch)
	run("recommend", expRecommend)
}

// testbed is the shared world + corpus + embedding stack.
type testbed struct {
	scale  string
	arts   *pipeline.Artifacts
	frozen *core.ShardSet // arts.Net frozen once: Table 2 and every engine read it
	models *pipeline.Models
	embed  func(tokens []string) mat.Vec
	dim    int
}

func buildTestbed(scale string) *testbed {
	opts := pipeline.DefaultOptions()
	if scale == "tiny" {
		opts = pipeline.TinyOptions()
	}
	// Stronger embeddings for the model experiments. Workers=1 keeps
	// training bit-exact deterministic so the reproduced tables are
	// stable across reruns and machines (the default options train in
	// parallel; reproduction trades speed for exactness).
	opts.W2V.Dim = 32
	opts.W2V.Epochs = 10
	opts.W2V.Workers = 1
	arts, err := pipeline.Build(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "build failed:", err)
		os.Exit(1)
	}
	models, err := arts.TrainModels()
	if err != nil {
		fmt.Fprintln(os.Stderr, "train failed:", err)
		os.Exit(1)
	}
	tb := &testbed{scale: scale, arts: arts, frozen: arts.Net.Freeze(), models: models, dim: opts.W2V.Dim}
	tb.embed = func(tokens []string) mat.Vec {
		vs := models.W2V.EmbedSeq(tokens)
		out := mat.NewVec(tb.dim)
		for _, v := range vs {
			out.Add(v)
		}
		if len(vs) > 0 {
			out.Scale(1 / float64(len(vs)))
		}
		return out
	}
	fmt.Printf("testbed: scale=%s nodes=%d edges=%d corpus=%d sentences\n",
		scale, arts.Net.NumNodes(), arts.Net.NumEdges(), arts.Corpus.Sentences())
	return tb
}

// ------------------------------------------------------------- Table 2 ----

func expTable2(tb *testbed) {
	s := tb.frozen.ComputeStats()
	fmt.Println("Paper (Table 2, production scale) vs this testbed (synthetic scale).")
	fmt.Println()
	fmt.Println("| Quantity | Paper | Measured |")
	fmt.Println("|---|---|---|")
	fmt.Printf("| Primitive concepts | 2,853,276 | %d |\n", s.PerKind["primitive"])
	fmt.Printf("| E-commerce concepts | 5,262,063 | %d |\n", s.PerKind["econcept"])
	fmt.Printf("| Items | >3B | %d |\n", s.PerKind["item"])
	fmt.Printf("| Relations | >400B | %d |\n", s.Edges)
	fmt.Printf("| IsA (primitive layer) | 131,968 | %d |\n", s.IsAPrimitive)
	fmt.Printf("| IsA (e-commerce layer) | 22,287,167 | %d |\n", s.IsAEConcept)
	fmt.Printf("| Item-primitive edges | 21B | %d |\n", s.EdgesByKind["itemPrimitive"])
	fmt.Printf("| Item-econcept edges | 405B | %d |\n", s.EdgesByKind["itemEConcept"])
	fmt.Printf("| Econcept-primitive edges | 33,495,112 | %d |\n", s.EdgesByKind["interpretedBy"])
	fmt.Printf("| Avg primitives per item | 14 | %.1f |\n", s.AvgPrimitivesPerItem)
	fmt.Printf("| Avg e-concepts per item | 135 | %.1f |\n", s.AvgEConceptsPerItem)
	fmt.Printf("| Avg items per e-concept | 74,420 | %.1f |\n", s.AvgItemsPerEConcept)
	fmt.Println()
	fmt.Println("Primitive concepts per domain (measured):")
	fmt.Println()
	fmt.Print("```\n" + s.Render() + "```")
}

// -------------------------------------------------- hypernym experiments ----

func hypernymDataset(tb *testbed) *hypernym.Dataset {
	return hypernym.BuildDataset(tb.arts.World, tb.embed, 5)
}

func expFig9Left(tb *testbed) {
	d := hypernymDataset(tb)
	pos := d.TrainPos
	if len(pos) > 300 {
		pos = pos[:300]
	}
	fmt.Println("Figure 9 (left): MAP vs negative:positive ratio N (mean of 3 seeds).")
	fmt.Println("Paper shape: rises, best near N=100.")
	fmt.Println()
	fmt.Println("| N | MAP |")
	fmt.Println("|---|---|")
	for _, n := range []int{10, 20, 40, 60, 80, 100, 200} {
		var sum float64
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			train := d.TrainSet(pos, n, 7+s)
			model := hypernym.NewProjection(tb.dim, 4, 9+s)
			model.Fit(train, 6, 0.01, 32, 13+s)
			ev := d.Evaluate(model, d.TestPos, 0, 1)
			sum += ev.MAP
		}
		fmt.Printf("| %d | %.4f |\n", n, sum/seeds)
	}
}

func alPoolAndConfig(tb *testbed, d *hypernym.Dataset) ([]hypernym.Example, hypernym.ALConfig) {
	pos := d.TrainPos
	if len(pos) > 300 {
		pos = pos[:300]
	}
	pool := append(d.TrainSet(pos, 6, 21), d.HardNegatives(pos, 4, 22)...)
	cfg := hypernym.DefaultALConfig(tb.dim)
	cfg.K = len(pool) / 12
	cfg.MaxIters = 12
	cfg.Patience = 3
	cfg.Epochs = 4
	return pool, cfg
}

func expFig9Right(tb *testbed) {
	d := hypernymDataset(tb)
	pool, cfg := alPoolAndConfig(tb, d)
	fmt.Println("Figure 9 (right): best MAP per sampling strategy. Paper shape: UCS best (48.82%).")
	fmt.Println()
	fmt.Println("| Strategy | Best MAP |")
	fmt.Println("|---|---|")
	for _, strat := range []hypernym.Strategy{hypernym.Random, hypernym.US, hypernym.CS, hypernym.UCS} {
		res := hypernym.RunActiveLearning(d, pool, d.TestPos, cfg, strat)
		fmt.Printf("| %s | %.4f |\n", strat, res.Best.MAP)
	}
}

func expTable3(tb *testbed) {
	d := hypernymDataset(tb)
	pool, cfg := alPoolAndConfig(tb, d)

	// "Random" in Table 3 is training on the whole labeled pool without
	// active learning (labeled size = pool size).
	full := hypernym.NewProjection(cfg.EmbDim, cfg.TensorK, cfg.Seed+100)
	full.Fit(pool, cfg.Epochs, cfg.LR, 32, cfg.Seed)
	fullEv := d.Evaluate(full, d.TestPos, cfg.MaxCands, cfg.Seed)
	target := fullEv.MAP * 0.96

	fmt.Printf("Table 3: labels needed to reach a MAP comparable to full-pool training (target %.4f = 96%% of Random).\n", target)
	fmt.Println("Paper: Random 500k / US 375k / CS 400k / UCS 325k (UCS most economical, -35%).")
	fmt.Println()
	fmt.Println("| Strategy | Labeled | MRR | MAP | P@1 | Reduce vs Random |")
	fmt.Println("|---|---|---|---|---|---|")
	fmt.Printf("| Random (full pool) | %d | %.4f | %.4f | %.4f | - |\n",
		len(pool), fullEv.MRR, fullEv.MAP, fullEv.P1)
	for _, strat := range []hypernym.Strategy{hypernym.US, hypernym.CS, hypernym.UCS} {
		res := hypernym.RunActiveLearning(d, pool, d.TestPos, cfg, strat)
		labels := res.LabelsToReach(target)
		reduce := "(target not reached)"
		if labels < 0 {
			labels = res.LabeledUsed
		} else {
			reduce = fmt.Sprintf("%d (-%.0f%%)", len(pool)-labels, 100*float64(len(pool)-labels)/float64(len(pool)))
		}
		fmt.Printf("| %s | %d | %.4f | %.4f | %.4f | %s |\n",
			strat, labels, res.Best.MRR, res.Best.MAP, res.Best.P1, reduce)
	}
}

// ------------------------------------------------------------- Table 4 ----

func expTable4(tb *testbed) {
	w := tb.arts.World
	glossary := tb.models.Glossary
	domainIdx := make(map[world.Domain]int)
	for i, d := range world.Domains {
		domainIdx[d] = i + 1
	}
	// Annotation is the scarce resource in the paper (the labeling ran for
	// months); the testbed mirrors that with a modest training set and a
	// large held-out test set whose implausible negatives use constraint
	// instantiations never seen in training — only generalization (not
	// memorization) solves them.
	nTrain, nTest := 800, 800
	if tb.scale == "tiny" {
		nTrain, nTest = 400, 300
	}
	trainCands, testCands := w.ConceptCandidatesHoldout(nTrain, nTest)

	configure := func(useChar, useWide, useLM, useKnow bool, seed int64) (float64, float64) {
		cfg := conceptgen.DefaultConfig()
		cfg.Epochs = 6
		cfg.Seed = seed
		cfg.UseChar, cfg.UseWide, cfg.UseLM, cfg.UseKnowledge = useChar, useWide, useLM, useKnow
		fz := &conceptgen.Featurizer{
			CharVocab: text.NewVocab(),
			WordVocab: text.NewVocab(),
			POS:       tb.models.POS,
			LM:        tb.models.LM,
			GlossDim:  cfg.GlossDim,
			UseLM:     useLM,
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
				v := glossary.Vec(ids[0])
				out := mat.NewVec(cfg.GlossDim)
				copy(out, v)
				return out
			},
		}
		var trainS, testS []conceptgen.Sample
		for _, cand := range trainCands {
			trainS = append(trainS, conceptgen.Sample{Feat: fz.Featurize(cand.Tokens), Label: cand.Good})
		}
		for _, cand := range testCands {
			testS = append(testS, conceptgen.Sample{Feat: fz.Featurize(cand.Tokens), Label: cand.Good})
		}
		fz.CharVocab.Freeze()
		fz.WordVocab.Freeze()
		cls := conceptgen.NewClassifier(cfg, fz.CharVocab.Len(), fz.WordVocab.Len())
		cls.Train(trainS)
		return cls.EvaluatePrecision(testS)
	}

	fmt.Println("Table 4: concept classification ablation. Paper: 0.870 / 0.900 / 0.915 / 0.935.")
	fmt.Println("(The +Wide row groups the character branch with the surface-form wide features.)")
	fmt.Println()
	fmt.Println("| Model | Paper precision | Measured precision | Measured accuracy |")
	fmt.Println("|---|---|---|---|")
	rows := []struct {
		name                 string
		char, wide, lm, know bool
		paper                string
	}{
		{"Baseline (LSTM + Self Attention)", false, false, false, false, "0.870"},
		{"+Wide", true, true, false, false, "0.900"},
		{"+Wide & LM (BERT stand-in)", true, true, true, false, "0.915"},
		{"+Wide & LM & Knowledge", true, true, true, true, "0.935"},
	}
	for _, r := range rows {
		var sumP, sumA float64
		const seeds = 5
		for s := int64(0); s < seeds; s++ {
			prec, acc := configure(r.char, r.wide, r.lm, r.know, 23+s*37)
			sumP += prec
			sumA += acc
		}
		fmt.Printf("| %s | %s | %.3f | %.3f |\n", r.name, r.paper, sumP/seeds, sumA/seeds)
	}
	fmt.Println("\n(mean of 5 seeds; test negatives use held-out constraint instantiations)")
}

// ------------------------------------------------------------- Table 5 ----

func expTable5(tb *testbed) {
	w := tb.arts.World
	extra := 600
	if tb.scale == "tiny" {
		extra = 200
	}
	train, test := tagging.BuildDataset(w, extra, extra/2, 3)
	ambiguous := tagging.FilterAmbiguous(w, test)
	tm := tagging.BuildTextMatrix(tb.arts.Corpus.All(), tb.models.D2V, 8)

	runCfg := func(fuzzy, know bool) (float64, float64, float64, float64) {
		cfg := tagging.DefaultConfig()
		cfg.UseFuzzy, cfg.UseKnowledge = fuzzy, know
		cfg.TMDim = tb.dim
		var tmFn func(string) mat.Vec
		if know {
			tmFn = tm
		}
		tg := tagging.NewTagger(world.DomainNames(), tb.models.POS, tmFn, cfg)
		tg.Train(train)
		p, r, f1 := tagging.Evaluate(tg, test)
		_, _, f1Amb := tagging.Evaluate(tg, ambiguous)
		return p, r, f1, f1Amb
	}

	fmt.Printf("Table 5: concept tagging ablation (%d test concepts, %d with ambiguous surfaces).\n", len(test), len(ambiguous))
	fmt.Println("Paper F1: 0.8523 / 0.8703 / 0.8772.")
	fmt.Println()
	fmt.Println("| Model | Paper F1 | P | R | F1 | F1 (ambiguous subset) |")
	fmt.Println("|---|---|---|---|---|---|")
	rows := []struct {
		name        string
		fuzzy, know bool
		paper       string
	}{
		{"Baseline (BiLSTM-CRF)", false, false, "0.8523"},
		{"+Fuzzy CRF", true, false, "0.8703"},
		{"+Fuzzy CRF & Knowledge", true, true, "0.8772"},
	}
	for _, r := range rows {
		p, rc, f1, f1Amb := runCfg(r.fuzzy, r.know)
		fmt.Printf("| %s | %s | %.4f | %.4f | %.4f | %.4f |\n", r.name, r.paper, p, rc, f1, f1Amb)
	}
}

// ------------------------------------------------------------- Table 6 ----

func expTable6(tb *testbed) {
	w := tb.arts.World
	nPairs := 2500
	if tb.scale == "tiny" {
		nPairs = 600
	}
	pairs := matching.BuildPairs(w, nPairs, nPairs)
	train, test := matching.SplitPairs(pairs, 0.8, 9)
	groups := matching.BuildGroupedEval(w, 25, 30, 77)
	knowledge := matching.KnowledgeFn(w, tb.models.Glossary)
	embed := tb.models.W2V.Vec

	tc := matching.DefaultTrainConfig()
	tc.Epochs = 8

	models := []matching.Matcher{
		matching.BM25Squashed{BM25: matching.NewBM25()},
		matching.NewDSSM(embed, tb.dim, tc),
		matching.NewMatchPyramid(embed, tb.dim, tc),
		matching.NewRE2(embed, tb.dim, tc),
		matching.NewKADSM(embed, nil, tb.dim, tc),
		matching.NewKADSM(embed, knowledge, tb.dim, tc),
	}
	paper := map[string][3]string{
		"BM25":           {"-", "-", "0.7681"},
		"DSSM":           {"0.7885", "0.6937", "0.7971"},
		"MatchPyramid":   {"0.8127", "0.7352", "0.7813"},
		"RE2":            {"0.8664", "0.7052", "0.8977"},
		"Ours":           {"0.8610", "0.7532", "0.9015"},
		"Ours+Knowledge": {"0.8713", "0.7769", "0.9048"},
	}
	fmt.Println("Table 6: concept-item semantic matching.")
	fmt.Println()
	fmt.Println("| Model | Paper AUC | AUC | Paper F1 | F1 | Paper P@10 | P@10 |")
	fmt.Println("|---|---|---|---|---|---|---|")
	for _, m := range models {
		m.Train(train)
		res := matching.Evaluate(m, test)
		p10 := matching.EvaluateGrouped(m, groups)
		pp := paper[m.Name()]
		fmt.Printf("| %s | %s | %.4f | %s | %.4f | %s | %.4f |\n",
			m.Name(), pp[0], res.AUC, pp[1], res.F1, pp[2], p10)
	}
}

// ------------------------------------------------------------ coverage ----

func expCoverage(tb *testbed) {
	// Engines serve from the frozen snapshot; MeasureCoverage fans each
	// day's queries out across GOMAXPROCS workers.
	full := search.NewEngine(tb.frozen, tb.arts.World.Stopwords())
	cpv := search.NewCPVEngine(tb.frozen, tb.arts.World.Stopwords())
	days := 30
	perDay := 2000
	if tb.scale == "tiny" {
		perDay = 400
	}
	var sumFull, sumCPV float64
	fmt.Println("Section 7.1 coverage: 30 daily samples of rewritten queries.")
	fmt.Println("Paper: AliCoCo ~75% vs former CPV ontology ~30%.")
	fmt.Println()
	fmt.Println("| Day | AliCoCo coverage | CPV coverage |")
	fmt.Println("|---|---|---|")
	for day := 0; day < days; day++ {
		qs := tb.arts.World.QuerySet(perDay)
		queries := make([][]string, len(qs))
		for i, q := range qs {
			queries[i] = q.Tokens
		}
		cf := search.MeasureCoverage(full, queries)
		cc := search.MeasureCoverage(cpv, queries)
		sumFull += cf.Rate()
		sumCPV += cc.Rate()
		if day < 5 || day == days-1 {
			fmt.Printf("| %d | %.3f | %.3f |\n", day+1, cf.Rate(), cc.Rate())
		} else if day == 5 {
			fmt.Println("| ... | ... | ... |")
		}
	}
	fmt.Printf("\n30-day mean: AliCoCo %.3f vs CPV %.3f (paper: 0.75 vs 0.30)\n", sumFull/float64(days), sumCPV/float64(days))
}

// -------------------------------------------------------------- search ----

func expSearch(tb *testbed) {
	n := 2000
	if tb.scale == "tiny" {
		n = 400
	}
	// Case scoring fans out across workers against the frozen snapshot.
	cases := search.BuildRelevanceCases(tb.frozen, n, 3)
	plain := search.EvalRelevance(tb.frozen, cases, false)
	expanded := search.EvalRelevance(tb.frozen, cases, true)
	fmt.Println("Section 8.1.1 search relevance with isA expansion.")
	fmt.Println("Paper: +1% AUC offline; -4% relevance bad cases online.")
	fmt.Println()
	fmt.Println("| Setting | AUC | Bad cases | Cases |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| Lexical only | %.4f | %d | %d |\n", plain.AUC, plain.BadCases, plain.Total)
	fmt.Printf("| + isA expansion | %.4f | %d | %d |\n", expanded.AUC, expanded.BadCases, expanded.Total)
	drop := 0.0
	if plain.BadCases > 0 {
		drop = 100 * float64(plain.BadCases-expanded.BadCases) / float64(plain.BadCases)
	}
	fmt.Printf("\nAUC lift: %+.4f; bad cases dropped by %.1f%%\n", expanded.AUC-plain.AUC, drop)
}

// ----------------------------------------------------------- recommend ----

func expRecommend(tb *testbed) {
	nSessions := 400
	if tb.scale == "tiny" {
		nSessions = 120
	}
	raw := tb.arts.World.ClickLog(nSessions)
	var history [][]core.NodeID
	var sessions [][2][]core.NodeID
	for i, s := range raw {
		var viewed, clicked []core.NodeID
		for _, id := range s.Viewed {
			viewed = append(viewed, tb.arts.ItemNode[id])
		}
		for _, id := range s.Clicked {
			clicked = append(clicked, tb.arts.ItemNode[id])
		}
		if i < nSessions*2/3 {
			history = append(history, append(append([]core.NodeID{}, viewed...), clicked...))
		} else {
			sessions = append(sessions, [2][]core.NodeID{viewed, clicked})
		}
	}
	engine := recommend.NewEngine(tb.frozen)
	cf := recommend.NewItemCF(history)
	ranker := recommend.CoViewScore(cf)
	conceptRec := func(viewed []core.NodeID, k int) []core.NodeID {
		rec, ok := engine.RecommendRanked(viewed, k, nil)
		if !ok {
			return nil
		}
		return rec.Items
	}
	conceptRanked := func(viewed []core.NodeID, k int) []core.NodeID {
		rec, ok := engine.RecommendRanked(viewed, k, ranker)
		if !ok {
			return nil
		}
		return rec.Items
	}
	k := 10
	// Replay fans sessions out across workers; the engines read the frozen
	// snapshot lock-free.
	resConcept := recommend.Replay(tb.frozen, conceptRec, sessions, k)
	resRanked := recommend.Replay(tb.frozen, conceptRanked, sessions, k)
	resCF := recommend.Replay(tb.frozen, cf.Recommend, sessions, k)
	fmt.Println("Section 8.2.1 cognitive recommendation, offline replay (CTR proxy = hit rate on held-out clicks).")
	fmt.Println("Paper: concept recall followed by a ranking model, in production >1 year with high CTR.")
	fmt.Println()
	fmt.Println("| Recommender | HitRate@10 | Novelty | Session coverage |")
	fmt.Println("|---|---|---|---|")
	fmt.Printf("| Concept recall only | %.4f | %.4f | %.4f |\n", resConcept.HitRate, resConcept.Novelty, resConcept.Covered)
	fmt.Printf("| Concept recall + ranking (production design) | %.4f | %.4f | %.4f |\n", resRanked.HitRate, resRanked.Novelty, resRanked.Covered)
	fmt.Printf("| Item-CF baseline | %.4f | %.4f | %.4f |\n", resCF.HitRate, resCF.Novelty, resCF.Covered)
}
