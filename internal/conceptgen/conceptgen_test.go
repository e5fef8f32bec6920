package conceptgen

import (
	"testing"

	"alicoco/internal/emb"
	"alicoco/internal/mat"
	"alicoco/internal/text"
	"alicoco/internal/world"
)

// classifierFixture builds the full featurizer stack over a tiny world.
type classifierFixture struct {
	w     *world.World
	fz    *Featurizer
	train []Sample
	test  []Sample
}

func buildClassifierFixture(t *testing.T, cfg Config, nData int) *classifierFixture {
	t.Helper()
	w := world.New(world.TinyConfig())
	corpus := w.GenCorpus(300, 300, 200)
	lm := text.NewNGramLM()
	lm.Train(corpus.All())

	w2vCfg := emb.DefaultW2VConfig()
	w2vCfg.Dim = cfg.GlossDim
	w2vCfg.Epochs = 2
	w2v := emb.TrainWord2Vec(corpus.All(), w2vCfg)
	d2v := emb.NewDoc2Vec(w2v)
	glossary := emb.BuildGlossary(w.Glosses(), d2v)

	pos := text.NewPOSTagger()
	domainIdx := make(map[world.Domain]int)
	for i, d := range world.Domains {
		domainIdx[d] = i + 1
	}
	fz := &Featurizer{
		CharVocab: text.NewVocab(),
		WordVocab: text.NewVocab(),
		POS:       pos,
		LM:        lm,
		GlossDim:  cfg.GlossDim,
		UseLM:     cfg.UseLM,
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
			return glossary.Vec(ids[0])
		},
	}

	cands := w.ConceptCandidates(nData)
	var samples []Sample
	for _, cand := range cands {
		samples = append(samples, Sample{Feat: fz.Featurize(cand.Tokens), Label: cand.Good})
	}
	split := len(samples) * 8 / 10
	return &classifierFixture{w: w, fz: fz, train: samples[:split], test: samples[split:]}
}

func TestClassifierLearnsCriteria(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Epochs = 4
	fx := buildClassifierFixture(t, cfg, 700)
	fx.fz.CharVocab.Freeze()
	fx.fz.WordVocab.Freeze()
	cls := NewClassifier(cfg, fx.fz.CharVocab.Len(), fx.fz.WordVocab.Len())
	loss := cls.Train(fx.train)
	if loss > 0.7 {
		t.Fatalf("training loss did not drop: %v", loss)
	}
	prec, acc := cls.EvaluatePrecision(fx.test)
	if prec < 0.7 || acc < 0.65 {
		t.Fatalf("full model too weak: precision=%.3f accuracy=%.3f", prec, acc)
	}
}

func TestAblationOrdering(t *testing.T) {
	// Baseline (no wide, no LM, no knowledge) should not beat the full
	// model on precision; this is the Table 4 shape at test scale.
	base := DefaultConfig()
	base.UseWide, base.UseLM, base.UseKnowledge = false, false, false
	base.Epochs = 3
	full := DefaultConfig()
	full.Epochs = 3

	fxB := buildClassifierFixture(t, base, 500)
	fxB.fz.CharVocab.Freeze()
	fxB.fz.WordVocab.Freeze()
	clsB := NewClassifier(base, fxB.fz.CharVocab.Len(), fxB.fz.WordVocab.Len())
	clsB.Train(fxB.train)
	precB, _ := clsB.EvaluatePrecision(fxB.test)

	fxF := buildClassifierFixture(t, full, 500)
	fxF.fz.CharVocab.Freeze()
	fxF.fz.WordVocab.Freeze()
	clsF := NewClassifier(full, fxF.fz.CharVocab.Len(), fxF.fz.WordVocab.Len())
	clsF.Train(fxF.train)
	precF, _ := clsF.EvaluatePrecision(fxF.test)

	if precF+0.02 < precB {
		t.Fatalf("full model (%.3f) should not be clearly worse than baseline (%.3f)", precF, precB)
	}
}

func TestFeaturizeShapes(t *testing.T) {
	cfg := DefaultConfig()
	fx := buildClassifierFixture(t, cfg, 20)
	ft := fx.fz.Featurize([]string{"outdoor", "barbecue"})
	if len(ft.WordIDs) != 2 || len(ft.POS) != 2 || len(ft.NER) != 2 || len(ft.Gloss) != 2 {
		t.Fatal("per-word feature lengths wrong")
	}
	if len(ft.CharIDs) != len("outdoor barbecue") {
		t.Fatalf("char ids: got %d", len(ft.CharIDs))
	}
	if len(ft.Wide) != WideDim {
		t.Fatalf("wide dim: got %d", len(ft.Wide))
	}
	if ft.NER[0] == 0 || ft.NER[1] == 0 {
		t.Fatal("known primitives should have NER domain ids")
	}
	if ft.Gloss[1].Norm() == 0 {
		t.Fatal("known primitive should have a gloss vector")
	}
}

func TestFeaturizeLMSignal(t *testing.T) {
	cfg := DefaultConfig()
	fx := buildClassifierFixture(t, cfg, 20)
	good := fx.fz.Featurize([]string{"outdoor", "barbecue"})
	scrambled := fx.fz.Featurize([]string{"barbecue", "outdoor", "the", "for"})
	// Wide slot 3 is normalized perplexity.
	if good.Wide[3] >= scrambled.Wide[3] {
		t.Fatalf("perplexity feature should separate fluent (%v) from scrambled (%v)", good.Wide[3], scrambled.Wide[3])
	}
}
