package matching

import (
	"math"
	"math/rand"
	"testing"

	"alicoco/internal/emb"
	"alicoco/internal/mat"
	"alicoco/internal/world"
)

func randSeq(rng *rand.Rand, n, dim int) []mat.Vec {
	out := make([]mat.Vec, n)
	for i := range out {
		out[i] = make(mat.Vec, dim)
		for j := range out[i] {
			out[i][j] = rng.NormFloat64()
		}
	}
	return out
}

// Finite-difference check for attnPool's input gradients.
func TestAttnPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randSeq(rng, 3, 4)
	b := randSeq(rng, 2, 4)
	loss := func() float64 {
		c, _, _ := attnPool(a, b)
		var l float64
		for _, x := range c {
			l += 0.5 * x * x
		}
		return l
	}
	c, _, back := attnPool(a, b)
	dA := zeroSeq(len(a), 4)
	dB := zeroSeq(len(b), 4)
	back(c.Clone(), dA, dB)
	eps := 1e-6
	checkSeqGrad(t, "A", a, dA, loss, eps)
	checkSeqGrad(t, "B", b, dB, loss, eps)
}

func TestAlignOntoGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randSeq(rng, 3, 4)
	b := randSeq(rng, 2, 4)
	loss := func() float64 {
		out, _ := alignOnto(a, b)
		var l float64
		for _, v := range out {
			for _, x := range v {
				l += 0.5 * x * x
			}
		}
		return l
	}
	out, back := alignOnto(a, b)
	dAligned := make([]mat.Vec, len(out))
	for i := range out {
		dAligned[i] = out[i].Clone()
	}
	dA := zeroSeq(len(a), 4)
	dB := zeroSeq(len(b), 4)
	back(dAligned, dA, dB)
	eps := 1e-6
	checkSeqGrad(t, "A", a, dA, loss, eps)
	checkSeqGrad(t, "B", b, dB, loss, eps)
}

func TestGridPoolGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randSeq(rng, 4, 3)
	b := randSeq(rng, 5, 3)
	loss := func() float64 {
		f, _ := gridPool(a, b, 2, 2)
		var l float64
		for _, x := range f {
			l += 0.5 * x * x
		}
		return l
	}
	f, back := gridPool(a, b, 2, 2)
	dA := zeroSeq(len(a), 3)
	dB := zeroSeq(len(b), 3)
	back(f.Clone(), dA, dB)
	checkSeqGrad(t, "A", a, dA, loss, 1e-6)
	checkSeqGrad(t, "B", b, dB, loss, 1e-6)
}

func checkSeqGrad(t *testing.T, name string, xs []mat.Vec, dxs []mat.Vec, loss func() float64, eps float64) {
	t.Helper()
	for i := range xs {
		for j := range xs[i] {
			orig := xs[i][j]
			xs[i][j] = orig + eps
			lp := loss()
			xs[i][j] = orig - eps
			lm := loss()
			xs[i][j] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[i][j]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("%s grad (%d,%d): analytic %v numeric %v", name, i, j, dxs[i][j], num)
			}
		}
	}
}

func TestAttnPoolEmptyInputs(t *testing.T) {
	c, _, back := attnPool(nil, nil)
	back(c, nil, nil) // must not panic
	a := randSeq(rand.New(rand.NewSource(4)), 2, 3)
	c2, _, _ := attnPool(a, nil)
	if len(c2) != 3 {
		t.Fatalf("empty-B pool dim: %d", len(c2))
	}
}

func TestBM25RanksLexicalOverlap(t *testing.T) {
	b := NewBM25()
	b.Train([]Pair{
		{Title: []string{"red", "grill", "steel"}},
		{Title: []string{"silk", "dress", "elegant"}},
		{Title: []string{"blue", "tent", "camping"}},
	})
	match := b.Score([]string{"grill"}, []string{"red", "grill", "steel"})
	miss := b.Score([]string{"grill"}, []string{"silk", "dress", "elegant"})
	if match <= miss {
		t.Fatalf("BM25 should reward overlap: %v vs %v", match, miss)
	}
}

// fixture: tiny world, pairs, embeddings.
type fix struct {
	w           *world.World
	train, test []Pair
	embed       func(string) mat.Vec
	dim         int
	knowledge   func([]string) []mat.Vec
}

func buildFix(t *testing.T) *fix {
	t.Helper()
	w := world.New(world.TinyConfig())
	pairs := BuildPairs(w, 600, 600)
	train, test := SplitPairs(pairs, 0.8, 9)
	corpus := w.GenCorpus(1500, 1500, 1500).All()
	cfg := emb.DefaultW2VConfig()
	cfg.Dim = 32
	cfg.Epochs = 10
	w2v := emb.TrainWord2Vec(corpus, cfg)
	glossary := emb.BuildGlossary(w.Glosses(), emb.NewDoc2Vec(w2v))
	return &fix{
		w: w, train: train, test: test,
		embed: w2v.Vec, dim: 32,
		knowledge: KnowledgeFn(w, glossary),
	}
}

func TestDeepMatchersBeatChance(t *testing.T) {
	f := buildFix(t)
	tc := DefaultTrainConfig()
	tc.Epochs = 4
	models := []Matcher{
		NewDSSM(f.embed, f.dim, tc),
		NewMatchPyramid(f.embed, f.dim, tc),
		NewRE2(f.embed, f.dim, tc),
		NewKADSM(f.embed, nil, f.dim, tc),
		NewKADSM(f.embed, f.knowledge, f.dim, tc),
	}
	for _, m := range models {
		m.Train(f.train)
		res := Evaluate(m, f.test)
		if res.AUC < 0.6 {
			t.Fatalf("%s AUC too low: %+v", m.Name(), res)
		}
	}
}

func TestKnowledgeHelpsOnDriftPairs(t *testing.T) {
	f := buildFix(t)
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	plain := NewKADSM(f.embed, nil, f.dim, tc)
	plain.Train(f.train)
	know := NewKADSM(f.embed, f.knowledge, f.dim, tc)
	know.Train(f.train)

	// Drift test: positive pairs whose concept shares no token with the
	// title (the Mid-Autumn/moon-cake case).
	var drift []Pair
	for _, p := range f.test {
		if !p.Label {
			continue
		}
		overlap := false
		ts := map[string]bool{}
		for _, w := range p.Title {
			ts[w] = true
		}
		for _, w := range p.Concept {
			if ts[w] {
				overlap = true
			}
		}
		if !overlap {
			drift = append(drift, p)
		}
	}
	if len(drift) < 5 {
		t.Skip("not enough drift pairs in tiny world")
	}
	var sumPlain, sumKnow float64
	for _, p := range drift {
		sumPlain += plain.Score(p.Concept, p.Title)
		sumKnow += know.Score(p.Concept, p.Title)
	}
	t.Logf("drift positives: plain=%.3f know=%.3f (n=%d)", sumPlain/float64(len(drift)), sumKnow/float64(len(drift)), len(drift))
	resPlain := Evaluate(plain, f.test)
	resKnow := Evaluate(know, f.test)
	if resKnow.AUC+0.05 < resPlain.AUC {
		t.Fatalf("knowledge model clearly worse: %+v vs %+v", resKnow, resPlain)
	}
}

func TestEvaluateProducesGroupedP10(t *testing.T) {
	f := buildFix(t)
	b := BM25Squashed{NewBM25()}
	b.Train(f.train)
	res := Evaluate(b, f.test)
	if res.P10 < 0 || res.P10 > 1 {
		t.Fatalf("P10 out of range: %+v", res)
	}
	if res.AUC <= 0.5 {
		t.Fatalf("BM25 should beat chance on this data: %+v", res)
	}
}

func TestSplitPairsDeterministic(t *testing.T) {
	f := buildFix(t)
	tr1, te1 := SplitPairs(f.train, 0.5, 3)
	tr2, te2 := SplitPairs(f.train, 0.5, 3)
	if len(tr1) != len(tr2) || len(te1) != len(te2) {
		t.Fatal("split not deterministic")
	}
	for i := range tr1 {
		if tr1[i].FrameID != tr2[i].FrameID || tr1[i].ItemID != tr2[i].ItemID {
			t.Fatal("split order differs")
		}
	}
}

func TestKnowledgeFnFindsMultiTokenPrimitives(t *testing.T) {
	f := buildFix(t)
	ks := f.knowledge([]string{"mid-autumn", "festival", "gifts"})
	if len(ks) == 0 {
		t.Fatal("knowledge fn found nothing for mid-autumn festival")
	}
	nonZero := false
	for _, k := range ks {
		if k.Norm() > 0 {
			nonZero = true
		}
	}
	if !nonZero {
		t.Fatal("knowledge vectors all zero")
	}
}
