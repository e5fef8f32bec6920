package hypernym

import (
	"math"
	"math/rand"
	"testing"

	"alicoco/internal/emb"
	"alicoco/internal/mat"
	"alicoco/internal/world"
)

func TestMinePatternsSuchAs(t *testing.T) {
	corpus := [][]string{
		{"clothing", "such", "as", "dress", "and", "skirt"},
		{"the", "silk", "dress", "is", "a", "kind", "of", "dress"},
		{"nothing", "here"},
	}
	pairs := MinePatterns(corpus)
	want := map[[2]string]string{
		{"dress", "clothing"}:   "such_as",
		{"skirt", "clothing"}:   "such_as",
		{"silk dress", "dress"}: "kind_of",
	}
	if len(pairs) != len(want) {
		t.Fatalf("pairs: got %v", pairs)
	}
	for _, p := range pairs {
		if want[[2]string{p.Hypo, p.Hyper}] != p.Rule {
			t.Fatalf("unexpected pair %+v", p)
		}
	}
}

func TestMinePatternsDedup(t *testing.T) {
	corpus := [][]string{
		{"clothing", "such", "as", "dress", "and", "skirt"},
		{"clothing", "such", "as", "dress", "and", "skirt"},
	}
	if got := len(MinePatterns(corpus)); got != 2 {
		t.Fatalf("dedup failed: %d pairs", got)
	}
}

// fixture builds a world + embeddings + dataset once for the heavier tests.
type fixture struct {
	w *world.World
	d *Dataset
}

func buildFixture(t *testing.T) *fixture {
	t.Helper()
	w := world.New(world.TinyConfig())
	corpus := w.GenCorpus(300, 300, 300).All()
	cfg := emb.DefaultW2VConfig()
	cfg.Dim = 16
	cfg.Epochs = 2
	w2v := emb.TrainWord2Vec(corpus, cfg)
	embed := func(tokens []string) mat.Vec {
		vs := w2v.EmbedSeq(tokens)
		out := mat.NewVec(cfg.Dim)
		for _, v := range vs {
			out.Add(v)
		}
		if len(vs) > 0 {
			out.Scale(1 / float64(len(vs)))
		}
		return out
	}
	return &fixture{w: w, d: BuildDataset(w, embed, 5)}
}

func TestDatasetSplitsDisjoint(t *testing.T) {
	f := buildFixture(t)
	d := f.d
	if len(d.TrainPos) == 0 || len(d.ValPos) == 0 || len(d.TestPos) == 0 {
		t.Fatalf("splits empty: %d/%d/%d", len(d.TrainPos), len(d.ValPos), len(d.TestPos))
	}
	seen := map[int]string{}
	check := func(pos [][2]int, name string) {
		for _, p := range pos {
			if prev, ok := seen[p[0]]; ok && prev != name {
				t.Fatalf("hyponym %d appears in both %s and %s", p[0], prev, name)
			}
			seen[p[0]] = name
		}
	}
	check(d.TrainPos, "train")
	check(d.ValPos, "val")
	check(d.TestPos, "test")
}

func TestTrainSetNegativeRatio(t *testing.T) {
	f := buildFixture(t)
	set := f.d.TrainSet(f.d.TrainPos[:10], 5, 1)
	pos, neg := 0, 0
	for _, ex := range set {
		if ex.Label {
			pos++
		} else {
			neg++
			if f.d.isGold(ex.HypoID, ex.HyperID) {
				t.Fatal("negative example is actually gold")
			}
		}
	}
	if pos != 10 {
		t.Fatalf("positives: got %d", pos)
	}
	if neg < 40 { // collisions may drop a few
		t.Fatalf("negatives: got %d, want close to 50", neg)
	}
}

func TestHardNegativesAreNotGold(t *testing.T) {
	f := buildFixture(t)
	hard := f.d.HardNegatives(f.d.TrainPos, 2, 3)
	if len(hard) == 0 {
		t.Fatal("no hard negatives")
	}
	for _, ex := range hard {
		if ex.Label {
			t.Fatal("hard negative labeled positive")
		}
		if f.d.isGold(ex.HypoID, ex.HyperID) {
			t.Fatal("hard negative is gold")
		}
	}
}

func TestProjectionLearnsHypernymy(t *testing.T) {
	f := buildFixture(t)
	d := f.d
	train := d.TrainSet(d.TrainPos, 20, 7)
	model := NewProjection(16, 4, 9)
	model.Fit(train, 20, 0.01, 32, 13)
	ev := d.Evaluate(model, d.TestPos, 0, 1)
	if ev.MAP < 0.10 {
		t.Fatalf("trained MAP too low: %+v", ev)
	}
	// Untrained model should be much worse.
	fresh := NewProjection(16, 4, 77)
	ev0 := d.Evaluate(fresh, d.TestPos, 0, 1)
	if ev.MAP <= ev0.MAP {
		t.Fatalf("training did not help: %v vs %v", ev.MAP, ev0.MAP)
	}
}

func TestProjectionScoreInUnitInterval(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := NewProjection(8, 3, 4)
	for i := 0; i < 50; i++ {
		a, b := mat.NewVec(8), mat.NewVec(8)
		for j := range a {
			a[j], b[j] = rng.NormFloat64(), rng.NormFloat64()
		}
		s := p.Score(a, b)
		if s < 0 || s > 1 {
			t.Fatalf("score out of range: %v", s)
		}
	}
}

func TestProjectionGradientsMatchFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p := NewProjection(5, 2, 8)
	hypo, hyper := mat.NewVec(5), mat.NewVec(5)
	for i := range hypo {
		hypo[i], hyper[i] = rng.NormFloat64(), rng.NormFloat64()
	}
	loss := p.TrainStep(hypo, hyper, 1)
	if loss <= 0 {
		t.Fatal("loss should be positive")
	}
	eps := 1e-6
	for _, prm := range p.Params() {
		for i := range prm.W.Data {
			orig := prm.W.Data[i]
			prm.W.Data[i] = orig + eps
			lp := nllOf(p, hypo, hyper, 1)
			prm.W.Data[i] = orig - eps
			lm := nllOf(p, hypo, hyper, 1)
			prm.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if diff := num - prm.G.Data[i]; diff > 1e-4 || diff < -1e-4 {
				t.Fatalf("gradient mismatch %s[%d]: analytic %v numeric %v", prm.Name, i, prm.G.Data[i], num)
			}
		}
	}
}

func nllOf(p *Projection, hypo, hyper mat.Vec, label float64) float64 {
	y := p.Score(hypo, hyper)
	eps := 1e-12
	if label > 0.5 {
		return -math.Log(y + eps)
	}
	return -math.Log(1 - y + eps)
}

func TestActiveLearningStrategiesRun(t *testing.T) {
	f := buildFixture(t)
	d := f.d
	pool := append(d.TrainSet(d.TrainPos, 6, 21), d.HardNegatives(d.TrainPos, 2, 22)...)
	cfg := DefaultALConfig(16)
	cfg.K = 150
	cfg.MaxIters = 4
	cfg.Epochs = 3
	for _, strat := range []Strategy{Random, US, CS, UCS} {
		res := RunActiveLearning(d, pool, d.TestPos, cfg, strat)
		if len(res.History) == 0 {
			t.Fatalf("%s: no history", strat)
		}
		if res.LabeledUsed <= 0 || res.LabeledUsed > len(pool) {
			t.Fatalf("%s: bad labeled count %d", strat, res.LabeledUsed)
		}
		if res.Best.MAP <= 0 {
			t.Fatalf("%s: zero MAP", strat)
		}
		// Labeled counts must be monotone over rounds.
		for i := 1; i < len(res.History); i++ {
			if res.History[i].Labeled <= res.History[i-1].Labeled {
				t.Fatalf("%s: labeled counts not increasing: %+v", strat, res.History)
			}
		}
	}
}

func TestLabelsToReach(t *testing.T) {
	r := ALResult{History: []ALRound{{Labeled: 100, MAP: 0.2}, {Labeled: 200, MAP: 0.5}}}
	if r.LabelsToReach(0.4) != 200 {
		t.Fatal("LabelsToReach wrong")
	}
	if r.LabelsToReach(0.9) != -1 {
		t.Fatal("unreached target should be -1")
	}
}
