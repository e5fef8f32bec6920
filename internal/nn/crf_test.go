package nn

import (
	"math"
	"math/rand"
	"testing"

	"alicoco/internal/mat"
)

func randEmissions(rng *rand.Rand, n, k int) []mat.Vec {
	e := make([]mat.Vec, n)
	for t := range e {
		e[t] = make(mat.Vec, k)
		for i := range e[t] {
			e[t][i] = rng.NormFloat64()
		}
	}
	return e
}

// enumerate returns the log-partition by brute force over all K^n paths.
func bruteLogZ(c *CRF, emit []mat.Vec, allowed [][]bool) float64 {
	n, K := len(emit), c.K
	var scores []float64
	path := make([]int, n)
	var rec func(t int)
	rec = func(t int) {
		if t == n {
			scores = append(scores, c.pathScore(emit, path, 0, nil))
			return
		}
		for k := 0; k < K; k++ {
			if allowed != nil && !allowed[t][k] {
				continue
			}
			path[t] = k
			rec(t + 1)
		}
	}
	rec(0)
	return mat.LogSumExp(scores)
}

func TestCRFLogZMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 4, 3)
	got := c.forwardBackward(emit, nil, 0, nil)
	want := bruteLogZ(c, emit, nil)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("logZ: got %v want %v", got, want)
	}
}

func TestCRFConstrainedLogZMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 4, 3)
	allowed := [][]bool{
		{true, false, true},
		{false, true, false},
		{true, true, true},
		{false, false, true},
	}
	got := c.forwardBackward(emit, allowed, 0, nil)
	want := bruteLogZ(c, emit, allowed)
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("constrained logZ: got %v want %v", got, want)
	}
}

func TestCRFLossNonNegative(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCRF("c", 4, rng)
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(6)
		emit := randEmissions(rng, n, 4)
		gold := make([]int, n)
		for i := range gold {
			gold[i] = rng.Intn(4)
		}
		l, _ := c.Loss(emit, gold)
		if l < -1e-9 {
			t.Fatalf("NLL must be >= 0, got %v", l)
		}
		ZeroGrads(c.Params())
	}
}

func TestCRFGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 4, 3)
	gold := []int{0, 2, 1, 2}
	_, dEmit := c.Loss(emit, gold)

	// Check transition gradient.
	loss := func() float64 {
		gSave := c.Trans.G.Data.Clone()
		l, _ := c.Loss(emit, gold)
		c.Trans.G.Data = gSave
		return l
	}
	if _, err := GradCheck(c.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}

	// Check emission gradient against finite differences.
	eps := 1e-5
	for t0 := range emit {
		for k := range emit[t0] {
			orig := emit[t0][k]
			gSave := c.Trans.G.Data.Clone()
			emit[t0][k] = orig + eps
			lp, _ := c.Loss(emit, gold)
			emit[t0][k] = orig - eps
			lm, _ := c.Loss(emit, gold)
			emit[t0][k] = orig
			c.Trans.G.Data = gSave
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dEmit[t0][k]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("emission grad (%d,%d): analytic %v numeric %v", t0, k, dEmit[t0][k], num)
			}
		}
	}
}

func TestFuzzyCRFGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 3, 3)
	allowed := [][]bool{
		{true, true, false},
		{false, true, true},
		{true, false, true},
	}
	_, dEmit := c.FuzzyLoss(emit, allowed)

	loss := func() float64 {
		gSave := c.Trans.G.Data.Clone()
		l, _ := c.FuzzyLoss(emit, allowed)
		c.Trans.G.Data = gSave
		return l
	}
	if _, err := GradCheck(c.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}

	eps := 1e-5
	for t0 := range emit {
		for k := range emit[t0] {
			orig := emit[t0][k]
			gSave := c.Trans.G.Data.Clone()
			emit[t0][k] = orig + eps
			lp, _ := c.FuzzyLoss(emit, allowed)
			emit[t0][k] = orig - eps
			lm, _ := c.FuzzyLoss(emit, allowed)
			emit[t0][k] = orig
			c.Trans.G.Data = gSave
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dEmit[t0][k]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("fuzzy emission grad (%d,%d): analytic %v numeric %v", t0, k, dEmit[t0][k], num)
			}
		}
	}
}

func TestFuzzySingletonEqualsPlainLoss(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 4, 3)
	gold := []int{1, 0, 2, 2}
	allowed := make([][]bool, len(gold))
	for t0, g := range gold {
		allowed[t0] = make([]bool, 3)
		allowed[t0][g] = true
	}
	lPlain, _ := c.Loss(emit, gold)
	ZeroGrads(c.Params())
	lFuzzy, _ := c.FuzzyLoss(emit, allowed)
	if math.Abs(lPlain-lFuzzy) > 1e-9 {
		t.Fatalf("fuzzy with singleton set should equal plain NLL: %v vs %v", lFuzzy, lPlain)
	}
}

func TestFuzzyLossNonNegativeAndBelowPlain(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := NewCRF("c", 3, rng)
	emit := randEmissions(rng, 4, 3)
	gold := []int{1, 0, 2, 2}
	// Allowed set contains gold plus extra options: fuzzy loss must be
	// >= 0 and <= plain NLL of the gold path (superset probability).
	allowed := make([][]bool, len(gold))
	for t0, g := range gold {
		allowed[t0] = make([]bool, 3)
		allowed[t0][g] = true
		allowed[t0][(g+1)%3] = true
	}
	lPlain, _ := c.Loss(emit, gold)
	ZeroGrads(c.Params())
	lFuzzy, _ := c.FuzzyLoss(emit, allowed)
	if lFuzzy < -1e-9 {
		t.Fatalf("fuzzy loss must be >= 0, got %v", lFuzzy)
	}
	if lFuzzy > lPlain+1e-9 {
		t.Fatalf("fuzzy loss over superset must not exceed plain NLL: %v vs %v", lFuzzy, lPlain)
	}
}

func TestViterbiMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := NewCRF("c", 3, rng)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(5)
		emit := randEmissions(rng, n, 3)
		path, score := c.Decode(emit)
		// Brute force best path.
		best := math.Inf(-1)
		cur := make([]int, n)
		var rec func(t int)
		rec = func(t int) {
			if t == n {
				s := c.pathScore(emit, cur, 0, nil)
				if s > best {
					best = s
				}
				return
			}
			for k := 0; k < 3; k++ {
				cur[t] = k
				rec(t + 1)
			}
		}
		rec(0)
		if math.Abs(score-best) > 1e-9 {
			t.Fatalf("viterbi score %v != brute force %v", score, best)
		}
		if got := c.pathScore(emit, path, 0, nil); math.Abs(got-best) > 1e-9 {
			t.Fatalf("viterbi path score %v != brute force %v", got, best)
		}
	}
}

func TestCRFEmptySequence(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := NewCRF("c", 3, rng)
	l, _ := c.Loss(nil, nil)
	if l != 0 {
		t.Fatalf("empty loss: got %v", l)
	}
	path, _ := c.Decode(nil)
	if path != nil {
		t.Fatalf("empty decode: got %v", path)
	}
}

// Training sanity: a BiLSTM-CRF on a toy pattern should fit it.
func TestBiLSTMCRFLearnsToyPattern(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	emb := NewEmbedding("emb", 6, 8, rng)
	bi := NewBiLSTM("bi", 8, 6, rng)
	proj := NewDense("proj", 12, 3, Identity, rng)
	crf := NewCRF("crf", 3, rng)
	params := CollectParams(emb, bi, proj, crf)
	opt := NewAdam(0.02, 5)

	// token i -> label i%3, with sequences of tokens 0..5
	seqs := [][]int{{0, 1, 2, 3}, {3, 4, 5}, {1, 2, 3, 4, 5}, {0, 2, 4}, {5, 1, 3}}
	labelOf := func(tok int) int { return tok % 3 }

	forward := func(toks []int) ([]mat.Vec, func(dEmit []mat.Vec)) {
		xs := emb.LookupSeq(toks)
		hs, bc := bi.Forward(xs)
		emits := make([]mat.Vec, len(hs))
		caches := make([]*DenseCache, len(hs))
		for i, h := range hs {
			emits[i], caches[i] = proj.Forward(h)
		}
		back := func(dEmit []mat.Vec) {
			dhs := make([]mat.Vec, len(dEmit))
			for i := range dEmit {
				dhs[i] = proj.Backward(dEmit[i], caches[i])
			}
			dxs := bi.Backward(dhs, bc)
			emb.AccumulateSeq(toks, dxs)
		}
		return emits, back
	}

	for epoch := 0; epoch < 60; epoch++ {
		for _, toks := range seqs {
			gold := make([]int, len(toks))
			for i, tk := range toks {
				gold[i] = labelOf(tk)
			}
			emits, back := forward(toks)
			_, dEmit := crf.Loss(emits, gold)
			back(dEmit)
			opt.Step(params)
		}
	}

	correct, total := 0, 0
	for _, toks := range seqs {
		emits, _ := forward(toks)
		ZeroGrads(params)
		path, _ := crf.Decode(emits)
		for i, tk := range toks {
			total++
			if path[i] == labelOf(tk) {
				correct++
			}
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.95 {
		t.Fatalf("BiLSTM-CRF failed to fit toy pattern: accuracy %.2f", acc)
	}
}
