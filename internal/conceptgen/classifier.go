// Package conceptgen implements the e-commerce concept classifier of
// Section 5.2: the knowledge-enhanced Wide&Deep model that keeps only
// candidate concepts meeting the five criteria of Section 5.1 (evaluated
// as Table 4). The candidates it is trained and scored on come from the
// synthetic world (world.ConceptCandidatesHoldout).
package conceptgen

import (
	"math"
	"math/rand"

	"alicoco/internal/mat"
	"alicoco/internal/nn"
)

// Config controls the classifier and its Table 4 ablation switches. UseChar
// toggles the character-level branch, grouped with the surface-form wide
// features in the ablation.
type Config struct {
	CharDim, WordDim, POSDim, NERDim      int
	Hidden                                int // BiLSTM hidden per direction
	AttnDim                               int
	GlossDim                              int
	UseChar, UseWide, UseLM, UseKnowledge bool
	Epochs                                int
	LR                                    float64
	Seed                                  int64
}

// DefaultConfig returns laptop-scale hyperparameters for the full model.
func DefaultConfig() Config {
	return Config{
		CharDim: 12, WordDim: 20, POSDim: 4, NERDim: 6,
		Hidden: 12, AttnDim: 16, GlossDim: 16,
		UseChar: true, UseWide: true, UseLM: true, UseKnowledge: true,
		Epochs: 4, LR: 0.01, Seed: 23,
	}
}

// Classifier is the knowledge-enhanced Wide&Deep model of Figure 5.
type Classifier struct {
	cfg Config

	charEmb *nn.Embedding
	charBi  *nn.BiLSTM

	wordEmb *nn.Embedding
	posEmb  *nn.Embedding
	nerEmb  *nn.Embedding
	wordBi  *nn.BiLSTM
	attn    *nn.SelfAttention

	kAttn *nn.SelfAttention // knowledge branch (gloss self-attention)

	wideFC *nn.Dense
	head1  *nn.Dense
	head2  *nn.Dense

	params []*nn.Param
	opt    *nn.Adam
}

// NewClassifier builds the model for frozen vocab sizes.
func NewClassifier(cfg Config, charVocab, wordVocab int) *Classifier {
	rng := rand.New(rand.NewSource(cfg.Seed))
	c := &Classifier{cfg: cfg}

	wordIn := cfg.WordDim + cfg.POSDim + cfg.NERDim
	c.wordEmb = nn.NewEmbedding("cls.wordEmb", wordVocab, cfg.WordDim, rng)
	c.posEmb = nn.NewEmbedding("cls.posEmb", 8, cfg.POSDim, rng)
	c.nerEmb = nn.NewEmbedding("cls.nerEmb", NumDomains, cfg.NERDim, rng)
	c.wordBi = nn.NewBiLSTM("cls.wordBi", wordIn, cfg.Hidden, rng)
	c.attn = nn.NewSelfAttention("cls.attn", 2*cfg.Hidden, cfg.AttnDim, rng)

	layers := []nn.Layer{c.wordEmb, c.posEmb, c.nerEmb, c.wordBi, c.attn}

	deepDim := cfg.AttnDim // word attn max pool
	if cfg.UseChar {
		c.charEmb = nn.NewEmbedding("cls.charEmb", charVocab, cfg.CharDim, rng)
		c.charBi = nn.NewBiLSTM("cls.charBi", cfg.CharDim, cfg.Hidden, rng)
		layers = append(layers, c.charEmb, c.charBi)
		deepDim += 2 * cfg.Hidden // char mean pool
	}
	if cfg.UseKnowledge {
		c.kAttn = nn.NewSelfAttention("cls.kattn", cfg.GlossDim, cfg.AttnDim, rng)
		layers = append(layers, c.kAttn)
		deepDim += cfg.AttnDim
	}
	if cfg.UseWide {
		c.wideFC = nn.NewDense("cls.wide", WideDim, 8, nn.Tanh, rng)
		layers = append(layers, c.wideFC)
		deepDim += 8
	}
	c.head1 = nn.NewDense("cls.head1", deepDim, 16, nn.Tanh, rng)
	c.head2 = nn.NewDense("cls.head2", 16, 1, nn.Identity, rng)
	layers = append(layers, c.head1, c.head2)
	c.params = nn.CollectParams(layers...)
	c.opt = nn.NewAdam(cfg.LR, 5)
	return c
}

// forward computes the score and returns a backward closure that
// backpropagates d(loss)/d(logit).
func (c *Classifier) forward(ft Features) (float64, func(dLogit float64)) {
	// Char branch: embed -> BiLSTM -> mean pool.
	var c1 mat.Vec
	var charHs []mat.Vec
	var charCache *nn.BiLSTMCache
	if c.cfg.UseChar {
		charXs := c.charEmb.LookupSeq(ft.CharIDs)
		charHs, charCache = c.charBi.Forward(charXs)
		c1 = nn.MeanPool(charHs)
	}

	// Word branch: [word;pos;ner] -> BiLSTM -> self attention -> max pool.
	wordXs := make([]mat.Vec, len(ft.WordIDs))
	for i := range ft.WordIDs {
		wordXs[i] = mat.Concat(
			c.wordEmb.Lookup(ft.WordIDs[i]),
			c.posEmb.Lookup(ft.POS[i]),
			c.nerEmb.Lookup(ft.NER[i]),
		)
	}
	wordHs, wordCache := c.wordBi.Forward(wordXs)
	attnOut, attnCache := c.attn.Forward(wordHs)
	c2, c2Pool := nn.MaxPool(attnOut)

	parts := []mat.Vec{c2}
	if c.cfg.UseChar {
		parts = append(parts, c1)
	}

	// Knowledge branch: gloss vectors -> self attention -> max pool.
	var kOut []mat.Vec
	var kCache *nn.AttnCache
	var kPool *nn.MaxPoolCache
	if c.cfg.UseKnowledge {
		var k2 mat.Vec
		kOut, kCache = c.kAttn.Forward(ft.Gloss)
		k2, kPool = nn.MaxPool(kOut)
		parts = append(parts, k2)
	}

	// Wide branch.
	var wideCache *nn.DenseCache
	if c.cfg.UseWide {
		var c3 mat.Vec
		c3, wideCache = c.wideFC.Forward(ft.Wide)
		parts = append(parts, c3)
	}

	joint := mat.Concat(parts...)
	h, hCache := c.head1.Forward(joint)
	logitVec, oCache := c.head2.Forward(h)
	score := mat.Sigmoid(logitVec[0])

	back := func(dLogit float64) {
		dh := c.head2.Backward(mat.Vec{dLogit}, oCache)
		dJoint := c.head1.Backward(dh, hCache)
		off := 0
		take := func(n int) mat.Vec {
			seg := dJoint[off : off+n]
			off += n
			return mat.Vec(seg)
		}
		dc2 := take(len(c2))
		dAttnOut := nn.MaxPoolBackward(dc2, c2Pool)
		dWordHs := c.attn.Backward(dAttnOut, attnCache)
		dWordXs := c.wordBi.Backward(dWordHs, wordCache)
		for i, dx := range dWordXs {
			c.wordEmb.Accumulate(ft.WordIDs[i], dx[:c.cfg.WordDim])
			c.posEmb.Accumulate(ft.POS[i], dx[c.cfg.WordDim:c.cfg.WordDim+c.cfg.POSDim])
			c.nerEmb.Accumulate(ft.NER[i], dx[c.cfg.WordDim+c.cfg.POSDim:])
		}

		if c.cfg.UseChar {
			dc1 := take(len(c1))
			dCharHs := nn.MeanPoolBackward(dc1, len(charHs))
			dCharXs := c.charBi.Backward(dCharHs, charCache)
			c.charEmb.AccumulateSeq(ft.CharIDs, dCharXs)
		}

		if c.cfg.UseKnowledge {
			dk2 := take(c.cfg.AttnDim)
			dkOut := nn.MaxPoolBackward(dk2, kPool)
			c.kAttn.Backward(dkOut, kCache) // gloss vectors are frozen inputs
			_ = kOut
		}
		if c.cfg.UseWide {
			dc3 := take(8)
			c.wideFC.Backward(dc3, wideCache)
		}
	}
	return score, back
}

// Score returns the probability that the candidate is a good e-commerce
// concept.
func (c *Classifier) Score(ft Features) float64 {
	s, _ := c.forward(ft)
	nn.ZeroGrads(c.params)
	return s
}

// Sample is one labeled training candidate.
type Sample struct {
	Feat  Features
	Label bool
}

// Train fits the classifier with the point-wise negative log-likelihood of
// Equation 3. Returns the final average loss.
func (c *Classifier) Train(samples []Sample) float64 {
	rng := rand.New(rand.NewSource(c.cfg.Seed + 1))
	var last float64
	for epoch := 0; epoch < c.cfg.Epochs; epoch++ {
		perm := rng.Perm(len(samples))
		var total float64
		for _, pi := range perm {
			s := samples[pi]
			score, back := c.forward(s.Feat)
			y := 0.0
			if s.Label {
				y = 1
			}
			eps := 1e-12
			if s.Label {
				total += -math.Log(score + eps)
			} else {
				total += -math.Log(1 - score + eps)
			}
			back(score - y) // d(BCE)/d(logit)
			c.opt.Step(c.params)
		}
		last = total / float64(len(samples))
	}
	return last
}

// EvaluatePrecision returns classification precision on the positive class
// at threshold 0.5 (the Table 4 metric) plus overall accuracy.
func (c *Classifier) EvaluatePrecision(samples []Sample) (precision, accuracy float64) {
	tp, fp, correct := 0, 0, 0
	for _, s := range samples {
		pred := c.Score(s.Feat) >= 0.5
		if pred == s.Label {
			correct++
		}
		if pred && s.Label {
			tp++
		} else if pred && !s.Label {
			fp++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	accuracy = float64(correct) / float64(len(samples))
	return precision, accuracy
}
