package emb

import (
	"math"
	"runtime"
	"testing"

	"alicoco/internal/mat"
)

// toyCorpus has two disjoint topics: kitchen and clothing.
func toyCorpus() [][]string {
	var corpus [][]string
	for i := 0; i < 120; i++ {
		corpus = append(corpus,
			[]string{"grill", "charcoal", "barbecue", "outdoor"},
			[]string{"charcoal", "grill", "tongs", "barbecue"},
			[]string{"dress", "skirt", "elegant", "wedding"},
			[]string{"skirt", "dress", "silk", "wedding"},
		)
	}
	return corpus
}

func TestWord2VecLearnsTopics(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Dim = 16
	cfg.Epochs = 4
	m := TrainWord2Vec(toyCorpus(), cfg)
	same := m.Similarity("grill", "charcoal")
	cross := m.Similarity("grill", "dress")
	if same <= cross {
		t.Fatalf("in-topic similarity %v should exceed cross-topic %v", same, cross)
	}
}

func TestWord2VecDeterminism(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Epochs = 1
	m1 := TrainWord2Vec(toyCorpus(), cfg)
	m2 := TrainWord2Vec(toyCorpus(), cfg)
	v1, v2 := m1.Vec("grill"), m2.Vec("grill")
	for i := range v1 {
		if v1[i] != v2[i] {
			t.Fatal("training is not deterministic")
		}
	}
}

// TestWord2VecSequentialPinned pins Workers=1 training bit for bit: the
// first four In and Out components of two words, as float64 bit patterns.
// Any change to the sequential update order or arithmetic moves them.
func TestWord2VecSequentialPinned(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Dim = 8
	cfg.Epochs = 2
	cfg.Workers = 1
	m := TrainWord2Vec(toyCorpus(), cfg)
	for _, tc := range []struct {
		word    string
		in, out [4]uint64
	}{
		{"grill",
			[4]uint64{0xbffaea02123da075, 0xbfd70d24bea046ab, 0x3ff6089e44b029af, 0xbff2559b6b2e162d},
			[4]uint64{0x4000f3c33ccd1824, 0xbfd9bf51eb6f0246, 0xbfda6c873384b61c, 0xbfc1040397f0f60a}},
		{"wedding",
			[4]uint64{0xbfe682107d1fdeb8, 0xbfd6cdcf52dd49ff, 0x3fc3bfbd947806b6, 0x3ff00af46fd99fad},
			[4]uint64{0x3fe59853319f36e8, 0x3feea3577b9a497a, 0xbff6e7afe442e1e4, 0x3fe3e8936bb339c2}},
	} {
		id := m.Vocab.ID(tc.word)
		for i := range tc.in {
			if got := math.Float64bits(m.In.Row(id)[i]); got != tc.in[i] {
				t.Fatalf("%s In[%d] = %#016x, want %#016x", tc.word, i, got, tc.in[i])
			}
			if got := math.Float64bits(m.Out.Row(id)[i]); got != tc.out[i] {
				t.Fatalf("%s Out[%d] = %#016x, want %#016x", tc.word, i, got, tc.out[i])
			}
		}
	}
}

func TestWord2VecUnknownWord(t *testing.T) {
	m := TrainWord2Vec(toyCorpus(), DefaultW2VConfig())
	v := m.Vec("zzzunknown")
	if v.Norm() != 0 {
		t.Fatal("unknown word should embed to zero vector")
	}
	if m.Similarity("zzz", "grill") != 0 {
		t.Fatal("similarity with unknown should be 0")
	}
}

func TestEmbedSeq(t *testing.T) {
	m := TrainWord2Vec(toyCorpus(), DefaultW2VConfig())
	seq := m.EmbedSeq([]string{"grill", "zzz"})
	if len(seq) != 2 {
		t.Fatal("wrong length")
	}
	if seq[0].Norm() == 0 || seq[1].Norm() != 0 {
		t.Fatal("embedding mixup")
	}
}

func TestMinCountFiltersRareWords(t *testing.T) {
	corpus := [][]string{{"common", "common", "common", "rare"}}
	for i := 0; i < 10; i++ {
		corpus = append(corpus, []string{"common", "filler"})
	}
	cfg := DefaultW2VConfig()
	cfg.MinCount = 2
	m := TrainWord2Vec(corpus, cfg)
	if m.Vocab.Has("rare") {
		t.Fatal("rare word should be filtered by MinCount")
	}
	if !m.Vocab.Has("common") {
		t.Fatal("common word should be kept")
	}
}

func TestDoc2VecTopicSimilarity(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Dim = 16
	cfg.Epochs = 4
	m := TrainWord2Vec(toyCorpus(), cfg)
	d2v := NewDoc2Vec(m)
	kitchen1 := d2v.Encode([]string{"grill", "charcoal", "tongs"})
	kitchen2 := d2v.Encode([]string{"barbecue", "grill"})
	clothing := d2v.Encode([]string{"dress", "silk", "skirt"})
	if mat.CosineSimilarity(kitchen1, kitchen2) <= mat.CosineSimilarity(kitchen1, clothing) {
		t.Fatal("doc2vec should place same-topic docs closer")
	}
}

func TestDoc2VecEmptyAndUnknownDoc(t *testing.T) {
	m := TrainWord2Vec(toyCorpus(), DefaultW2VConfig())
	d2v := NewDoc2Vec(m)
	if d2v.Encode(nil).Norm() != 0 {
		t.Fatal("empty doc should be zero")
	}
	if d2v.Encode([]string{"zzz", "qqq"}).Norm() != 0 {
		t.Fatal("all-unknown doc should be zero")
	}
}

func TestDoc2VecDeterminism(t *testing.T) {
	m := TrainWord2Vec(toyCorpus(), DefaultW2VConfig())
	d2v := NewDoc2Vec(m)
	a := d2v.Encode([]string{"grill", "charcoal"})
	b := d2v.Encode([]string{"grill", "charcoal"})
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("doc2vec encode not deterministic")
		}
	}
}

func TestGlossary(t *testing.T) {
	m := TrainWord2Vec(toyCorpus(), DefaultW2VConfig())
	d2v := NewDoc2Vec(m)
	g := BuildGlossary(map[int]string{
		1: "grill charcoal barbecue",
		2: "dress silk wedding",
	}, d2v)
	if g.Vec(1).Norm() == 0 || g.Vec(2).Norm() == 0 {
		t.Fatal("gloss vectors should be nonzero")
	}
	if g.Vec(99).Norm() != 0 {
		t.Fatal("missing gloss should be zero vector")
	}
	if g.Text(1) == "" || g.Text(99) != "" {
		t.Fatal("gloss text lookup wrong")
	}
	// Vec returns a copy: mutating it must not corrupt the glossary.
	v := g.Vec(1)
	v[0] = 999
	if g.Vec(1)[0] == 999 {
		t.Fatal("Vec must return a copy")
	}
}

func TestWord2VecParallelLearnsTopics(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Dim = 16
	cfg.Epochs = 4
	cfg.Workers = 4
	m := TrainWord2Vec(toyCorpus(), cfg)
	same := m.Similarity("grill", "charcoal")
	cross := m.Similarity("grill", "dress")
	if same <= cross {
		t.Fatalf("parallel training lost topics: in-topic %v vs cross-topic %v", same, cross)
	}
}

func TestWord2VecParallelMatchesSequentialVocab(t *testing.T) {
	cfg := DefaultW2VConfig()
	cfg.Epochs = 1
	seq := TrainWord2Vec(toyCorpus(), cfg)
	cfg.Workers = 4
	parl := TrainWord2Vec(toyCorpus(), cfg)
	if seq.Vocab.Len() != parl.Vocab.Len() {
		t.Fatalf("vocab differs: %d vs %d", seq.Vocab.Len(), parl.Vocab.Len())
	}
}

func benchCorpus() [][]string {
	var corpus [][]string
	base := toyCorpus()
	for i := 0; i < 10; i++ {
		corpus = append(corpus, base...)
	}
	return corpus
}

func BenchmarkWord2VecTrainSequential(b *testing.B) {
	corpus := benchCorpus()
	cfg := DefaultW2VConfig()
	cfg.Epochs = 2
	for i := 0; i < b.N; i++ {
		TrainWord2Vec(corpus, cfg)
	}
}

func BenchmarkWord2VecTrainSharded(b *testing.B) {
	corpus := benchCorpus()
	cfg := DefaultW2VConfig()
	cfg.Epochs = 2
	cfg.Workers = runtime.GOMAXPROCS(0)
	for i := 0; i < b.N; i++ {
		TrainWord2Vec(corpus, cfg)
	}
}
