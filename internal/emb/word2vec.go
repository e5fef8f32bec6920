// Package emb trains the distributional embeddings the paper's models
// consume: skip-gram word vectors with negative sampling (the stand-in for
// pre-trained GloVe, Section 5.3), a PV-DBOW document encoder (the stand-in
// for Doc2vec, Section 5.2.2), and the gloss knowledge base built from the
// world's generated glosses (the stand-in for Wikipedia).
package emb

import (
	"math"
	"math/rand"
	"sync"

	"alicoco/internal/mat"
	"alicoco/internal/text"
)

// W2VConfig controls skip-gram training.
type W2VConfig struct {
	Dim      int
	Window   int
	Negative int
	Epochs   int
	LR       float64
	MinCount int
	Seed     int64
	// Workers shards each epoch's sentences across this many goroutines,
	// HogWild-style with striped row locks. Workers <= 1 trains
	// sequentially and bit-exactly deterministically for a fixed config;
	// with more workers each shard's sampling sequence is still fixed by
	// (Seed, shard, epoch), but concurrent row updates may interleave
	// differently between runs, so final vectors can differ in the last
	// bits. pipeline.DefaultOptions sets Workers to GOMAXPROCS.
	Workers int
}

// DefaultW2VConfig returns settings sized for the synthetic corpus.
func DefaultW2VConfig() W2VConfig {
	return W2VConfig{Dim: 32, Window: 3, Negative: 5, Epochs: 3, LR: 0.05, MinCount: 1, Seed: 1}
}

// Word2Vec holds trained input (In) and output (Out) vectors per vocab id.
type Word2Vec struct {
	Vocab *text.Vocab
	Dim   int
	In    *mat.Mat
	Out   *mat.Mat

	unigram []int // negative-sampling table of vocab ids
}

// TrainWord2Vec trains skip-gram with negative sampling over the corpus.
// Deterministic for a fixed config when cfg.Workers <= 1; see W2VConfig.
func TrainWord2Vec(corpus [][]string, cfg W2VConfig) *Word2Vec {
	rng := rand.New(rand.NewSource(cfg.Seed))
	counts := make(map[string]int)
	for _, sent := range corpus {
		for _, w := range sent {
			counts[w]++
		}
	}
	vocab := text.NewVocab()
	for _, sent := range corpus {
		for _, w := range sent {
			if counts[w] >= cfg.MinCount {
				vocab.Add(w)
			}
		}
	}
	vocab.Freeze()
	m := &Word2Vec{Vocab: vocab, Dim: cfg.Dim, In: mat.NewMat(vocab.Len(), cfg.Dim), Out: mat.NewMat(vocab.Len(), cfg.Dim)}
	m.In.RandInit(rng, 0.5/float64(cfg.Dim))
	m.buildUnigramTable(counts)

	workers := cfg.Workers
	if workers > len(corpus) {
		workers = len(corpus)
	}
	if workers > 1 {
		m.trainSharded(corpus, cfg, workers)
		return m
	}
	scratch := &pairScratch{dIn: mat.NewVec(m.Dim)}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - float64(epoch)/float64(cfg.Epochs+1))
		for _, sent := range corpus {
			m.trainSentence(sent, cfg.Negative, cfg.Window, lr, rng, scratch, nil, nil)
		}
	}
	return m
}

// trainSentence runs the skip-gram window loop over one sentence. With nil
// locks it performs the classic sequential updates; with striped locks it
// performs the lock-protected HogWild-style updates of sharded training.
// Either way the pair updates run on the caller's scratch.
func (m *Word2Vec) trainSentence(sent []string, negative, window int, lr float64, rng *rand.Rand, s *pairScratch, inMu, outMu *stripedLocks) {
	ids := m.Vocab.EncodeFixed(sent)
	for i, center := range ids {
		if center == text.UnkID || center == text.PadID {
			continue
		}
		win := 1 + rng.Intn(window)
		for j := i - win; j <= i+win; j++ {
			if j < 0 || j >= len(ids) || j == i {
				continue
			}
			ctx := ids[j]
			if ctx == text.UnkID || ctx == text.PadID {
				continue
			}
			if inMu == nil {
				m.trainPair(center, ctx, negative, lr, rng, s)
			} else {
				m.trainPairLocked(center, ctx, negative, lr, rng, s, inMu, outMu)
			}
		}
	}
}

// lockStripes is the number of row-lock stripes per matrix; a power of two
// so striping is a mask. 256 stripes keep collision odds low at GOMAXPROCS
// worker counts while the lock arrays stay cache-resident.
const lockStripes = 256

type stripedLocks [lockStripes]sync.Mutex

func (s *stripedLocks) of(row int) *sync.Mutex { return &s[row&(lockStripes-1)] }

// pairScratch is per-training (sequential) or per-worker (sharded) scratch,
// so pair updates allocate nothing.
type pairScratch struct {
	in  mat.Vec // stable copy of the center row for this pair (sharded only)
	dIn mat.Vec // accumulated center-row gradient
}

// trainSharded splits each epoch's sentences round-robin across workers.
// Every shard draws windows and negatives from its own RNG seeded by
// (Seed, epoch, shard), so the sampled work is scheduling-independent;
// row updates go through striped locks (one held at a time — no lock
// ordering, no deadlock), so training is race-free under -race. Like
// HogWild, a worker may read a center row that another worker is about to
// update; that staleness is benign for SGD.
func (m *Word2Vec) trainSharded(corpus [][]string, cfg W2VConfig, workers int) {
	var inMu, outMu stripedLocks
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		lr := cfg.LR * (1 - float64(epoch)/float64(cfg.Epochs+1))
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(cfg.Seed + int64(epoch)*104729 + int64(w)*7919))
				scratch := &pairScratch{in: mat.NewVec(m.Dim), dIn: mat.NewVec(m.Dim)}
				for i := w; i < len(corpus); i += workers {
					m.trainSentence(corpus[i], cfg.Negative, cfg.Window, lr, rng, scratch, &inMu, &outMu)
				}
			}(w)
		}
		wg.Wait()
	}
}

func (m *Word2Vec) buildUnigramTable(counts map[string]int) {
	const tableSize = 1 << 16
	var total float64
	pow := make([]float64, m.Vocab.Len())
	for w, c := range counts {
		id := m.Vocab.ID(w)
		if id <= text.UnkID {
			continue
		}
		pow[id] = math.Pow(float64(c), 0.75)
		total += pow[id]
	}
	if total == 0 {
		return
	}
	m.unigram = make([]int, 0, tableSize)
	for id, p := range pow {
		n := int(p / total * tableSize)
		for k := 0; k <= n; k++ {
			m.unigram = append(m.unigram, id)
		}
	}
}

// trainPair performs one SGNS update: center's In vector against ctx's Out
// vector (positive) and sampled negatives.
func (m *Word2Vec) trainPair(center, ctx, negative int, lr float64, rng *rand.Rand, s *pairScratch) {
	in := m.In.Row(center)
	dIn := s.dIn
	clear(dIn)
	update := func(outID int, label float64) {
		out := m.Out.Row(outID)
		p := mat.Sigmoid(in.Dot(out))
		g := (p - label) * lr
		dIn.AddScaled(-g, out)
		out.AddScaled(-g, in)
	}
	update(ctx, 1)
	for k := 0; k < negative && len(m.unigram) > 0; k++ {
		neg := m.unigram[rng.Intn(len(m.unigram))]
		if neg == ctx {
			continue
		}
		update(neg, 0)
	}
	in.Add(dIn)
}

// trainPairLocked is the sharded-training counterpart of trainPair: the
// same SGNS update, but every read or write of a shared row happens under
// that row's stripe lock, and at most one lock is held at a time.
func (m *Word2Vec) trainPairLocked(center, ctx, negative int, lr float64, rng *rand.Rand, s *pairScratch, inMu, outMu *stripedLocks) {
	cmu := inMu.of(center)
	cmu.Lock()
	copy(s.in, m.In.Row(center))
	cmu.Unlock()
	for i := range s.dIn {
		s.dIn[i] = 0
	}
	update := func(outID int, label float64) {
		omu := outMu.of(outID)
		omu.Lock()
		out := m.Out.Row(outID)
		p := mat.Sigmoid(s.in.Dot(out))
		g := (p - label) * lr
		s.dIn.AddScaled(-g, out)
		out.AddScaled(-g, s.in)
		omu.Unlock()
	}
	update(ctx, 1)
	for k := 0; k < negative && len(m.unigram) > 0; k++ {
		neg := m.unigram[rng.Intn(len(m.unigram))]
		if neg == ctx {
			continue
		}
		update(neg, 0)
	}
	cmu.Lock()
	m.In.Row(center).Add(s.dIn)
	cmu.Unlock()
}

// Vec returns the input vector for a word (zero vector if unknown).
func (m *Word2Vec) Vec(word string) mat.Vec {
	id := m.Vocab.ID(word)
	if id == text.UnkID || id == text.PadID {
		return mat.NewVec(m.Dim)
	}
	return m.In.Row(id).Clone()
}

// Similarity returns the cosine similarity of two words' vectors.
func (m *Word2Vec) Similarity(a, b string) float64 {
	return mat.CosineSimilarity(m.Vec(a), m.Vec(b))
}

// EmbedSeq maps tokens to their vectors.
func (m *Word2Vec) EmbedSeq(tokens []string) []mat.Vec {
	out := make([]mat.Vec, len(tokens))
	for i, w := range tokens {
		out[i] = m.Vec(w)
	}
	return out
}
