package nn

import (
	"math/rand"

	"alicoco/internal/mat"
)

// Embedding is a lookup table mapping token ids to dense vectors.
type Embedding struct {
	Vocab, Dim int
	Table      *Param
	Frozen     bool // when true, Backward does not accumulate gradients
}

// NewEmbedding returns an embedding table initialized uniformly in
// [-0.5/dim, 0.5/dim], the word2vec convention.
func NewEmbedding(name string, vocab, dim int, rng *rand.Rand) *Embedding {
	e := &Embedding{Vocab: vocab, Dim: dim, Table: NewParam(name, vocab, dim)}
	e.Table.W.RandInit(rng, 0.5/float64(dim))
	return e
}

// Params implements Layer. A frozen embedding exposes no trainable params.
func (e *Embedding) Params() []*Param {
	if e.Frozen {
		return nil
	}
	return []*Param{e.Table}
}

// Lookup returns the vector for id. Ids outside the table return a zero
// vector (used for padding / unknown tokens mapped to -1).
func (e *Embedding) Lookup(id int) mat.Vec {
	if id < 0 || id >= e.Vocab {
		return mat.NewVec(e.Dim)
	}
	return e.Table.W.Row(id).Clone()
}

// LookupSeq maps a sequence of ids to vectors.
func (e *Embedding) LookupSeq(ids []int) []mat.Vec {
	out := make([]mat.Vec, len(ids))
	for i, id := range ids {
		out[i] = e.Lookup(id)
	}
	return out
}

// Accumulate adds the gradient d into the row for id.
func (e *Embedding) Accumulate(id int, d mat.Vec) {
	if e.Frozen || id < 0 || id >= e.Vocab {
		return
	}
	e.Table.G.Row(id).Add(d)
}

// AccumulateSeq adds per-position gradients for a sequence lookup.
func (e *Embedding) AccumulateSeq(ids []int, ds []mat.Vec) {
	for i, id := range ids {
		e.Accumulate(id, ds[i])
	}
}
