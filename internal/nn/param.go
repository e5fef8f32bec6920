// Package nn is the neural-network substrate used by every learned module in
// the AliCoCo reproduction: dense layers, embeddings, (bi)LSTMs, 1-D
// convolutions, self-attention, linear-chain CRFs (plain and fuzzy), and Adam,
// the one optimizer that trains them. Everything is stdlib-only float64 code with
// explicit, hand-derived backward passes; correctness is enforced by
// finite-difference gradient checks in the test suite.
package nn

import (
	"math/rand"

	"alicoco/internal/mat"
)

// Param is a single trainable tensor with its accumulated gradient.
type Param struct {
	Name string
	W    *mat.Mat
	G    *mat.Mat
}

// NewParam returns a zero-initialized parameter with the given shape.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: mat.NewMat(rows, cols), G: mat.NewMat(rows, cols)}
}

// NewParamXavier returns a Glorot-initialized parameter.
func NewParamXavier(name string, rows, cols int, rng *rand.Rand) *Param {
	p := NewParam(name, rows, cols)
	p.W.XavierInit(rng, cols, rows)
	return p
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is anything exposing trainable parameters.
type Layer interface {
	Params() []*Param
}

// CollectParams flattens the parameters of several layers.
func CollectParams(layers ...Layer) []*Param {
	var out []*Param
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrads clears the gradients of every parameter in ps.
func ZeroGrads(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}
