package nn

import (
	"math"
	"math/rand"

	"alicoco/internal/mat"
)

// LSTM is a single-direction long short-term memory layer applied over a
// sequence of input vectors. Gates are packed i|f|g|o into one weight matrix
// of shape (4H)×(In+H) as in the classic fused formulation.
type LSTM struct {
	In, Hidden int
	W          *Param // (4H)×(In+H)
	B          *Param // (4H)×1
}

// NewLSTM returns an LSTM with Glorot weights and forget-gate bias 1, the
// standard trick that eases gradient flow early in training.
func NewLSTM(name string, in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{
		In:     in,
		Hidden: hidden,
		W:      NewParamXavier(name+".W", 4*hidden, in+hidden, rng),
		B:      NewParam(name+".b", 4*hidden, 1),
	}
	for k := 0; k < hidden; k++ {
		l.B.W.Data[hidden+k] = 1 // forget gate bias
	}
	return l
}

// Params implements Layer.
func (l *LSTM) Params() []*Param { return []*Param{l.W, l.B} }

type lstmStep struct {
	x, hPrev, cPrev mat.Vec
	i, f, g, o      mat.Vec
	c, tanhC        mat.Vec
}

// LSTMCache stores per-step state for backpropagation through time.
type LSTMCache struct {
	steps []lstmStep
}

// Forward runs the LSTM over xs starting from zero state and returns the
// hidden state at every step plus the cache for Backward.
func (l *LSTM) Forward(xs []mat.Vec) ([]mat.Vec, *LSTMCache) {
	h := mat.NewVec(l.Hidden)
	c := mat.NewVec(l.Hidden)
	hs := make([]mat.Vec, len(xs))
	cache := &LSTMCache{steps: make([]lstmStep, len(xs))}
	H := l.Hidden
	for t, x := range xs {
		xh := mat.Concat(x, h)
		z := l.W.W.MulVec(xh)
		z.Add(l.B.W.Data)
		st := lstmStep{
			x: x, hPrev: h, cPrev: c,
			i: make(mat.Vec, H), f: make(mat.Vec, H), g: make(mat.Vec, H), o: make(mat.Vec, H),
			c: make(mat.Vec, H), tanhC: make(mat.Vec, H),
		}
		for k := 0; k < H; k++ {
			st.i[k] = mat.Sigmoid(z[k])
			st.f[k] = mat.Sigmoid(z[H+k])
			st.g[k] = math.Tanh(z[2*H+k])
			st.o[k] = mat.Sigmoid(z[3*H+k])
			st.c[k] = st.f[k]*c[k] + st.i[k]*st.g[k]
			st.tanhC[k] = math.Tanh(st.c[k])
		}
		newH := make(mat.Vec, H)
		for k := 0; k < H; k++ {
			newH[k] = st.o[k] * st.tanhC[k]
		}
		h, c = newH, st.c
		hs[t] = newH
		cache.steps[t] = st
	}
	return hs, cache
}

// Backward backpropagates through time given the gradient of the loss with
// respect to every hidden output, accumulates parameter gradients, and
// returns the gradient with respect to each input.
func (l *LSTM) Backward(dhs []mat.Vec, cache *LSTMCache) []mat.Vec {
	H := l.Hidden
	dxs := make([]mat.Vec, len(cache.steps))
	dhNext := mat.NewVec(H)
	dcNext := mat.NewVec(H)
	for t := len(cache.steps) - 1; t >= 0; t-- {
		st := cache.steps[t]
		dh := dhs[t].Clone()
		dh.Add(dhNext)
		dz := make(mat.Vec, 4*H)
		dc := dcNext.Clone()
		for k := 0; k < H; k++ {
			do := dh[k] * st.tanhC[k]
			dc[k] += dh[k] * st.o[k] * (1 - st.tanhC[k]*st.tanhC[k])
			di := dc[k] * st.g[k]
			df := dc[k] * st.cPrev[k]
			dg := dc[k] * st.i[k]
			dz[k] = di * st.i[k] * (1 - st.i[k])
			dz[H+k] = df * st.f[k] * (1 - st.f[k])
			dz[2*H+k] = dg * (1 - st.g[k]*st.g[k])
			dz[3*H+k] = do * st.o[k] * (1 - st.o[k])
		}
		xh := mat.Concat(st.x, st.hPrev)
		l.W.G.AddOuter(1, dz, xh)
		l.B.G.Data.Add(dz)
		dxh := l.W.W.MulVecT(dz)
		dxs[t] = mat.Vec(dxh[:l.In]).Clone()
		dhNext = mat.Vec(dxh[l.In:]).Clone()
		dcNext = make(mat.Vec, H)
		for k := 0; k < H; k++ {
			dcNext[k] = dc[k] * st.f[k]
		}
	}
	return dxs
}

// BiLSTM runs a forward and a backward LSTM over the sequence and
// concatenates their hidden states, giving each position context from both
// directions — the encoder used throughout the paper's models (Figures 4-6).
type BiLSTM struct {
	Fwd, Bwd *LSTM
}

// NewBiLSTM returns a bidirectional LSTM whose output dimension is 2*hidden.
func NewBiLSTM(name string, in, hidden int, rng *rand.Rand) *BiLSTM {
	return &BiLSTM{
		Fwd: NewLSTM(name+".fwd", in, hidden, rng),
		Bwd: NewLSTM(name+".bwd", in, hidden, rng),
	}
}

// Params implements Layer.
func (b *BiLSTM) Params() []*Param { return append(b.Fwd.Params(), b.Bwd.Params()...) }

// BiLSTMCache stores both directions' caches.
type BiLSTMCache struct {
	fwd, bwd *LSTMCache
	n        int
}

func reverseSeq(xs []mat.Vec) []mat.Vec {
	out := make([]mat.Vec, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// Forward returns per-position concatenated [fwd_t ; bwd_t] states.
func (b *BiLSTM) Forward(xs []mat.Vec) ([]mat.Vec, *BiLSTMCache) {
	fh, fc := b.Fwd.Forward(xs)
	bhRev, bc := b.Bwd.Forward(reverseSeq(xs))
	bh := reverseSeq(bhRev)
	out := make([]mat.Vec, len(xs))
	for t := range xs {
		out[t] = mat.Concat(fh[t], bh[t])
	}
	return out, &BiLSTMCache{fwd: fc, bwd: bc, n: len(xs)}
}

// Backward splits the upstream gradient between the two directions,
// backpropagates each, and returns summed input gradients.
func (b *BiLSTM) Backward(dhs []mat.Vec, cache *BiLSTMCache) []mat.Vec {
	H := b.Fwd.Hidden
	dFwd := make([]mat.Vec, cache.n)
	dBwd := make([]mat.Vec, cache.n)
	for t := 0; t < cache.n; t++ {
		dFwd[t] = mat.Vec(dhs[t][:H]).Clone()
		dBwd[cache.n-1-t] = mat.Vec(dhs[t][H:]).Clone()
	}
	dxF := b.Fwd.Backward(dFwd, cache.fwd)
	dxBRev := b.Bwd.Backward(dBwd, cache.bwd)
	dxB := reverseSeq(dxBRev)
	out := make([]mat.Vec, cache.n)
	for t := 0; t < cache.n; t++ {
		out[t] = dxF[t].Clone()
		out[t].Add(dxB[t])
	}
	return out
}
