package nn

import (
	"math"

	"alicoco/internal/mat"
)

// ClipGrads rescales all gradients so their global L2 norm is at most c.
// It returns the pre-clip norm.
func ClipGrads(ps []*Param, c float64) float64 {
	var sq float64
	for _, p := range ps {
		for _, g := range p.G.Data {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if c > 0 && norm > c {
		scale := c / norm
		for _, p := range ps {
			p.G.Scale(scale)
		}
	}
	return norm
}

// Adam is the Adam optimizer (Kingma & Ba) with bias correction and optional
// gradient clipping.
type Adam struct {
	LR, Beta1, Beta2, Eps, Clip float64
	t                           int
	m, v                        map[*Param]mat.Vec
}

// NewAdam returns an Adam optimizer with the usual defaults for the moments.
func NewAdam(lr, clip float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: clip,
		m: make(map[*Param]mat.Vec), v: make(map[*Param]mat.Vec),
	}
}

// Step applies one update to ps from their accumulated gradients, then
// clears the gradients.
func (o *Adam) Step(ps []*Param) {
	if o.Clip > 0 {
		ClipGrads(ps, o.Clip)
	}
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range ps {
		m, okm := o.m[p]
		if !okm {
			m = mat.NewVec(len(p.W.Data))
			o.m[p] = m
		}
		v, okv := o.v[p]
		if !okv {
			v = mat.NewVec(len(p.W.Data))
			o.v[p] = v
		}
		for i, g := range p.G.Data {
			m[i] = o.Beta1*m[i] + (1-o.Beta1)*g
			v[i] = o.Beta2*v[i] + (1-o.Beta2)*g*g
			mh := m[i] / bc1
			vh := v[i] / bc2
			p.W.Data[i] -= o.LR * mh / (math.Sqrt(vh) + o.Eps)
		}
		p.ZeroGrad()
	}
}
