package nn

import (
	"math"
	"math/rand"

	"alicoco/internal/mat"
)

// Activation identifies the nonlinearity applied by a Dense layer.
type Activation int

// Supported activations.
const (
	Identity Activation = iota
	Tanh
	SigmoidAct
	ReLU
)

func activate(a Activation, x float64) float64 {
	switch a {
	case Tanh:
		return math.Tanh(x)
	case SigmoidAct:
		return mat.Sigmoid(x)
	case ReLU:
		if x < 0 {
			return 0
		}
		return x
	default:
		return x
	}
}

// activateGrad returns dy/dz given the activation output y.
func activateGrad(a Activation, y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case SigmoidAct:
		return y * (1 - y)
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// Dense is a fully connected layer y = act(Wx + b).
type Dense struct {
	In, Out int
	Act     Activation
	W, B    *Param
}

// NewDense returns a Glorot-initialized dense layer.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		Act: act,
		W:   NewParamXavier(name+".W", out, in, rng),
		B:   NewParam(name+".b", out, 1),
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// DenseCache stores the forward state needed for the backward pass.
type DenseCache struct {
	x, y mat.Vec
}

// Forward applies the layer to x and returns the output with a cache.
func (d *Dense) Forward(x mat.Vec) (mat.Vec, *DenseCache) {
	y := d.W.W.MulVec(x)
	for i := range y {
		y[i] = activate(d.Act, y[i]+d.B.W.Data[i])
	}
	return y, &DenseCache{x: x, y: y}
}

// Backward accumulates gradients for dy at the cached input and returns dx.
func (d *Dense) Backward(dy mat.Vec, c *DenseCache) mat.Vec {
	dz := make(mat.Vec, d.Out)
	for i := range dz {
		dz[i] = dy[i] * activateGrad(d.Act, c.y[i])
	}
	d.W.G.AddOuter(1, dz, c.x)
	d.B.G.Data.Add(dz)
	return d.W.W.MulVecT(dz)
}
