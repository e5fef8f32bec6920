package nn

import (
	"math"
	"math/rand"

	"alicoco/internal/mat"
)

// CRF is a linear-chain conditional random field over K labels with learned
// transition scores, including virtual START and END states. It provides
// both the standard negative log-likelihood (single gold path, Figure 4) and
// the fuzzy variant of Shang et al. used in Section 5.3, whose numerator
// marginalizes over a *set* of acceptable label sequences (Equation 8).
type CRF struct {
	K     int
	Trans *Param // (K+2)×(K+2); row/col K = START, K+1 = END
}

// NewCRF returns a CRF with small random transition scores.
func NewCRF(name string, k int, rng *rand.Rand) *CRF {
	c := &CRF{K: k, Trans: NewParam(name+".trans", k+2, k+2)}
	c.Trans.W.RandInit(rng, 0.1)
	return c
}

// Params implements Layer.
func (c *CRF) Params() []*Param { return []*Param{c.Trans} }

func (c *CRF) start() int { return c.K }
func (c *CRF) end() int   { return c.K + 1 }

// forwardBackward computes the log-partition over label sequences restricted
// to `allowed` (nil means unrestricted) and, when sign != 0, accumulates
// sign * expected sufficient statistics into the transition gradient and
// into dEmit. This single routine powers both terms of the (fuzzy) loss.
func (c *CRF) forwardBackward(emit []mat.Vec, allowed [][]bool, sign float64, dEmit []mat.Vec) float64 {
	n := len(emit)
	if n == 0 {
		return 0
	}
	K := c.K
	tr := c.Trans.W
	ok := func(t, k int) bool {
		if allowed == nil {
			return true
		}
		row := allowed[t]
		any := false
		for _, b := range row {
			if b {
				any = true
				break
			}
		}
		if !any {
			return true // degenerate mask: treat as unrestricted
		}
		return row[k]
	}
	negInf := math.Inf(-1)
	alpha := make([]mat.Vec, n)
	for t := range alpha {
		alpha[t] = make(mat.Vec, K)
	}
	for k := 0; k < K; k++ {
		if ok(0, k) {
			alpha[0][k] = emit[0][k] + tr.At(c.start(), k)
		} else {
			alpha[0][k] = negInf
		}
	}
	scratch := make(mat.Vec, K)
	for t := 1; t < n; t++ {
		for k := 0; k < K; k++ {
			if !ok(t, k) {
				alpha[t][k] = negInf
				continue
			}
			for j := 0; j < K; j++ {
				scratch[j] = alpha[t-1][j] + tr.At(j, k)
			}
			alpha[t][k] = emit[t][k] + mat.LogSumExp(scratch)
		}
	}
	final := make(mat.Vec, K)
	for k := 0; k < K; k++ {
		final[k] = alpha[n-1][k] + tr.At(k, c.end())
	}
	logZ := mat.LogSumExp(final)
	if sign == 0 {
		return logZ
	}

	beta := make([]mat.Vec, n)
	for t := range beta {
		beta[t] = make(mat.Vec, K)
	}
	for k := 0; k < K; k++ {
		beta[n-1][k] = tr.At(k, c.end())
	}
	for t := n - 2; t >= 0; t-- {
		for k := 0; k < K; k++ {
			for j := 0; j < K; j++ {
				if ok(t+1, j) {
					scratch[j] = tr.At(k, j) + emit[t+1][j] + beta[t+1][j]
				} else {
					scratch[j] = negInf
				}
			}
			beta[t][k] = mat.LogSumExp(scratch)
		}
	}

	g := c.Trans.G
	// Unary marginals -> emission grads, START and END transitions.
	for t := 0; t < n; t++ {
		for k := 0; k < K; k++ {
			lp := alpha[t][k] + beta[t][k] - logZ
			if math.IsInf(lp, -1) {
				continue
			}
			p := math.Exp(lp)
			dEmit[t][k] += sign * p
			if t == 0 {
				g.Set(c.start(), k, g.At(c.start(), k)+sign*p)
			}
			if t == n-1 {
				g.Set(k, c.end(), g.At(k, c.end())+sign*p)
			}
		}
	}
	// Pairwise marginals -> interior transition grads.
	for t := 0; t < n-1; t++ {
		for j := 0; j < K; j++ {
			if math.IsInf(alpha[t][j], -1) {
				continue
			}
			for k := 0; k < K; k++ {
				if !ok(t+1, k) {
					continue
				}
				lp := alpha[t][j] + tr.At(j, k) + emit[t+1][k] + beta[t+1][k] - logZ
				if math.IsInf(lp, -1) {
					continue
				}
				g.Set(j, k, g.At(j, k)+sign*math.Exp(lp))
			}
		}
	}
	return logZ
}

// pathScore returns the score of a specific label path and, when sign != 0,
// accumulates sign * its sufficient statistics.
func (c *CRF) pathScore(emit []mat.Vec, path []int, sign float64, dEmit []mat.Vec) float64 {
	n := len(emit)
	if n == 0 {
		return 0
	}
	tr, g := c.Trans.W, c.Trans.G
	s := emit[0][path[0]] + tr.At(c.start(), path[0])
	if sign != 0 {
		dEmit[0][path[0]] += sign
		g.Set(c.start(), path[0], g.At(c.start(), path[0])+sign)
	}
	for t := 1; t < n; t++ {
		s += emit[t][path[t]] + tr.At(path[t-1], path[t])
		if sign != 0 {
			dEmit[t][path[t]] += sign
			g.Set(path[t-1], path[t], g.At(path[t-1], path[t])+sign)
		}
	}
	s += tr.At(path[n-1], c.end())
	if sign != 0 {
		g.Set(path[n-1], c.end(), g.At(path[n-1], c.end())+sign)
	}
	return s
}

// Loss returns the negative log-likelihood of the gold path and accumulates
// gradients into the transition parameters and the returned dEmit.
func (c *CRF) Loss(emit []mat.Vec, gold []int) (float64, []mat.Vec) {
	dEmit := make([]mat.Vec, len(emit))
	for t := range dEmit {
		dEmit[t] = make(mat.Vec, c.K)
	}
	logZ := c.forwardBackward(emit, nil, 1, dEmit)
	score := c.pathScore(emit, gold, -1, dEmit)
	return logZ - score, dEmit
}

// FuzzyLoss returns -log P(Y ∈ allowed | X): the log-partition over all
// sequences minus the log-partition over the allowed set (Equation 8).
func (c *CRF) FuzzyLoss(emit []mat.Vec, allowed [][]bool) (float64, []mat.Vec) {
	dEmit := make([]mat.Vec, len(emit))
	for t := range dEmit {
		dEmit[t] = make(mat.Vec, c.K)
	}
	logZ := c.forwardBackward(emit, nil, 1, dEmit)
	logZc := c.forwardBackward(emit, allowed, -1, dEmit)
	return logZ - logZc, dEmit
}

// Decode returns the Viterbi-optimal label path and its score.
func (c *CRF) Decode(emit []mat.Vec) ([]int, float64) {
	n := len(emit)
	if n == 0 {
		return nil, 0
	}
	K := c.K
	tr := c.Trans.W
	delta := make([]mat.Vec, n)
	back := make([][]int, n)
	for t := range delta {
		delta[t] = make(mat.Vec, K)
		back[t] = make([]int, K)
	}
	for k := 0; k < K; k++ {
		delta[0][k] = emit[0][k] + tr.At(c.start(), k)
	}
	for t := 1; t < n; t++ {
		for k := 0; k < K; k++ {
			best, arg := math.Inf(-1), 0
			for j := 0; j < K; j++ {
				s := delta[t-1][j] + tr.At(j, k)
				if s > best {
					best, arg = s, j
				}
			}
			delta[t][k] = emit[t][k] + best
			back[t][k] = arg
		}
	}
	best, arg := math.Inf(-1), 0
	for k := 0; k < K; k++ {
		s := delta[n-1][k] + tr.At(k, c.end())
		if s > best {
			best, arg = s, k
		}
	}
	path := make([]int, n)
	path[n-1] = arg
	for t := n - 1; t > 0; t-- {
		path[t-1] = back[t][path[t]]
	}
	return path, best
}
