package nn

import (
	"math"
	"math/rand"
	"testing"

	"alicoco/internal/mat"
)

// quadLoss returns 0.5*Σ||out_t||² and the matching upstream gradients.
func quadLoss(outs []mat.Vec) (float64, []mat.Vec) {
	var l float64
	ds := make([]mat.Vec, len(outs))
	for t, o := range outs {
		for _, x := range o {
			l += 0.5 * x * x
		}
		ds[t] = o.Clone()
	}
	return l, ds
}

func randSeq(rng *rand.Rand, n, dim int) []mat.Vec {
	xs := make([]mat.Vec, n)
	for t := range xs {
		xs[t] = make(mat.Vec, dim)
		for i := range xs[t] {
			xs[t][i] = rng.NormFloat64()
		}
	}
	return xs
}

func TestDenseGradCheck(t *testing.T) {
	for _, act := range []Activation{Identity, Tanh, SigmoidAct} {
		rng := rand.New(rand.NewSource(7))
		d := NewDense("d", 4, 3, act, rng)
		x := randSeq(rng, 1, 4)[0]
		y, c := d.Forward(x)
		_, dy := quadLoss([]mat.Vec{y})
		d.Backward(dy[0], c)
		loss := func() float64 {
			out, _ := d.Forward(x)
			l, _ := quadLoss([]mat.Vec{out})
			return l
		}
		if _, err := GradCheck(d.Params(), loss, 1e-5); err != nil {
			t.Fatalf("act=%d: %v", act, err)
		}
	}
}

func TestDenseInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	d := NewDense("d", 4, 3, Tanh, rng)
	x := randSeq(rng, 1, 4)[0]
	y, c := d.Forward(x)
	_, dy := quadLoss([]mat.Vec{y})
	dx := d.Backward(dy[0], c)
	// finite differences on the input
	eps := 1e-5
	for i := range x {
		orig := x[i]
		x[i] = orig + eps
		yp, _ := d.Forward(x)
		lp, _ := quadLoss([]mat.Vec{yp})
		x[i] = orig - eps
		ym, _ := d.Forward(x)
		lm, _ := quadLoss([]mat.Vec{ym})
		x[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-dx[i]) > 1e-4*(1+math.Abs(num)) {
			t.Fatalf("input grad %d: analytic %v numeric %v", i, dx[i], num)
		}
	}
}

func TestLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	l := NewLSTM("l", 3, 4, rng)
	xs := randSeq(rng, 5, 3)
	hs, c := l.Forward(xs)
	_, dhs := quadLoss(hs)
	l.Backward(dhs, c)
	loss := func() float64 {
		out, _ := l.Forward(xs)
		v, _ := quadLoss(out)
		return v
	}
	if _, err := GradCheck(l.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestLSTMInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	l := NewLSTM("l", 2, 3, rng)
	xs := randSeq(rng, 4, 2)
	hs, c := l.Forward(xs)
	_, dhs := quadLoss(hs)
	dxs := l.Backward(dhs, c)
	eps := 1e-5
	for t0 := range xs {
		for i := range xs[t0] {
			orig := xs[t0][i]
			xs[t0][i] = orig + eps
			hp, _ := l.Forward(xs)
			lp, _ := quadLoss(hp)
			xs[t0][i] = orig - eps
			hm, _ := l.Forward(xs)
			lm, _ := quadLoss(hm)
			xs[t0][i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[t0][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("input grad (%d,%d): analytic %v numeric %v", t0, i, dxs[t0][i], num)
			}
		}
	}
}

func TestBiLSTMGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	b := NewBiLSTM("b", 3, 2, rng)
	xs := randSeq(rng, 4, 3)
	hs, c := b.Forward(xs)
	if len(hs[0]) != 2*b.Fwd.Hidden {
		t.Fatalf("output dim: got %d want %d", len(hs[0]), 2*b.Fwd.Hidden)
	}
	_, dhs := quadLoss(hs)
	b.Backward(dhs, c)
	loss := func() float64 {
		out, _ := b.Forward(xs)
		v, _ := quadLoss(out)
		return v
	}
	if _, err := GradCheck(b.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestConv1DGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	cv := NewConv1D("c", 3, 4, 3, Tanh, rng)
	xs := randSeq(rng, 5, 3)
	ys, c := cv.Forward(xs)
	_, dys := quadLoss(ys)
	cv.Backward(dys, c)
	loss := func() float64 {
		out, _ := cv.Forward(xs)
		v, _ := quadLoss(out)
		return v
	}
	if _, err := GradCheck(cv.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestConv1DInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	cv := NewConv1D("c", 2, 3, 3, Identity, rng)
	xs := randSeq(rng, 4, 2)
	ys, c := cv.Forward(xs)
	_, dys := quadLoss(ys)
	dxs := cv.Backward(dys, c)
	eps := 1e-5
	for t0 := range xs {
		for i := range xs[t0] {
			orig := xs[t0][i]
			xs[t0][i] = orig + eps
			yp, _ := cv.Forward(xs)
			lp, _ := quadLoss(yp)
			xs[t0][i] = orig - eps
			ym, _ := cv.Forward(xs)
			lm, _ := quadLoss(ym)
			xs[t0][i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[t0][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("input grad (%d,%d): analytic %v numeric %v", t0, i, dxs[t0][i], num)
			}
		}
	}
}

func TestConv1DEvenWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even window")
		}
	}()
	NewConv1D("c", 2, 3, 2, Identity, rand.New(rand.NewSource(1)))
}

func TestSelfAttentionGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	sa := NewSelfAttention("a", 3, 4, rng)
	xs := randSeq(rng, 4, 3)
	ys, c := sa.Forward(xs)
	_, dys := quadLoss(ys)
	sa.Backward(dys, c)
	loss := func() float64 {
		out, _ := sa.Forward(xs)
		v, _ := quadLoss(out)
		return v
	}
	if _, err := GradCheck(sa.Params(), loss, 1e-5); err != nil {
		t.Fatal(err)
	}
}

func TestSelfAttentionInputGradCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	sa := NewSelfAttention("a", 2, 3, rng)
	xs := randSeq(rng, 3, 2)
	ys, c := sa.Forward(xs)
	_, dys := quadLoss(ys)
	dxs := sa.Backward(dys, c)
	eps := 1e-5
	for t0 := range xs {
		for i := range xs[t0] {
			orig := xs[t0][i]
			xs[t0][i] = orig + eps
			yp, _ := sa.Forward(xs)
			lp, _ := quadLoss(yp)
			xs[t0][i] = orig - eps
			ym, _ := sa.Forward(xs)
			lm, _ := quadLoss(ym)
			xs[t0][i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-dxs[t0][i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("input grad (%d,%d): analytic %v numeric %v", t0, i, dxs[t0][i], num)
			}
		}
	}
}

func TestMaxPoolBackwardRouting(t *testing.T) {
	xs := []mat.Vec{{1, 5}, {3, 2}}
	y, c := MaxPool(xs)
	if y[0] != 3 || y[1] != 5 {
		t.Fatalf("MaxPool: got %v", y)
	}
	dxs := MaxPoolBackward(mat.Vec{10, 20}, c)
	if dxs[1][0] != 10 || dxs[0][1] != 20 || dxs[0][0] != 0 || dxs[1][1] != 0 {
		t.Fatalf("MaxPoolBackward: got %v", dxs)
	}
}

func TestMeanPool(t *testing.T) {
	xs := []mat.Vec{{2, 4}, {4, 8}}
	y := MeanPool(xs)
	if y[0] != 3 || y[1] != 6 {
		t.Fatalf("MeanPool: got %v", y)
	}
	dxs := MeanPoolBackward(mat.Vec{2, 2}, 2)
	if dxs[0][0] != 1 || dxs[1][1] != 1 {
		t.Fatalf("MeanPoolBackward: got %v", dxs)
	}
}

func TestEmbeddingLookupAndAccumulate(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	e := NewEmbedding("e", 5, 3, rng)
	v := e.Lookup(2)
	if len(v) != 3 {
		t.Fatalf("Lookup dim: got %d", len(v))
	}
	// out-of-range lookup returns zeros
	z := e.Lookup(-1)
	for _, x := range z {
		if x != 0 {
			t.Fatal("Lookup(-1) should be zero vector")
		}
	}
	e.Accumulate(2, mat.Vec{1, 1, 1})
	if e.Table.G.At(2, 0) != 1 {
		t.Fatal("Accumulate did not write gradient")
	}
	e.Accumulate(99, mat.Vec{1, 1, 1}) // must not panic
	e.Frozen = true
	e.Accumulate(2, mat.Vec{1, 1, 1})
	if e.Table.G.At(2, 0) != 1 {
		t.Fatal("frozen embedding must not accumulate")
	}
	if e.Params() != nil {
		t.Fatal("frozen embedding must expose no params")
	}
}

func TestAdamReducesQuadratic(t *testing.T) {
	p := NewParam("x", 1, 1)
	p.W.Data[0] = 5
	opt := NewAdam(0.1, 0)
	for i := 0; i < 500; i++ {
		p.G.Data[0] = p.W.Data[0]
		opt.Step([]*Param{p})
	}
	if math.Abs(p.W.Data[0]) > 1e-2 {
		t.Fatalf("Adam did not converge: x=%v", p.W.Data[0])
	}
}

func TestClipGrads(t *testing.T) {
	p := NewParam("x", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4 // norm 5
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm: got %v", norm)
	}
	got := math.Hypot(p.G.Data[0], p.G.Data[1])
	if math.Abs(got-1) > 1e-9 {
		t.Fatalf("post-clip norm: got %v", got)
	}
}

func TestCollectParamsAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	d := NewDense("d", 2, 2, Identity, rng)
	l := NewLSTM("l", 2, 2, rng)
	ps := CollectParams(d, l)
	if len(ps) != 4 {
		t.Fatalf("CollectParams: got %d params", len(ps))
	}
	ps[0].G.Data[0] = 9
	ZeroGrads(ps)
	if ps[0].G.Data[0] != 0 {
		t.Fatal("ZeroGrads did not clear")
	}
}
