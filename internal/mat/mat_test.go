package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestVecAddScaleDot(t *testing.T) {
	v := Vec{1, 2, 3}
	u := Vec{4, 5, 6}
	v.Add(u)
	if v[0] != 5 || v[1] != 7 || v[2] != 9 {
		t.Fatalf("Add: got %v", v)
	}
	v.Scale(2)
	if v[0] != 10 || v[2] != 18 {
		t.Fatalf("Scale: got %v", v)
	}
	if got := u.Dot(Vec{1, 0, 1}); got != 10 {
		t.Fatalf("Dot: got %v want 10", got)
	}
}

func TestVecAddScaled(t *testing.T) {
	v := Vec{1, 1}
	v.AddScaled(3, Vec{2, -1})
	if v[0] != 7 || v[1] != -2 {
		t.Fatalf("AddScaled: got %v", v)
	}
}

func TestVecMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Add(Vec{1, 2})
}

func TestMaxArgMax(t *testing.T) {
	v := Vec{-1, 5, 3, 5}
	max, at := v.Max()
	if max != 5 || at != 1 {
		t.Fatalf("Max: got %v at %d", max, at)
	}
	if v.ArgMax() != 1 {
		t.Fatalf("ArgMax: got %d", v.ArgMax())
	}
}

func TestSumMeanNorm(t *testing.T) {
	v := Vec{3, 4}
	if v.Sum() != 7 {
		t.Fatalf("Sum: got %v", v.Sum())
	}
	if v.Mean() != 3.5 {
		t.Fatalf("Mean: got %v", v.Mean())
	}
	if !almostEqual(v.Norm(), 5, 1e-12) {
		t.Fatalf("Norm: got %v", v.Norm())
	}
	if (Vec{}).Mean() != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func TestSoftmaxSumsToOne(t *testing.T) {
	v := Vec{1, 2, 3, 4}
	s := Softmax(v)
	if !almostEqual(s.Sum(), 1, 1e-12) {
		t.Fatalf("Softmax sum: got %v", s.Sum())
	}
	for i := 1; i < len(s); i++ {
		if s[i] <= s[i-1] {
			t.Fatalf("Softmax should be increasing for increasing input: %v", s)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	s := Softmax(Vec{1000, 1000, 1000})
	for _, x := range s {
		if !almostEqual(x, 1.0/3, 1e-12) {
			t.Fatalf("Softmax large values: got %v", s)
		}
	}
}

func TestLogSumExp(t *testing.T) {
	v := Vec{0, 0}
	if !almostEqual(LogSumExp(v), math.Log(2), 1e-12) {
		t.Fatalf("LogSumExp: got %v", LogSumExp(v))
	}
	if !math.IsInf(LogSumExp(Vec{}), -1) {
		t.Fatal("LogSumExp of empty should be -Inf")
	}
	// Stability at large magnitudes.
	if got := LogSumExp(Vec{1e4, 1e4}); !almostEqual(got, 1e4+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp stability: got %v", got)
	}
}

func TestSigmoid(t *testing.T) {
	if !almostEqual(Sigmoid(0), 0.5, 1e-12) {
		t.Fatal("Sigmoid(0) != 0.5")
	}
	if Sigmoid(100) <= 0.999 || Sigmoid(-100) >= 0.001 {
		t.Fatal("Sigmoid saturation wrong")
	}
	// Symmetry: sigmoid(-x) = 1 - sigmoid(x).
	for _, x := range []float64{-3, -0.5, 0.7, 2} {
		if !almostEqual(Sigmoid(-x), 1-Sigmoid(x), 1e-12) {
			t.Fatalf("Sigmoid symmetry failed at %v", x)
		}
	}
}

func TestConcat(t *testing.T) {
	v := Concat(Vec{1, 2}, Vec{}, Vec{3})
	if len(v) != 3 || v[0] != 1 || v[2] != 3 {
		t.Fatalf("Concat: got %v", v)
	}
}

func TestCosineSimilarity(t *testing.T) {
	if !almostEqual(CosineSimilarity(Vec{1, 0}, Vec{1, 0}), 1, 1e-12) {
		t.Fatal("cos of identical vectors should be 1")
	}
	if !almostEqual(CosineSimilarity(Vec{1, 0}, Vec{0, 1}), 0, 1e-12) {
		t.Fatal("cos of orthogonal vectors should be 0")
	}
	if CosineSimilarity(Vec{0, 0}, Vec{1, 1}) != 0 {
		t.Fatal("cos with zero vector should be 0")
	}
}

func TestMatMulVec(t *testing.T) {
	m := NewMatFrom([][]float64{{1, 2}, {3, 4}, {5, 6}})
	out := m.MulVec(Vec{1, 1})
	if out[0] != 3 || out[1] != 7 || out[2] != 11 {
		t.Fatalf("MulVec: got %v", out)
	}
	outT := m.MulVecT(Vec{1, 1, 1})
	if outT[0] != 9 || outT[1] != 12 {
		t.Fatalf("MulVecT: got %v", outT)
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 3)
	m.AddOuter(2, Vec{1, 2}, Vec{1, 0, 1})
	want := [][]float64{{2, 0, 2}, {4, 0, 4}}
	for r := 0; r < 2; r++ {
		for c := 0; c < 3; c++ {
			if m.At(r, c) != want[r][c] {
				t.Fatalf("AddOuter at (%d,%d): got %v want %v", r, c, m.At(r, c), want[r][c])
			}
		}
	}
}

func TestMatRowSharesStorage(t *testing.T) {
	m := NewMat(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row should alias matrix storage")
	}
}

func TestXavierInitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := NewMat(10, 10)
	m.XavierInit(rng, 10, 10)
	bound := math.Sqrt(6.0 / 20.0)
	for _, x := range m.Data {
		if x < -bound || x > bound {
			t.Fatalf("Xavier value %v outside [-%v,%v]", x, bound, bound)
		}
	}
}

// Property: MulVecT is the adjoint of MulVec, i.e. <M v, u> == <v, Mᵀ u>.
func TestPropertyAdjoint(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 1+rng.Intn(6), 1+rng.Intn(6)
		m := NewMat(rows, cols)
		m.RandInit(rng, 1)
		v := NewVec(cols)
		u := NewVec(rows)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		lhs := m.MulVec(v).Dot(u)
		rhs := v.Dot(m.MulVecT(u))
		return almostEqual(lhs, rhs, 1e-9*(1+math.Abs(lhs)))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax output is a probability distribution for any finite input.
func TestPropertySoftmaxDistribution(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(10)
		v := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64() * 10
		}
		s := Softmax(v)
		sum := 0.0
		for _, x := range s {
			if x < 0 || x > 1 {
				return false
			}
			sum += x
		}
		return almostEqual(sum, 1, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: LogSumExp(v) >= max(v), with equality iff one dominant element.
func TestPropertyLogSumExpLowerBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		v := NewVec(n)
		for i := range v {
			v[i] = rng.NormFloat64() * 5
		}
		max, _ := v.Max()
		lse := LogSumExp(v)
		return lse >= max-1e-12 && lse <= max+math.Log(float64(n))+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
